#include "serve/batch_scheduler.h"

#include <thread>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injector.h"
#include "util/error.h"

namespace desmine::serve {

namespace {

double age_ms(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string edge_name(const EdgeModel& edge) {
  return std::to_string(edge.src) + "->" + std::to_string(edge.dst);
}

}  // namespace

BatchScheduler::BatchScheduler(
    const std::shared_ptr<const ModelGeneration>& initial,
    SchedulerConfig config,
    std::function<void(std::unique_ptr<PendingWindow>)> on_scored)
    : config_(config), on_scored_(std::move(on_scored)) {
  DESMINE_EXPECTS(config_.max_batch > 0, "max_batch must be > 0");
  DESMINE_EXPECTS(config_.circuit_open_after == 0 ||
                      config_.circuit_probe_after > 0,
                  "circuit_probe_after must be > 0 when the breaker is on");
  DESMINE_EXPECTS(on_scored_ != nullptr, "scheduler needs an on_scored sink");
  DESMINE_EXPECTS(initial != nullptr, "scheduler needs an initial generation");
  current_generation_ = initial->id;
}

void BatchScheduler::submit(std::unique_ptr<PendingWindow> window) {
  DESMINE_EXPECTS(window != nullptr && !window->edges.empty(),
                  "submit needs at least one edge to score");
  DESMINE_EXPECTS(window->generation != nullptr,
                  "window lacks a model generation");
  DESMINE_EXPECTS(window->remaining == window->edges.size() &&
                      window->edge_bleu.size() == window->edges.size() &&
                      window->edge_status.size() == window->edges.size(),
                  "window score bookkeeping not initialized");
  PendingWindow* raw = window.get();
  {
    std::lock_guard lock(mu_);
    DESMINE_EXPECTS(!stopping_, "submit after stop()");
    owned_.emplace(raw, std::move(window));
    const std::uint64_t gen_id = raw->generation->id;
    for (std::size_t slot = 0; slot < raw->edges.size(); ++slot) {
      const std::size_t edge_id = raw->edges[slot];
      DESMINE_EXPECTS(edge_id < raw->generation->edges.size(),
                      "edge id out of range");
      const Key key{gen_id, edge_id};
      auto [it, inserted] = states_.try_emplace(key);
      EdgeState& state = it->second;
      if (inserted) {
        state.generation = raw->generation;
        state.edge_id = edge_id;
        state.retired = gen_id != current_generation_;
        state.cache = DecodeCache(config_.decode_cache);
      }
      state.queue.push_back({raw, slot});
      ++queued_items_;
      if (!state.busy && !state.in_ready) {
        ready_.push_back(key);
        state.in_ready = true;
      }
    }
  }
  cv_.notify_all();
}

void BatchScheduler::resolve_locked(
    const Item& item, SlotStatus status,
    std::vector<std::unique_ptr<PendingWindow>>* completed) {
  item.window->edge_status[item.slot] = static_cast<std::uint8_t>(status);
  if (--item.window->remaining == 0) {
    item.window->scored_done = std::chrono::steady_clock::now();
    const auto it = owned_.find(item.window);
    completed->push_back(std::move(it->second));
    owned_.erase(it);
  }
}

bool BatchScheduler::run_one() {
  std::vector<Item> batch;
  Key key{};
  EdgeState* state = nullptr;
  bool probing = false;
  std::vector<std::unique_ptr<PendingWindow>> completed;
  {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] {
        return !ready_.empty() || (stopping_ && queued_items_ == 0);
      });
      if (ready_.empty()) return false;  // stopping and fully drained
      key = ready_.front();
      ready_.pop_front();
      const auto it = states_.find(key);
      if (it == states_.end()) continue;  // state erased while enqueued
      state = &it->second;
      state->in_ready = false;
      break;
    }
    state->busy = true;

    // Form the batch, dispositioning each popped item: already-shed or
    // stale windows resolve as kShed, an open breaker quarantines, and the
    // rest join the decode batch (a single item when half-open probing).
    const auto now = std::chrono::steady_clock::now();
    std::size_t limit = config_.max_batch;
    if (state->breaker == Breaker::kHalfOpen) {
      limit = 1;
      probing = true;
    }
    std::deque<Item>& queue = state->queue;
    while (batch.size() < limit && !queue.empty()) {
      const Item item = queue.front();
      queue.pop_front();
      --queued_items_;
      // Stage stamps: the first pop ends the queue wait, the last pop ends
      // batch formation (a window contributes one item per edge, so these
      // land across run_one() calls of different workers — all under mu_).
      PendingWindow* w = item.window;
      if (w->dequeued == 0) w->first_dequeue = now;
      if (++w->dequeued == w->edges.size()) w->last_dequeue = now;

      if (w->shed) {
        resolve_locked(item, SlotStatus::kShed, &completed);
        continue;
      }
      if (config_.max_queue_delay_ms > 0.0 && w->sheddable &&
          age_ms(w->enqueued, now) > config_.max_queue_delay_ms) {
        w->shed = true;
        obs::metrics().counter("serve.shed.windows").inc();
        resolve_locked(item, SlotStatus::kShed, &completed);
        continue;
      }
      if (state->breaker == Breaker::kOpen) {
        resolve_locked(item, SlotStatus::kQuarantined, &completed);
        obs::metrics().counter("serve.circuit.quarantined").inc();
        if (++state->skipped_since_open >= config_.circuit_probe_after) {
          state->breaker = Breaker::kHalfOpen;
          state->skipped_since_open = 0;
          break;  // the next visit probes with a single item
        }
        continue;
      }
      batch.push_back(item);
    }
  }
  if (!completed.empty()) cv_.notify_all();
  for (std::unique_ptr<PendingWindow>& window : completed) {
    on_scored_(std::move(window));
  }
  completed.clear();

  // Worker supervision: a throwing decode resolves the batch as error
  // results instead of killing the worker (the session delivers them as
  // typed failed-edge windows through its reorder buffer).
  bool scored_ok = true;
  if (!batch.empty()) {
    if (probing) obs::metrics().counter("serve.circuit.probes").inc();
    try {
      score_batch(*state, batch);
    } catch (const std::exception& e) {
      scored_ok = false;
      obs::metrics().counter("serve.batch.failures").inc();
      DESMINE_LOG_WARN(
          "batch scoring failed",
          {obs::kv("edge", edge_name(state->generation->edges[state->edge_id])),
           obs::kv("generation", state->generation->id),
           obs::kv("batch", batch.size()), obs::kv("error", e.what())});
    }
  }

  {
    std::lock_guard lock(mu_);
    state->busy = false;
    if (!batch.empty()) {
      if (scored_ok) {
        state->consecutive_failures = 0;
        if (state->breaker != Breaker::kClosed) {
          state->breaker = Breaker::kClosed;
          obs::metrics().counter("serve.circuit.closed").inc();
          DESMINE_LOG_INFO(
              "circuit closed",
              {obs::kv("edge",
                       edge_name(state->generation->edges[state->edge_id]))});
        }
      } else if (config_.circuit_open_after > 0) {
        state->skipped_since_open = 0;
        if (probing || ++state->consecutive_failures >=
                           config_.circuit_open_after) {
          if (state->breaker != Breaker::kOpen) {
            obs::metrics().counter("serve.circuit.opened").inc();
            DESMINE_LOG_WARN(
                "circuit opened",
                {obs::kv("edge",
                         edge_name(state->generation->edges[state->edge_id])),
                 obs::kv("failures", state->consecutive_failures)});
          }
          state->breaker = Breaker::kOpen;
          state->consecutive_failures = 0;
        }
      }
      for (const Item& item : batch) {
        resolve_locked(item,
                       scored_ok ? SlotStatus::kScored : SlotStatus::kFailed,
                       &completed);
      }
    }
    if (!state->queue.empty()) {
      if (!state->in_ready) {
        // Re-queue at the tail: round-robin fairness across hot edges.
        ready_.push_back(key);
        state->in_ready = true;
      }
    } else if (state->retired) {
      // Last work of a superseded generation: drop the state (and with it
      // the generation reference) so the old models can free themselves.
      states_.erase(key);
      state = nullptr;
    }
  }
  cv_.notify_all();
  for (std::unique_ptr<PendingWindow>& window : completed) {
    on_scored_(std::move(window));
  }
  return true;
}

void BatchScheduler::score_batch(EdgeState& state,
                                 const std::vector<Item>& batch) {
  static obs::Histogram& batch_size =
      obs::metrics().histogram("serve.batch.size");
  static obs::Histogram& score_ms =
      obs::metrics().histogram("serve.batch.score_ms");
  static obs::Counter& cache_hits =
      obs::metrics().counter("serve.batch.cache_hits");
  static obs::Counter& decoded = obs::metrics().counter("serve.batch.decoded");
  static obs::Counter& evictions =
      obs::metrics().counter("serve.batch.cache_evictions");

  const obs::ScopedTimer timer("serve.score-batch", score_ms);
  batch_size.record(static_cast<double>(batch.size()));

  const EdgeModel& edge = state.generation->edges[state.edge_id];
  switch (robust::fire_fault("serve.decode", edge_name(edge))) {
    case robust::FaultAction::kThrow:
      throw RuntimeError("injected serve.decode fault on edge " +
                         edge_name(edge));
    case robust::FaultAction::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(robust::kDelayMillis));
      break;
    default:
      break;
  }

  // Sources and references are scored as ids of the edge's vocabularies.
  std::shared_ptr<nmt::TranslationModel> model;
  if (!state.src_vocab) {
    model = edge.acquire();
    state.src_vocab = model->src_vocab();
    state.tgt_vocab = model->tgt_vocab();
  }
  DecodeCache& cache = state.cache;

  // Partition into cache hits and sources still to decode. decode_ids()
  // dedups identical sources, so `misses` may hold repeats.
  std::vector<std::vector<std::int32_t>> sources(batch.size());
  std::vector<const std::vector<std::int32_t>*> candidates(batch.size());
  std::vector<const std::vector<std::int32_t>*> misses;
  std::vector<std::size_t> miss_index;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sources[i] =
        state.src_vocab->encode(batch[i].window->corpora[edge.src].front());
    candidates[i] = cache.find(sources[i]);
    if (candidates[i] != nullptr) {
      cache_hits.inc();
    } else {
      misses.push_back(&sources[i]);
      miss_index.push_back(i);
    }
  }
  std::vector<std::vector<std::int32_t>> fresh;
  if (!misses.empty()) {
    if (model == nullptr) model = edge.acquire();
    fresh = model->decode_ids(misses);
    decoded.inc(misses.size());
  }

  // Score every item. Hits and fresh decodes are interchangeable bit for
  // bit: greedy decoding is a pure function of the source ids.
  for (std::size_t m = 0; m < miss_index.size(); ++m) {
    candidates[miss_index[m]] = &fresh[m];
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const text::Sentence& reference = batch[i].window->corpora[edge.dst].front();
    batch[i].window->edge_bleu[batch[i].slot] =
        text::sentence_bleu(*candidates[i],
                            state.tgt_vocab->encode(reference, text::Vocabulary::kNoMatch),
                            config_.bleu)
            .score;
  }

  for (std::size_t m = 0; m < miss_index.size(); ++m) {
    if (cache.insert(*misses[m], std::move(fresh[m]))) evictions.inc();
  }
}

void BatchScheduler::set_current_generation(std::uint64_t id) {
  {
    std::lock_guard lock(mu_);
    current_generation_ = id;
    for (auto it = states_.begin(); it != states_.end();) {
      EdgeState& state = it->second;
      if (state.generation->id == id) {
        ++it;
        continue;
      }
      if (state.queue.empty() && !state.busy) {
        // Idle old-generation state: queue empty implies not in ready_, so
        // erasing here leaves no dangling key behind (run_one tolerates
        // stale keys regardless).
        it = states_.erase(it);
      } else {
        state.retired = true;
        ++it;
      }
    }
  }
  cv_.notify_all();
}

void BatchScheduler::stop() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
}

}  // namespace desmine::serve
