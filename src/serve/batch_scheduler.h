// Cross-session batched scoring (the serving layer's hot path).
//
// Detection sessions emit sentence-windows; each window must be scored by
// every valid edge model f(i, j). OnlineDetector scores each window as it
// completes, so every edge decodes a one-row batch; batch detection
// (AnomalyDetector) batches one stream's windows per edge. The scheduler
// batches across sessions: it keeps one FIFO of (window, edge) work items
// per edge model, and a worker drains up to SchedulerConfig::max_batch
// items of ONE edge into a single TranslationModel::decode_ids call:
// duplicate sources decode once, the rest go through
// Seq2SeqModel::translate_batch's stacked GEMMs, and a per-edge
// DecodeCache keyed by source ids carries results across batches. All
// three layers preserve IEEE-754 bit-identity with the sequential path
// because greedy decoding is deterministic and every kernel is
// row-independent (see seq2seq.h). Rows are scored by BLEU over ids, which
// equals BLEU over the decoded words (text/bleu.h).
//
// Fault tolerance (DESIGN.md §13):
//  * Edge states are keyed by (generation id, edge id). A window carries a
//    shared_ptr to the ModelGeneration it was ingested under and scores
//    against exactly those models; set_current_generation() retires the old
//    generation's states as they drain, releasing the old models.
//  * A throwing decode never kills a worker: the batch's slots resolve as
//    kFailed error results and flow through the session's reorder buffer
//    like any score. After `circuit_open_after` consecutive failed batches
//    the edge's circuit breaker opens — its queued items resolve as
//    kQuarantined without touching the model — and after
//    `circuit_probe_after` quarantined items the breaker goes half-open and
//    probes with a single-item batch (success closes it, failure reopens).
//  * Deadline shedding: when `max_queue_delay_ms` > 0, a sheddable window
//    older than the deadline at item-pop time is marked shed; all its slots
//    resolve as kShed and the session emits a counted `shed` result instead
//    of scoring stale data.
//
// Concurrency contract (TSan-clean by construction):
//  * All queue/ownership/breaker bookkeeping happens under one mutex.
//  * An edge state is scored by at most one worker at a time (busy flag,
//    handed over under the mutex), so its model + decode cache need no own
//    locks.
//  * A window's edge_bleu/edge_status slots are disjoint per work item; the
//    finalize handoff happens only after the last slot's count-down under
//    the mutex.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "nmt/translation.h"
#include "obs/trace.h"
#include "serve/decode_cache.h"
#include "serve/model_registry.h"
#include "text/bleu.h"

namespace desmine::serve {

/// Per-slot outcome of one (window, edge) work item.
enum class SlotStatus : std::uint8_t {
  kScored = 0,       ///< edge_bleu slot holds a real f(i, j)
  kFailed = 1,       ///< decode threw; slot excluded, edge reported failed
  kQuarantined = 2,  ///< circuit breaker open; model not touched
  kShed = 3,         ///< window shed before this slot was scored
};

/// One sentence-window awaiting its per-edge scores. Created by a Session,
/// owned by the BatchScheduler while any score is outstanding, then handed
/// back (fully resolved) through the on_scored callback.
struct PendingWindow {
  std::uint64_t session_id = 0;
  std::size_t window_index = 0;  ///< per session, 0-based
  std::size_t end_tick = 0;
  /// The model generation this window scores against (snapshotted at
  /// ingest; never mixed within a window).
  std::shared_ptr<const ModelGeneration> generation;
  /// One single-sentence corpus per sensor node (WindowAssembler output).
  std::vector<text::Corpus> corpora;
  /// Node indices excluded from this window (degraded sessions only).
  std::vector<std::size_t> unhealthy;
  bool masked = false;  ///< session runs degraded-mode semantics
  /// Indices into generation->edges to score (ascending; excluded absent).
  std::vector<std::size_t> edges;
  /// f(i, j) per entry of `edges`, filled by workers (disjoint slots).
  std::vector<double> edge_bleu;
  /// SlotStatus per entry of `edges` (disjoint slots, like edge_bleu).
  std::vector<std::uint8_t> edge_status;
  /// False once the session's consecutive-shed guard kicked in: the window
  /// must be scored even when older than the shedding deadline.
  bool sheddable = true;
  /// Set (under the scheduler mutex) when the deadline shed this window.
  bool shed = false;
  /// Outstanding slots; guarded by the scheduler mutex.
  std::size_t remaining = 0;
  /// Work items already popped by workers; guarded by the scheduler mutex.
  std::size_t dequeued = 0;

  /// End-to-end trace handle: the "serve.window" root span opened at
  /// ingest, carried across the scheduler's thread handoffs and closed at
  /// delivery (invalid while tracing is disabled).
  obs::SpanContext span;
  /// Stage timeline, stamped as the window flows through the scheduler:
  /// enqueued <= first_dequeue <= last_dequeue <= scored_done. Session
  /// finalization turns the gaps into the serve.stage.* histograms and the
  /// per-stage child spans.
  std::chrono::steady_clock::time_point enqueued{};
  std::chrono::steady_clock::time_point first_dequeue{};
  std::chrono::steady_clock::time_point last_dequeue{};
  std::chrono::steady_clock::time_point scored_done{};
};

struct SchedulerConfig {
  /// Max sentence-windows one batched decode may stack per edge.
  std::size_t max_batch = 32;
  /// Per-edge decode cache entries (0 disables caching); see DecodeCache.
  std::size_t decode_cache = 256;
  text::BleuOptions bleu{};
  /// Consecutive failed batches before an edge's breaker opens (0 disables
  /// the circuit breaker: failures still resolve as error results).
  std::size_t circuit_open_after = 5;
  /// Quarantined items before an open breaker goes half-open and probes.
  std::size_t circuit_probe_after = 16;
  /// Shed sheddable windows older than this at item-pop time (0 disables).
  double max_queue_delay_ms = 0.0;
};

class BatchScheduler {
 public:
  /// `initial` pins the starting generation id; edge states are created
  /// lazily as windows arrive. `on_scored` receives each fully resolved
  /// window, called from a worker thread with no scheduler lock held.
  BatchScheduler(const std::shared_ptr<const ModelGeneration>& initial,
                 SchedulerConfig config,
                 std::function<void(std::unique_ptr<PendingWindow>)> on_scored);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Queue every edge score of `window` (window->edges must be non-empty;
  /// remaining must equal edges.size()). The scheduler owns the window
  /// until its last slot resolves.
  void submit(std::unique_ptr<PendingWindow> window);

  /// Worker loop body: wait for a ready edge, score one batch of its queue.
  /// Returns false once stop() was called and every queued item is done —
  /// run as `while (run_one()) {}` on pool threads. Never throws on decode
  /// failure (worker supervision).
  bool run_one();

  /// Retire every edge state of generations other than `id`: idle states
  /// are erased immediately (dropping their model references), busy or
  /// queued ones as soon as they drain. Called by SessionManager::reload
  /// after publishing the new generation.
  void set_current_generation(std::uint64_t id);

  /// Let workers drain what is queued, then have run_one() return false.
  void stop();

 private:
  struct Item {
    PendingWindow* window = nullptr;
    std::size_t slot = 0;  ///< index into window->edges / edge_bleu / status
  };

  /// (generation id, edge id) — the unit of queueing, caching, breaking.
  using Key = std::pair<std::uint64_t, std::size_t>;

  enum class Breaker : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct EdgeState {
    std::shared_ptr<const ModelGeneration> generation;
    std::size_t edge_id = 0;
    std::deque<Item> queue;
    bool busy = false;
    bool in_ready = false;
    /// Generation superseded; erase this state once its queue drains.
    bool retired = false;
    /// Touched only by the worker currently holding the busy flag.
    DecodeCache cache;
    /// Copies of the edge model's vocabularies, taken at the edge's first
    /// batch (which always decodes): a batch whose sources all hit the cache
    /// then never acquires, or materializes, the model.
    std::optional<text::Vocabulary> src_vocab, tgt_vocab;
    Breaker breaker = Breaker::kClosed;
    std::size_t consecutive_failures = 0;  ///< failed batches since a success
    std::size_t skipped_since_open = 0;    ///< quarantined items since open
  };

  /// Resolve one popped slot under mu_: record its status, count it down,
  /// and move the window to `completed` when it was the last slot.
  void resolve_locked(const Item& item, SlotStatus status,
                      std::vector<std::unique_ptr<PendingWindow>>* completed);

  /// Score `batch` against `state`'s edge model. Runs without the scheduler
  /// lock; exclusive state access is guaranteed by the busy flag. Throws on
  /// decode failure (including injected serve.decode faults).
  void score_batch(EdgeState& state, const std::vector<Item>& batch);

  const SchedulerConfig config_;
  const std::function<void(std::unique_ptr<PendingWindow>)> on_scored_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t current_generation_ = 0;
  std::map<Key, EdgeState> states_;
  std::deque<Key> ready_;  ///< states with work, round-robin
  std::map<PendingWindow*, std::unique_ptr<PendingWindow>> owned_;
  std::size_t queued_items_ = 0;
  bool stopping_ = false;
};

}  // namespace desmine::serve
