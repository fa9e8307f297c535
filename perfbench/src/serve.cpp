// Workloads `serve_overlap` and `serve_distinct`: kSessions SessionManager
// sessions over the mined artifact, one driver thread plus
// kPoolThreads - 1 workers. A closed-loop phase measures windows/s; an
// open-loop phase at a fixed absolute rate measures latency from when a
// window's last tick was due to when its verdict was polled. Each phase gets
// half of the run, in kBlocks blocks that alternate with the other phase's.
//
// serve_overlap replays day-offset slices of one plant, so sentence windows
// recur across sessions and days: it exercises the decode cache, in-batch
// dedup, BLEU, ingest and the scheduler, and decodes little.
// serve_distinct gives each session its own stream with every state
// re-drawn with probability 0.3, so nearly every window is new: greedy
// decode dominates, and a cache-only gain must show no change there.
#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>

#include "io/artifact_map.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "parts.h"
#include "serve/session_manager.h"

namespace dc = desmine::core;
namespace ds = desmine::serve;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

/// Re-draw probability of serve_distinct: at 0.3 about 0.93 of the
/// (sensor, sentence-window) pairs are unique on every seed (0.2 gave about
/// 0.72, the lazy and global-mode sensors repeat their windows).
constexpr double kRedraw = 0.3;
/// Closed-loop capacity (windows/s) each workload measured at the commit
/// that defined the benchmark (2 workers, 4-vCPU AVX2 machine), which sizes
/// the closed loop, and the fixed open-loop rates. The distinct rate is kept
/// well under what the workers decode one window at a time: near that
/// capacity the p50 measures queueing, which moves with the machine's speed.
constexpr double kOverlapCapacity = 8000.0;
constexpr double kDistinctCapacity = 500.0;
constexpr double kOverlapRate = 1000.0;
constexpr double kDistinctRate = 100.0;
/// Overlap plant: 4 days, a period of 48 windows per session. Its noise
/// flips make some windows unique, and the decode cache holds every unique
/// one, so a longer plant only adds seed-dependent memory.
constexpr std::size_t kOverlapDays = 4;
/// Closed- and open-loop blocks of an untraced run.
constexpr std::size_t kBlocks = 4;

ds::ServeConfig serve_config() {
  ds::ServeConfig scfg;
  scfg.detector = framework_config().detector;
  scfg.detector.threads = 1;
  scfg.workers = kPoolThreads - 1;
  // Reject instead of block: a single driver thread that blocks in ingest
  // while holding unpolled results would deadlock once a session's budget
  // fills. The driver polls and retries the same tick instead.
  scfg.limits.reject_when_full = true;
  return scfg;
}

struct Phases {
  std::size_t closed_windows = 0;  ///< per session
  double open_s = 0.0;
  double rate_wps = 0.0;
};

/// Half of `seconds` for each phase: the closed loop gets the windows the
/// workload's nominal capacity serves in that time.
Phases phases_for(double seconds, bool distinct) {
  const double capacity = distinct ? kDistinctCapacity : kOverlapCapacity;
  return {static_cast<std::size_t>(capacity * seconds / 2 / kSessions), seconds / 2,
          distinct ? kDistinctRate : kOverlapRate};
}

/// Waits by spinning, not sleeping: a sleeping driver would add its own
/// wake-up delay (timer slack, a halted vCPU) to every latency and stall the
/// closed loop, and polling back to back would contend with the workers for
/// the session locks.
void spin_for(Clock::duration d) {
  const auto until = Clock::now() + d;
  while (Clock::now() < until) {
  }
}

/// The serve driver: one thread that ingests pre-built ticks, polls every
/// session and keeps each verdict for the checks.
class Driver {
 public:
  Driver(ds::SessionManager& mgr, const TickStreams& streams,
         const dc::WindowConfig& w)
      : mgr_(mgr), streams_(streams),
        span_(w.word_length + (w.sentence_length - 1) * w.word_stride),
        stride_(w.sentence_stride * w.word_stride) {
    for (std::size_t s = 0; s < streams.sessions(); ++s) ids_.push_back(mgr.open());
    pos_.assign(ids_.size(), 0);
    full_.assign(ids_.size(), false);
    scores_.resize(ids_.size());
    due_.resize(ids_.size());
  }

  /// Restart-to-first-verdict tail of set-up: feed session 0 until its
  /// first verdict is polled.
  void first_verdict() {
    while (scores_[0].empty()) {
      if (ingest(0, nullptr) == ds::IngestStatus::kAccepted && pos_[0] >= span_) {
        mgr_.drain(ids_[0]);
      }
      poll(0, Clock::now());
    }
  }

  using Chunks = std::vector<std::pair<double, double>>;  ///< (windows, seconds) per poll

  /// Closed loop: every session sends the ticks of `windows` more windows
  /// as fast as the manager accepts them. Returns the windows and seconds of
  /// every poll, from the first ingest until the last window is polled, for
  /// median_rate. A fixed amount of work, not a fixed time, so count-driven
  /// effects inside the server (a decode cache filling up) land at the same
  /// place in every run.
  Chunks closed_loop(std::size_t windows, Tracer* tracer) {
    std::vector<std::size_t> end(ids_.size());
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      end[s] = std::min(streams_.length(s), pos_[s] + windows * stride_);
    }
    Chunks chunks;
    auto last = Clock::now();
    const auto record = [&](std::size_t n) {
      if (n == 0) return;
      const auto now = Clock::now();
      chunks.push_back({static_cast<double>(n), seconds_between(last, now)});
      last = now;
    };
    for (bool left = true; left;) {
      left = false;
      bool progressed = false;
      for (std::size_t s = 0; s < ids_.size(); ++s) {
        if (pos_[s] >= end[s]) continue;
        left = true;
        // A rejected session is retried once a poll freed part of its budget.
        if (!full_[s]) progressed |= ingest(s, tracer) == ds::IngestStatus::kAccepted;
      }
      record(poll_all(Clock::now()));
      if (!progressed) spin_for(std::chrono::microseconds(5));
    }
    for (std::size_t s = 0; s < ids_.size(); ++s) exhausted_ |= pos_[s] < end[s];
    mgr_.drain();
    record(poll_all(Clock::now()));
    return chunks;
  }

  struct OpenLoop {
    std::vector<double> latency_ms;
    std::vector<double> late_ms;  ///< how late the generator sent each round
    std::size_t backlog_end = 0;  ///< windows sent but not polled at the end
  };

  /// Open loop: `rate_wps` windows/s for `seconds`, appended to `out`.
  void open_loop(double seconds, double rate_wps, Tracer* tracer, OpenLoop& out) {
    // Idle workers would otherwise halt their vCPUs between windows.
    const IdleSpinners spinners(std::thread::hardware_concurrency());
    // Untimed: finish the previous phase and stagger the sessions so their
    // windows complete on different rounds.
    mgr_.drain();
    poll_all(Clock::now());
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      const std::size_t first = (s * stride_) / ids_.size();
      const std::size_t want = (span_ + stride_ * 4 - 1 - first) % stride_;
      while (pos_[s] % stride_ != want) {
        if (ingest(s, nullptr) != ds::IngestStatus::kAccepted) poll_all(Clock::now());
      }
    }
    mgr_.drain();
    poll_all(Clock::now());
    for (auto& d : due_) d.clear();

    const std::size_t polled0 = out.latency_ms.size();
    latency_ = &out.latency_ms;
    // One round sends one tick to every session: sessions / stride windows.
    const double round_s = static_cast<double>(ids_.size()) /
                           (rate_wps * static_cast<double>(stride_));
    const std::size_t rounds = static_cast<std::size_t>(seconds / round_s);
    const auto t0 = Clock::now();
    std::size_t sent = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(round_s * static_cast<double>(r)));
      // Poll every 10 us until the round is due.
      for (auto now = Clock::now(); now < due; now = Clock::now()) {
        poll_all(now);
        spin_for(std::min<Clock::duration>(due - now, std::chrono::microseconds(10)));
      }
      for (std::size_t s = 0; s < ids_.size(); ++s) {
        if (pos_[s] >= streams_.length(s)) {
          exhausted_ = true;
          continue;
        }
        const std::size_t tick = pos_[s];
        while (ingest(s, tracer) != ds::IngestStatus::kAccepted) {
          while (poll(s, Clock::now()) == 0) spin_for(std::chrono::microseconds(5));
        }
        if (completes_window(tick)) {
          due_[s].push_back({window_of(tick), due});
          ++sent;
        }
      }
      out.late_ms.push_back(ms_between(due, Clock::now()));
      poll_all(Clock::now());
    }
    out.backlog_end += sent - (out.latency_ms.size() - polled0);
    mgr_.drain();
    poll_all(Clock::now());
    latency_ = nullptr;
  }

  std::size_t sessions() const { return ids_.size(); }
  const std::vector<std::vector<double>>& scores() const { return scores_; }
  std::vector<std::vector<double>>& mutable_scores() { return scores_; }
  const std::vector<std::size_t>& ticks_sent() const { return pos_; }
  const std::vector<double>& ingest_us() const { return ingest_us_; }
  std::size_t ingest_calls() const { return ingest_calls_; }
  std::size_t rejected() const { return rejected_; }
  std::size_t shed() const { return shed_; }
  std::size_t failed_edge_windows() const { return failed_edges_; }
  bool in_order() const { return in_order_; }
  bool exhausted() const { return exhausted_; }
  void reset_ingest_stats() {
    ingest_us_.clear();
    ingest_calls_ = rejected_ = 0;
  }

 private:
  bool completes_window(std::size_t tick) const {
    return tick + 1 >= span_ && (tick + 1 - span_) % stride_ == 0;
  }
  std::size_t window_of(std::size_t tick) const { return (tick + 1 - span_) / stride_; }

  ds::IngestStatus ingest(std::size_t s, Tracer* tracer) {
    const auto t0 = Clock::now();
    const ds::IngestStatus st = mgr_.ingest(ids_[s], streams_.tick(s, pos_[s]));
    ++ingest_calls_;
    if (tracer) {
      const auto t1 = Clock::now();
      ingest_us_.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      tracer->add("serve.ingest", t0, t1, 0, (s << 32) | pos_[s]);
    }
    if (st == ds::IngestStatus::kAccepted) {
      ++pos_[s];
    } else {
      ++rejected_;  // retried later: a retry, not a failure
      full_[s] = true;
    }
    return st;
  }

  std::size_t poll(std::size_t s, Clock::time_point now) {
    std::size_t n = 0;
    while (const auto r = mgr_.poll(ids_[s])) {
      ++n;
      full_[s] = false;
      in_order_ &= r->window_index == scores_[s].size();
      scores_[s].push_back(r->anomaly_score);
      shed_ += r->shed ? 1 : 0;
      failed_edges_ += r->failed.empty() ? 0 : 1;
      if (latency_) {
        auto& d = due_[s];
        while (!d.empty() && d.front().first < r->window_index) d.pop_front();
        if (!d.empty() && d.front().first == r->window_index) {
          latency_->push_back(ms_between(d.front().second, now));
          d.pop_front();
        }
      }
    }
    return n;
  }

  std::size_t poll_all(Clock::time_point now) {
    std::size_t n = 0;
    for (std::size_t s = 0; s < ids_.size(); ++s) n += poll(s, now);
    return n;
  }

  ds::SessionManager& mgr_;
  const TickStreams& streams_;
  const std::size_t span_;
  const std::size_t stride_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::size_t> pos_;
  std::vector<bool> full_;  ///< last ingest was rejected, nothing polled since
  std::vector<std::vector<double>> scores_;
  std::vector<std::deque<std::pair<std::size_t, Clock::time_point>>> due_;
  std::vector<double>* latency_ = nullptr;
  std::vector<double> ingest_us_;
  std::size_t ingest_calls_ = 0;
  std::size_t rejected_ = 0;
  std::size_t shed_ = 0;
  std::size_t failed_edges_ = 0;
  bool in_order_ = true;
  bool exhausted_ = false;
};

struct SetupResult {
  std::unique_ptr<ds::SessionManager> mgr;
  std::unique_ptr<Driver> driver;
  std::vector<double> setup_s;
  std::vector<double> first_verdict_ms;
};

/// Artifact open, sessions open, first polled verdict. Replaces `out`'s
/// manager; the last one stays up.
void set_up(const std::string& artifact, const TickStreams& streams,
            Tracer* tracer, SetupResult& out) {
  out.driver.reset();
  out.mgr.reset();
  ScopedSpan span(tracer, "serve.setup", 0, out.setup_s.size());
  const auto t0 = Clock::now();
  out.mgr = std::make_unique<ds::SessionManager>(artifact, serve_config());
  out.driver = std::make_unique<Driver>(*out.mgr, streams, framework_config().window);
  const auto t1 = Clock::now();
  out.driver->first_verdict();
  const auto t2 = Clock::now();
  out.setup_s.push_back(seconds_between(t0, t2));
  out.first_verdict_ms.push_back(ms_between(t1, t2));
}

struct Counters {
  std::uint64_t hits, decoded;
  static Counters read() {
    auto& m = desmine::obs::metrics();
    return {m.counter("serve.batch.cache_hits").value(),
            m.counter("serve.batch.decoded").value()};
  }
};

void reset_serve_histograms() {
  auto& m = desmine::obs::metrics();
  for (const char* h : {"serve.batch.size", "serve.stage.queue_ms",
                        "serve.stage.batch_form_ms", "serve.stage.decode_ms",
                        "serve.stage.reorder_ms"}) {
    m.histogram(h).reset();
  }
}

/// Serve-layer metrics of the (traced) phases just run on `driver`.
void report_serve_layers(const Driver& driver, const Counters& before,
                         const Driver::OpenLoop& open, double first_verdict_ms,
                         Report& report) {
  auto& m = desmine::obs::metrics();
  const Counters after = Counters::read();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double decoded = static_cast<double>(after.decoded - before.decoded);
  report.metric("serve.ingest_us.p50", quantile(driver.ingest_us(), 0.5), "us");
  report.metric("serve.ingest_us.p99", quantile(driver.ingest_us(), 0.99), "us");
  report.metric("serve.ingest.rejected_per_tick",
                static_cast<double>(driver.rejected()) /
                    static_cast<double>(std::max<std::size_t>(1, driver.ingest_calls())),
                "ratio");
  report.metric("serve.cache_hit_ratio", hits / std::max(1.0, hits + decoded), "ratio");
  report.metric("serve.cache_lookups", hits + decoded, "count");
  report.metric("serve.batch.size", m.histogram("serve.batch.size").snapshot().mean(), "rows");
  for (const char* stage : {"queue", "batch_form", "decode", "reorder"}) {
    const auto snap = m.histogram(std::string("serve.stage.") + stage + "_ms").snapshot();
    report.metric(std::string("serve.stage.") + stage + "_ms.p50", snap.quantile(0.5), "ms");
    report.metric(std::string("serve.stage.") + stage + "_ms.p99", snap.quantile(0.99), "ms");
  }
  report.metric("serve.backlog_end", static_cast<double>(open.backlog_end), "count");
  report.metric("serve.generator_late_ms.p99", quantile(open.late_ms, 0.99), "ms");
  report.metric("serve.first_verdict_ms", first_verdict_ms, "ms");
}

}  // namespace

void probe_serve(const std::string& artifact, const dc::MultivariateSeries& series,
                 std::uint64_t seed, Tracer& tracer, Report& report) {
  ScopedSpan span(&tracer, "probe.serve");
  const TickStreams streams(series, kSessions, seed, false, 0.0, 0);
  SetupResult up;
  set_up(artifact, streams, &tracer, up);
  const Counters before = Counters::read();
  reset_serve_histograms();
  up.driver->reset_ingest_stats();
  up.driver->closed_loop(20, &tracer);
  Driver::OpenLoop open;
  up.driver->open_loop(0.5, 200.0, &tracer, open);
  report_serve_layers(*up.driver, before, open, up.first_verdict_ms[0], report);
}

void run_serve(const Args& args, bool distinct, Report& report) {
  const Paths paths = paths_for(args);
  const dc::FrameworkConfig cfg = framework_config();
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;

  const std::string artifact = checked_artifact(args, paths, report);
  if (artifact.empty()) return;
  const dc::SensorEncrypter known =
      desmine::io::load_framework(artifact, cfg).encrypter();
  const std::vector<std::string> kept = known.kept_sensors();

  // Inputs, built before anything is timed.
  const std::uint64_t data_seed = derive_seed(args.seed, distinct ? 3 : 2);
  const auto plant = desmine::data::generate_plant(plant_config(data_seed, kOverlapDays));
  const Phases phases = phases_for(args.seconds, distinct);
  const std::size_t stride = cfg.window.sentence_stride * cfg.window.word_stride;
  const std::size_t span = cfg.window.word_length +
                           (cfg.window.sentence_length - 1) * cfg.window.word_stride;
  // Ticks one session can need: set-up, closed loop, stagger, open loop.
  const std::size_t open_windows = static_cast<std::size_t>(
      std::ceil(phases.open_s * phases.rate_wps / kSessions));
  const std::size_t ticks = distinct
      ? span + (phases.closed_windows + open_windows + kBlocks + 4) * stride
      : 0;
  const TickStreams streams(plant.series, kSessions, data_seed, distinct, kRedraw, ticks,
                            &known);

  SetupResult up;
  set_up(artifact, streams, tr, up);
  Driver& driver = *up.driver;
  desmine::obs::Counter& shed_c = desmine::obs::metrics().counter("serve.shed.windows");
  desmine::obs::Counter& failed_c = desmine::obs::metrics().counter("serve.window.failed_edges");
  desmine::obs::Counter& rejected_c = desmine::obs::metrics().counter("serve.ingest.rejected");
  const std::uint64_t shed0 = shed_c.value(), failed0 = failed_c.value(),
                      rejected0 = rejected_c.value();

  double rate = 0.0;
  Driver::OpenLoop open;
  double traced_rate = 0.0;
  Counters before = Counters::read();
  if (!args.trace) {
    // Closed- and open-loop blocks alternate, so each phase samples the
    // machine's speed over the whole run rather than over one half of it.
    Driver::Chunks chunks;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const Driver::Chunks c = driver.closed_loop(phases.closed_windows / kBlocks, nullptr);
      chunks.insert(chunks.end(), c.begin(), c.end());
      driver.open_loop(phases.open_s / kBlocks, phases.rate_wps, nullptr, open);
    }
    rate = median_rate(chunks, 16);
  } else {
    // Untraced then traced halves: the difference is the tracing overhead.
    rate = median_rate(driver.closed_loop(phases.closed_windows / 2, nullptr), 16);
    reset_serve_histograms();
    desmine::obs::metrics().histogram("threadpool.queue_wait_us").reset();
    before = Counters::read();
    driver.reset_ingest_stats();
    traced_rate = median_rate(driver.closed_loop(phases.closed_windows / 2, tr), 16);
    reset_serve_histograms();  // stage attribution for the open-loop p99
    driver.open_loop(phases.open_s, phases.rate_wps, tr, open);
  }
  const double rss = peak_rss_mb();
  // More restarts for the set-up median, after the peak RSS reading so the
  // extra managers' worker threads and heaps do not leak into it.
  up.mgr.reset();  // the driver is only read for its recorded results now
  SetupResult again;
  for (int rep = 0; rep < 14; ++rep) set_up(artifact, streams, tr, again);
  again.driver.reset();
  again.mgr.reset();
  up.setup_s.insert(up.setup_s.end(), again.setup_s.begin(), again.setup_s.end());
  up.first_verdict_ms.insert(up.first_verdict_ms.end(), again.first_verdict_ms.begin(),
                             again.first_verdict_ms.end());

  // ---- checks (untimed) -----------------------------------------------------
  std::vector<std::size_t> windows;
  std::uint64_t served = 0;
  for (const auto& s : driver.scores()) {
    windows.push_back(s.size());
    served += s.size();
  }
  report.attempted = served;
  report.failed = driver.shed() + driver.failed_edge_windows();
  report.check(driver.in_order(), "a session delivered windows out of order");
  report.check(!driver.exhausted(), "a session ran out of input ticks");
  const double unique = streams.unique_window_share(windows, kept, cfg.window);
  if (distinct) {
    report.check(unique >= 0.85, "serve_distinct unique window share " +
                                     std::to_string(unique) + " < 0.85");
  } else {
    report.check(unique <= 0.10, "serve_overlap unique window share " +
                                     std::to_string(unique) + " > 0.10");
  }
  if (args.corrupt == "score" && driver.scores()[0].size() > 1) {
    auto& s = driver.mutable_scores()[0][1];
    s = flip_bit(s);
  }
  // Every served score against an OnlineDetector replay of its session's
  // stream. An overlap stream wraps with a period of `period` ticks, so its
  // window k covers the same ticks as window k mod (period / stride): one
  // period of replay (plus a wrapped window, checked equal to window 0)
  // covers every served window.
  std::vector<std::vector<double>> ref(driver.sessions());
  parallel_run(driver.sessions(), [&](std::size_t s) {
    const std::size_t n = distinct ? driver.ticks_sent()[s]
                                   : streams.period() + span - 1 + stride;
    const dc::Framework fw = desmine::io::load_framework(artifact, cfg);
    ref[s] = online_replay(fw, n, [&](std::size_t t) -> const auto& {
      return streams.tick(s, t);
    });
  });
  std::size_t mismatched = 0;
  for (std::size_t s = 0; s < driver.sessions(); ++s) {
    const auto& got = driver.scores()[s];
    if (distinct) {
      report.check(ref[s].size() == got.size(), "replay window count differs");
      for (std::size_t k = 0; k < std::min(got.size(), ref[s].size()); ++k) {
        mismatched += digest_bits({got[k]}) != digest_bits({ref[s][k]});
      }
    } else {
      const std::size_t period = streams.period() / stride;
      report.check(ref[s].size() == period + 1 &&
                       digest_bits({ref[s][0]}) == digest_bits({ref[s][period]}),
                   "overlap replay is not periodic");
      if (ref[s].size() != period + 1) continue;
      for (std::size_t k = 0; k < got.size(); ++k) {
        mismatched += digest_bits({got[k]}) != digest_bits({ref[s][k % period]});
      }
    }
  }
  report.check(mismatched == 0, std::to_string(mismatched) +
                                    " served scores differ from the OnlineDetector replay");

  std::uint64_t digest = 1469598103934665603ull;
  for (const auto& s : driver.scores()) digest = digest_bits(s, digest);
  report.info("scores_digest", json_string(hex64(digest)));
  report.info("unique_window_share", std::to_string(unique));
  report.info("windows", "{\"attempted\": " + std::to_string(served) +
                             ", \"shed\": " + std::to_string(shed_c.value() - shed0) +
                             ", \"failed_edges\": " + std::to_string(failed_c.value() - failed0) + "}");
  report.info("ticks", "{\"attempted\": " + std::to_string(driver.ingest_calls()) +
                           ", \"rejected\": " + std::to_string(rejected_c.value() - rejected0) + "}");
  report.info("open_loop", "{\"rate_wps\": " + std::to_string(phases.rate_wps) +
                               ", \"p90_of_slices_ms\": " +
                               std::to_string(median_quantile(open.latency_ms, 0.9, 5)) +
                               ", \"latency_ms\": {\"p50\": " + std::to_string(quantile(open.latency_ms, 0.5)) +
                               ", \"p90\": " + std::to_string(quantile(open.latency_ms, 0.9)) +
                               ", \"p99\": " + std::to_string(quantile(open.latency_ms, 0.99)) +
                               ", \"max\": " + std::to_string(quantile(open.latency_ms, 1.0)) + "}" +
                               ", \"windows\": " + std::to_string(open.latency_ms.size()) +
                               ", \"generator_late_ms_max\": " +
                               std::to_string(open.late_ms.empty() ? 0.0
                                   : *std::max_element(open.late_ms.begin(), open.late_ms.end())) +
                               ", \"backlog_end\": " + std::to_string(open.backlog_end) + "}");

  if (!args.trace) {
    report.metric("setup_s", median(up.setup_s), "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("throughput_per_s", rate, "1/s");
    // Median over five consecutive slices of the open loop.
    report.metric("latency_p50_ms", median_quantile(open.latency_ms, 0.5, 5), "ms");
    return;
  }
  report_overhead(report, rate, traced_rate);
  report_serve_layers(driver, before, open, median(up.first_verdict_ms), report);
  const dc::Framework fw = desmine::io::load_framework(artifact, cfg);
  const dc::MultivariateSeries own = streams.series(0, 0, 8 * kTicksPerDay);
  probe_encode(fw, own, tracer, report);
  probe_mine(fw, own, tracer, report);
  probe_detect(fw, cut(own, 0, kTicksPerDay), tracer, report);
  probe_decode_bleu(fw, own, tracer, report);
  probe_gemm(tracer, report);
  probe_io(artifact, &fw, paths.scratch, tracer, report);
  report_registry_layers(report);
  tracer.write(paths.trace_prefix);
}

}  // namespace perfbench
