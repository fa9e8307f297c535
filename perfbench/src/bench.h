// Shared pieces of the desmine end-to-end benchmark: command line, result
// report, in-memory span tracer, timing/percentile helpers and the one
// configuration every workload uses (the bench_serve plant family and
// model: 9 kept sensors, 72 ordered pairs, window {10,1,20,20}, embedding
// and hidden 24, 1 layer, 250 steps, batch 16).
//
// The benchmark drives the library only through its public API and times
// each layer from outside, around the calls it makes into that layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "data/plant.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Pool threads for mining and detection; serving runs one driver thread
/// plus kPoolThreads - 1 workers. Fixed, so a workload is the same load on
/// every machine (the machine's nproc is recorded next to the numbers).
/// One CPU of a 4-vCPU machine stays free: on a shared virtual machine,
/// work on all four vCPUs swung several times more in speed than on three.
inline constexpr std::size_t kPoolThreads = 3;
inline constexpr std::size_t kSessions = 8;
inline constexpr std::size_t kTicksPerDay = 240;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
  std::string build_key = "nokey";
  /// Deliberate corruption for the benchmark's own check tests:
  /// "", "score", "digest" or "artifact".
  std::string corrupt;
  /// Mine the shared serve/detect artifact instead of running a workload.
  bool prepare_artifact = false;
};

/// Result of one run: the last stdout line is its JSON form.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Extra context printed on a line of its own before the result (labels,
  /// failure bases, digests). `json` must be a JSON value.
  void info(const std::string& key, const std::string& json);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct() const { return failures_.empty(); }
  /// Prints the info line and, last, the result line.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
};

/// Spans recorded by the benchmark around its calls into each layer: name,
/// start, end, parent span and request id (window, pair or day). Kept in
/// memory and written out when the run ends. Thread-safe.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    Clock::time_point start{};
    Clock::time_point end{};
  };

  /// Reserve an id for a span whose parent link is needed before it ends.
  std::uint32_t next_id();
  std::uint32_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t parent = 0,
                    std::uint64_t request = 0, std::uint32_t id = 0);

  /// Writes `<path>.csv` (one span per line) and `<path>.summary.json`
  /// (per name: count, total and self time, where self time is the span
  /// minus its child spans).
  void write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint32_t next_ = 1;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t parent = 0,
             std::uint64_t request = 0)
      : tracer_(tracer), name_(name), parent_(parent), request_(request),
        id_(tracer ? tracer->next_id() : 0), start_(Clock::now()) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->add(name_, start_, Clock::now(), parent_, request_, id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint32_t parent_;
  std::uint64_t request_;
  std::uint32_t id_;
  Clock::time_point start_;
};

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Work done in consecutive chunks, (items, seconds) per chunk, split into
/// `groups` runs of consecutive chunks: the median over groups of items/s.
/// A stretch where the machine was slow moves one group, not the result.
double median_rate(const std::vector<std::pair<double, double>>& chunks,
                   std::size_t groups);
/// Median over `groups` consecutive slices of `samples` (in time order) of
/// each slice's q-quantile.
double median_quantile(const std::vector<double>& samples, double q,
                       std::size_t groups);

/// The highest of p90/p75/p50 that has at least ten samples beyond it (p50
/// when the sample is smaller than 20).
double tail_q(std::size_t n);

/// One spinning thread per CPU at SCHED_IDLE priority for the lifetime of
/// the object. They run only when no benchmark or library thread wants the
/// CPU, but they keep the vCPUs of a virtual machine from halting: a halted
/// vCPU takes the hypervisor tens of microseconds to milliseconds to wake,
/// which would land in the serve latencies. Only the open loop uses them:
/// a vCPU kept busy still competes with the workload's vCPUs on the host,
/// which made compute-bound phases three times noisier.
class IdleSpinners {
 public:
  explicit IdleSpinners(std::size_t threads);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Busy-spins `threads` threads for `d`: a virtual machine's vCPUs run slow
/// for about a second after an idle spell, which would land in the first
/// timed phase.
void warm_up(std::size_t threads, Clock::duration d);

/// Peak resident set of this process (VmHWM) in MB.
double peak_rss_mb();

// ---- configuration ----------------------------------------------------------

/// Normal-operation plant of the bench_serve family: 2 components x 3
/// sensors + 1 global-mode + 2 lazy + 1 constant sensor (9 kept), 240-tick
/// days. The plant structure is fixed; `seed` moves noise and lazy blips.
desmine::data::PlantConfig plant_config(std::uint64_t seed, std::size_t days);

/// Window {10,1,20,20}; embedding/hidden 24, 1 layer, 250 steps, batch 16;
/// mining and detection on kPoolThreads threads; valid band [0, 100.5) so
/// every one of the 72 edges scores.
desmine::core::FrameworkConfig framework_config();

/// Per-workload data seed derived from the command-line seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over the IEEE-754 bit patterns of `values`.
std::uint64_t digest_bits(const std::vector<double>& values,
                          std::uint64_t h = 1469598103934665603ull);
std::string hex64(std::uint64_t v);
/// (src, dst, BLEU) of every edge, in graph order, folded into one digest.
std::uint64_t bleu_digest(const desmine::core::MvrGraph& graph);

/// Corruptions for the benchmark's own check tests: flip one bit of `v`;
/// flip one byte in the middle of a file (an artifact's weight pages).
double flip_bit(double v);
void flip_middle_byte(const std::string& path);

std::string json_string(const std::string& s);

// ---- workloads --------------------------------------------------------------

struct Paths {
  std::string artifact;      ///< shared serve/detect artifact for this build
  std::string digest;        ///< its BLEU digest, written when it was mined
  std::string trace_prefix;  ///< traced runs write <prefix>.csv/.summary.json
  std::string scratch;       ///< per-run temporary files
};
Paths paths_for(const Args& args);

/// Mines the artifact the serve and detect workloads use: the mine
/// workload's config at seed 0, written with its digest. Returns 0 on
/// success.
int prepare_artifact(const Args& args);

void run_mine(const Args& args, Report& report);
void run_serve(const Args& args, bool distinct, Report& report);
void run_detect(const Args& args, Report& report);

}  // namespace perfbench
