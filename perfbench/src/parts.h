// Inputs and layer probes shared by the workloads.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "core/miner.h"
#include "core/online.h"

namespace perfbench {

// ---- serve inputs -------------------------------------------------------------

/// Per-session tick streams for the serve workloads. Tick maps are built
/// during setup and interned (a tick map is one combination of sensor
/// states), so the driver only hands pre-built maps to ingest().
class TickStreams {
 public:
  /// Overlap: session s replays the plant from a seeded day offset,
  /// wrapping around, so windows recur across sessions and across days.
  /// Distinct: the same slices, but every (tick, sensor) state is re-drawn
  /// from that sensor's alphabet with probability `redraw`, from a
  /// per-session stream of `ticks` ticks, so nearly every window is new.
  /// A sensor's alphabet is the states it shows in `plant`, plus, for a
  /// sensor `known` keeps, every state the model was trained on: a lazy
  /// sensor that happens to sit still in a short plant still varies.
  TickStreams(const desmine::core::MultivariateSeries& plant,
              std::size_t sessions,
              std::uint64_t seed, bool distinct, double redraw,
              std::size_t ticks,
              const desmine::core::SensorEncrypter* known = nullptr);

  std::size_t sessions() const { return offset_.size(); }
  /// Ticks available to session s (unbounded for a wrapping stream).
  std::size_t length(std::size_t s) const {
    return ids_.empty() ? std::numeric_limits<std::size_t>::max()
                        : ids_[s].size();
  }
  const std::map<std::string, std::string>& tick(std::size_t s,
                                                 std::size_t t) const {
    return pool_[id(s, t)];
  }
  /// Ticks [from, from + n) of session s as a series (all plant sensors).
  desmine::core::MultivariateSeries series(std::size_t s, std::size_t from,
                                           std::size_t n) const;
  /// Share of unique (sensor, sentence-window) pairs among the first
  /// windows[s] windows of every session, computed from the raw states.
  double unique_window_share(const std::vector<std::size_t>& windows,
                             const std::vector<std::string>& kept,
                             const desmine::core::WindowConfig& w) const;
  /// Length of the wrapping period in ticks (0 for explicit streams).
  std::size_t period() const { return ids_.empty() ? base_.size() : 0; }

 private:
  std::uint32_t id(std::size_t s, std::size_t t) const {
    return ids_.empty() ? base_[(offset_[s] + t) % base_.size()] : ids_[s][t];
  }
  std::uint32_t intern(const std::vector<std::uint8_t>& code);

  std::vector<std::string> sensors_;
  std::vector<std::vector<std::string>> alphabet_;
  std::vector<std::map<std::string, std::string>> pool_;
  std::vector<std::vector<std::uint8_t>> codes_;  ///< per pool entry
  std::map<std::vector<std::uint8_t>, std::uint32_t> index_;
  std::vector<std::uint32_t> base_;               ///< wrapping plant
  std::vector<std::size_t> offset_;
  std::vector<std::vector<std::uint32_t>> ids_;   ///< explicit streams
};

/// Scores of an OnlineDetector replay of ticks [0, n) of `tick(t)`, indexed
/// by window (empty if windows arrive out of order). A model's decode
/// workspace must not be shared across threads: concurrent replays each
/// load their own copy of the artifact.
std::vector<double> online_replay(
    const desmine::core::Framework& fw, std::size_t n,
    const std::function<const std::map<std::string, std::string>&(std::size_t)>&
        tick);

/// The serve/detect artifact after its provenance checks: every CRC
/// verifies and its BLEU digest equals the one recorded when this build
/// mined it. `--corrupt artifact|digest` damages a copy or the recorded
/// digest first. Returns the path to serve (empty when a check failed).
std::string checked_artifact(const Args& args, const Paths& paths,
                             Report& report);

/// Run `fn(i)` for i in [0, n) on kPoolThreads plain threads.
void parallel_run(std::size_t n, const std::function<void(std::size_t)>& fn);

// ---- mining instrumentation ---------------------------------------------------

/// Collects per-pair wall time through MinerConfig::on_pair and, when
/// traced, training-step gaps through the trainer's on_step hook, emitting
/// pair and step spans (steps are children of their pair).
class MineRecorder {
 public:
  MineRecorder(Tracer* tracer, std::uint32_t parent)
      : tracer_(tracer), parent_(parent) {}
  void install(desmine::core::MinerConfig& cfg);

  std::vector<double> pair_ms() const;
  /// Per-layer metrics of one mining pass of `wall_s` seconds.
  void report(Report& report, double wall_s, std::size_t threads) const;

 private:
  Tracer* tracer_;
  std::uint32_t parent_;
  mutable std::mutex mu_;
  std::vector<double> pair_ms_;
  std::vector<double> step_ms_;
  std::vector<double> dev_ms_;
  std::size_t steps_ = 0;
};

// ---- layer probes (traced runs) -------------------------------------------------

/// Replays the workload's own input `series` through each layer's public
/// function and reports that layer's per-layer metrics. Probes that the
/// workload itself already measured are skipped by the caller.
void probe_encode(const desmine::core::Framework& fw,
                  const desmine::core::MultivariateSeries& series,
                  Tracer& tracer, Report& report);
void probe_mine(const desmine::core::Framework& fw,
                const desmine::core::MultivariateSeries& series,
                Tracer& tracer, Report& report);
void probe_detect(const desmine::core::Framework& fw,
                  const desmine::core::MultivariateSeries& series,
                  Tracer& tracer, Report& report);
void probe_decode_bleu(const desmine::core::Framework& fw,
                       const desmine::core::MultivariateSeries& series,
                       Tracer& tracer, Report& report);
void probe_gemm(Tracer& tracer, Report& report);
/// io.artifact.open_ms on `artifact`; with `write_from` set, also
/// io.artifact.write_ms / io.artifact.bytes of writing that framework.
void probe_io(const std::string& artifact,
              const desmine::core::Framework* write_from,
              const std::string& scratch, Tracer& tracer, Report& report);
/// Serve-layer metrics of a short SessionManager replay of `series`.
void probe_serve(const std::string& artifact,
                 const desmine::core::MultivariateSeries& series,
                 std::uint64_t seed, Tracer& tracer, Report& report);
/// Metrics read from obs::metrics() at the end of a traced run.
void report_registry_layers(Report& report);

/// Trace overhead: share of the untraced rate lost when traced.
void report_overhead(Report& report, double untraced_rate, double traced_rate);

/// Series cut to ticks [from, from + n) (clamped).
desmine::core::MultivariateSeries cut(
    const desmine::core::MultivariateSeries& series, std::size_t from,
    std::size_t n);

}  // namespace perfbench
