// Multi-session streaming detection engine (DESIGN.md §11, §13).
//
// SessionManager is the serving layer's front door: it owns N independent
// detection sessions, the generation-counted ModelRegistry, the
// cross-session BatchScheduler, and the worker pool that drains it. One
// trained artifact (MvrGraph + SensorEncrypter + WindowConfig — exactly
// what io::load_framework restores) serves any number of concurrent
// streams; per-session strict/degraded semantics are chosen at open().
// Ingest is thread-safe per session and across sessions; a flooding session
// exhausts only its own pending-window budget (SessionLimits) and never
// stalls or degrades its neighbours.
//
// Fault tolerance (DESIGN.md §13):
//  * reload(path) hot-swaps a retrained artifact: the new generation is
//    CRC-verified and validated off the worker threads, published
//    atomically, and in-flight windows finish on the generation they were
//    ingested under. The old generation's models free themselves when the
//    last reference drains (registry().retired_live() observes this).
//  * Worker supervision + per-edge circuit breakers live in the scheduler;
//    sessions deliver failed edges as typed results, never severed streams.
//  * Admission control: `max_global_pending` caps scheduled windows across
//    ALL sessions on top of the per-session budget (soft bound — racing
//    ingests may briefly overshoot by the number of ingesting threads),
//    and `max_queue_delay_ms` sheds stale windows oldest-first without
//    ever starving a session (SessionLimits::max_consecutive_shed).
//
// Reported metrics: everything from PR 5/6 plus serve.model.generation
// (gauge), serve.reload.{count,failures}, serve.shed.windows,
// serve.shed.global_rejects, serve.window.failed_edges, serve.batch.failures,
// and serve.circuit.{opened,closed,probes,quarantined} (counters), plus the
// serve.shed.age_ms histogram. Shed windows are excluded from
// serve.window.latency_ms, so its p99 tracks accepted windows only.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/anomaly.h"
#include "core/encryption.h"
#include "core/language.h"
#include "core/mvr_graph.h"
#include "serve/batch_scheduler.h"
#include "serve/model_registry.h"
#include "serve/session.h"
#include "serve/shadow_scorer.h"
#include "util/thread_pool.h"

namespace desmine::serve {

struct ServeConfig {
  /// Valid band, tolerance, quorum, and BLEU options — the same knobs an
  /// AnomalyDetector takes (DetectorConfig::threads is ignored; the serving
  /// layer's `workers` pool replaces it).
  core::DetectorConfig detector{};
  /// Scoring worker threads (0 = hardware concurrency).
  std::size_t workers = 0;
  /// Max sentence-windows one batched decode may stack per edge.
  std::size_t max_batch = 32;
  /// Per-edge source->translation cache entries (0 disables). Periodic
  /// discrete streams repeat sentences heavily; caching turns repeat
  /// windows into pure BLEU evaluations, bit-identically. Small, so a busy
  /// edge fills it within seconds and its hit ratio stops climbing with uptime.
  std::size_t decode_cache = 256;
  /// Per-session flow control (pending-window budget + block/reject +
  /// consecutive-shed guard).
  SessionLimits limits{};

  // --- Fault tolerance (DESIGN.md §13) ---
  /// Global in-flight budget: windows scheduled for scoring across all
  /// sessions (0 = unlimited). Full-budget policy follows
  /// limits.reject_when_full (block vs reject the tick).
  std::size_t max_global_pending = 0;
  /// Shed sheddable windows older than this at item-pop time instead of
  /// scoring them late (0 disables shedding).
  double max_queue_delay_ms = 0.0;
  /// Consecutive failed batches before an edge's circuit breaker opens
  /// (0 disables the breaker; failures still yield typed error results).
  std::size_t circuit_open_after = 5;
  /// Quarantined items before an open breaker goes half-open and probes.
  std::size_t circuit_probe_after = 16;

  // --- Telemetry plane (DESIGN.md §12) ---
  /// Loopback port for the /metrics + /healthz + /statusz exposition
  /// (0 = off). The listener itself is mounted by the serving tool; the
  /// knob lives here so config files carry it.
  std::size_t telemetry_port = 0;
  /// Windows slower than this (end-to-end ms) emit their span tree as a
  /// warn-level JSON-lines record (0 = off).
  double slow_window_ms = 0.0;
  /// Shape of the sliding-window quantiles on /metrics: total window in
  /// seconds and the number of ring epochs it is divided into.
  double sliding_window_s = 60.0;
  std::size_t sliding_epochs = 6;

  // --- Mapped model store (DESIGN.md §15) ---
  /// Byte budget for materialized edge decode state when serving a mapped
  /// (v4) artifact (0 = unlimited). LRU edges evict past the budget;
  /// in-flight scorers are never interrupted. Ignored for heap generations.
  std::uint64_t resident_bytes = 0;
  /// Cap on concurrently materialized mapped edges (0 = unlimited).
  std::size_t resident_edges = 0;

  // --- Continual mining lifecycle (DESIGN.md §14) ---
  /// Shadow-promotion gate for begin_shadow()/promote() candidates.
  ShadowConfig shadow{};
};

class SessionManager {
 public:
  /// `graph` must carry trained models on its valid-band edges; `encrypter`
  /// and `window` must be the ones the graph was mined with (the trio an
  /// io::load_framework artifact restores).
  SessionManager(const core::MvrGraph& graph, core::SensorEncrypter encrypter,
                 core::WindowConfig window, ServeConfig config = {});

  /// Serve straight from a saved (v4) artifact, opened via io::ArtifactMap:
  /// the encrypter, window config and edge TOC come from O(header + TOC)
  /// work, weights stay on disk and edges materialize lazily under the
  /// residency budget (config.resident_bytes/resident_edges). Scoring is
  /// bit-identical to the in-memory-graph constructor. Throws
  /// io::ArtifactError on a corrupt artifact or any other version, and
  /// RuntimeError on an unreadable one.
  explicit SessionManager(const std::string& artifact_path,
                          ServeConfig config = {});

  /// Stops workers after draining every queued score; results never polled
  /// are discarded.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Open a new detection session; returns its id. Strict by default, or
  /// degraded-mode health tracking per `degraded`.
  std::uint64_t open(core::DegradedConfig degraded = {});

  /// Feed one tick into `session`. Thread-safe; see Session::ingest for the
  /// backpressure contract. Throws PreconditionError for unknown ids.
  IngestStatus ingest(std::uint64_t session,
                      const std::map<std::string, std::string>& states);

  /// Next completed window of `session`, in window order.
  std::optional<WindowResult> poll(std::uint64_t session);

  /// Refuse further ticks on `session`; in-flight windows still complete.
  void close(std::uint64_t session);

  /// Block until `session` has no window awaiting scoring.
  void drain(std::uint64_t session);
  /// Block until no session has a window awaiting scoring.
  void drain();

  /// Close, drain, and forget `session` (unpolled results are dropped).
  void erase(std::uint64_t session);

  /// Hot-swap the served models from a saved (v4) artifact (every edge
  /// CRC-verified before the swap; the artifact must carry the same kept sensors and window
  /// config this manager was built with). In-flight windows finish on their
  /// old generation; windows ingested after the swap score on the new one.
  /// Returns the new generation id. Throws (RuntimeError/PreconditionError)
  /// and leaves the old generation serving on any failure. Serialized:
  /// concurrent reloads run one at a time. Call from a control thread, not
  /// a scoring worker.
  std::uint64_t reload(const std::string& path);

  // --- Shadow-gated promotion (DESIGN.md §14) ---

  /// Arm a candidate generation from a saved artifact (same CRC and
  /// compatibility validations as reload()). The candidate shadow-scores a
  /// sampled slice of live windows per config().shadow with no client-
  /// visible effect; serving stays entirely on the active generation.
  /// Replaces any previously armed candidate. Returns the id the candidate
  /// will publish under if promoted (current generation + 1). Throws and
  /// leaves shadow state unchanged on a corrupt or incompatible artifact.
  std::uint64_t begin_shadow(const std::string& path);

  /// Promote the armed candidate into serving via the hot-reload path.
  /// Requires the shadow gate to pass and the candidate to still be the
  /// next generation (an interleaved reload() stales it). Throws
  /// PreconditionError (gate/staleness) and leaves serving untouched on
  /// failure. In-flight windows finish on their old generation.
  std::uint64_t promote();

  /// Discard the armed candidate. Serving is untouched — the active
  /// generation remains bit-identical. Returns the discarded candidate's
  /// artifact path. Throws PreconditionError when no candidate is armed.
  std::string rollback();

  /// Gate progress of the armed candidate; nullopt when none is armed.
  std::optional<ShadowScorer::Status> shadow_status() const;

  /// True when a candidate is armed and its gate currently passes.
  bool shadow_gate_passed() const;

  /// Why the last reload() failed; empty after a success (or when none
  /// failed yet). Exposed on /statusz and the stats op so operators see
  /// reload failures without scraping logs.
  std::string last_reload_error() const;

  Session::Stats stats(std::uint64_t session) const;
  std::size_t session_count() const;
  std::size_t valid_model_count() const {
    return registry_->current()->edges.size();
  }
  /// Current model generation id (1 until the first successful reload).
  std::uint64_t generation() const { return registry_->generation(); }
  /// The registry, for generation/refcount introspection (tests, tools).
  const ModelRegistry& registry() const { return *registry_; }
  const ServeConfig& config() const { return config_; }
  const core::SensorEncrypter& encrypter() const { return encrypter_; }

  /// Seconds since this manager came up (/statusz and the stats op).
  double uptime_s() const;

 private:
  std::shared_ptr<Session> find(std::uint64_t session) const;

  /// Shared tail of both constructors: validates config_, registers the
  /// telemetry instruments, and brings up the scheduler + worker pool.
  /// Requires encrypter_/window_/registry_ to be set.
  void start();

  /// Load + validate a candidate/reload artifact (CRC, kept sensors,
  /// window config) and build the next, mapped generation. Caller holds
  /// reload_mu_.
  std::shared_ptr<const ModelGeneration> load_generation_locked(
      const std::string& path);

  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  ServeConfig config_;
  core::SensorEncrypter encrypter_;
  core::WindowConfig window_;

  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<BatchScheduler> scheduler_;
  std::unique_ptr<util::ThreadPool> pool_;

  /// Serializes reload()/begin_shadow()/promote()/rollback(); never held
  /// while scoring.
  std::mutex reload_mu_;

  /// Guards shadow_ and last_reload_error_. Leaf lock: never held while
  /// calling into the scorer, registry, or scheduler.
  mutable std::mutex shadow_mu_;
  std::shared_ptr<ShadowScorer> shadow_;
  std::string last_reload_error_;

  /// Global admission control (soft budget, see class comment).
  std::mutex global_mu_;
  std::condition_variable global_cv_;
  std::size_t global_inflight_ = 0;

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_id_ = 1;
};

}  // namespace desmine::serve
