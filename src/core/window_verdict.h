// The per-window verdict of Algorithm 2, shared by every scorer.
//
// Batch detection (AnomalyDetector::detect), serving (Session::finalize)
// and both sides of shadow scoring (ShadowScorer::capture / observe) count
// a window's edges through WindowTally, so one window gets bit-identical
// results on every path and the degraded-mode quorum (DESIGN.md §8) is
// applied the same way everywhere.
#pragma once

#include <cstddef>

#include "core/anomaly.h"

namespace desmine::core {

/// One window's verdict under Algorithm 2 plus the degraded-mode quorum.
struct WindowVerdict {
  double score = 0.0;     ///< a_t; a placeholder 0.0 when degraded
  double coverage = 0.0;  ///< surviving / total edges (0.0 when total is 0)
  bool degraded = false;  ///< below the quorum: no verdict
};

/// Counts one window's broken and surviving edges and returns its verdict.
class WindowTally {
 public:
  explicit WindowTally(const DetectorConfig& config) : config_(config) {}

  /// Counts a surviving edge with test BLEU `f` and training BLEU `s`.
  /// Returns true when the edge is broken: f < s - tolerance.
  bool score(double f, double s) {
    ++surviving_;
    const bool broken = f < s - config_.tolerance;
    broken_ += broken;
    return broken;
  }

  /// The verdict over `total` valid edges. Coverage is surviving / total.
  /// When `quorum` applies (a health mask or an edge failure could exclude
  /// edges) and coverage is below min_coverage the window is degraded;
  /// otherwise the score is broken / surviving (0.0 with no survivors).
  WindowVerdict verdict(std::size_t total, bool quorum) const {
    WindowVerdict v;
    v.coverage = total == 0 ? 0.0
                            : static_cast<double>(surviving_) /
                                  static_cast<double>(total);
    if (quorum && v.coverage < config_.min_coverage) {
      v.degraded = true;
    } else {
      v.score = surviving_ == 0 ? 0.0
                                : static_cast<double>(broken_) /
                                      static_cast<double>(surviving_);
    }
    return v;
  }

 private:
  const DetectorConfig& config_;
  std::size_t surviving_ = 0;
  std::size_t broken_ = 0;
};

}  // namespace desmine::core
