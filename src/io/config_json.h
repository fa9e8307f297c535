// The run configuration: JSON config files, --dump-config and tool flags.
//
// RunConfig bundles everything a tool run is parameterised by: the
// FrameworkConfig (window / miner / detector), the degraded-mode
// HealthConfig, the serving-layer ServeConfig, the continual-mining
// LifecycleConfig (DESIGN.md §14) and the kernel backend. Each of its 79
// knobs is declared once, in the knob table in config_json.cpp: dotted key,
// field, kind and range, and the tool flag that overrides it, if any.
// Emission, parsing and flag overrides (io/config_flags.h) all walk that
// table, so a flag value is checked exactly like the key it sets. Unknown keys and out-of-range
// values throw PreconditionError naming the dotted key (and the flag, for a
// flag value); absent keys keep their defaults, so partial files work.
// Emission prints integers exactly and floats/doubles in shortest
// round-trip form: re-reading any dump reproduces it byte for byte.
//
// Deliberately NOT covered: callback hooks (MinerConfig::on_pair,
// should_abort), ServeConfig::detector and ServeConfig::shadow (mirrored
// from the detector section and lifecycle.shadow after every parse), and
// RetrainConfig::seed (a test determinism knob, not an operator-facing one).
#pragma once

#include <string>
#include <string_view>

#include "core/framework.h"
#include "lifecycle/controller.h"
#include "robust/sensor_health.h"
#include "serve/session_manager.h"

namespace desmine::io {

struct RunConfig {
  core::FrameworkConfig framework{};
  robust::HealthConfig health{};
  /// serve.detector is kept mirrored from framework.detector rather than
  /// serialized separately; serve.shadow is mirrored from lifecycle.shadow.
  serve::ServeConfig serve{};
  lifecycle::LifecycleConfig lifecycle{};
  /// Compute-kernel backend, key `tensor.kernels`: auto | scalar | avx2
  /// (DESIGN.md §16). Parsing validates the name only; availability (e.g.
  /// avx2 on a non-AVX2 CPU) is checked when a tool applies the choice via
  /// tensor::kernels::select_backend, so a config file written on one
  /// machine still parses on another.
  std::string kernels = "auto";
};

/// Pretty-printed JSON document covering every RunConfig knob.
std::string run_config_to_json(const RunConfig& config);

/// Parse a config document produced by run_config_to_json (or any subset of
/// it). Throws PreconditionError naming the dotted key for unknown
/// keys, type mismatches, and out-of-range values; RuntimeError for
/// malformed JSON.
RunConfig run_config_from_json(std::string_view text);

}  // namespace desmine::io
