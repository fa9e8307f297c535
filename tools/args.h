// Shared `--option` parser for the desmine tools.
//
// Accepts "--key value" and "--key=value"; boolean flags take no value
// ("--flag", or "--flag=false" to spell out the default). Each tool declares
// the options it knows, so a typo or a removed option is a usage error
// (PreconditionError, exit 2 in every tool) instead of being silently
// ignored. number() rejects values that are not a whole finite number, and
// integer() also fractional or out-of-range ones. Knob flags come from the
// knob table (with_knob_flags) and are read by io::load_run_config.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/config_flags.h"
#include "util/error.h"

namespace desmine::tools {

/// The options one tool understands, without their leading "--".
struct OptionSpec {
  std::set<std::string> values;  ///< options that take a value
  std::set<std::string> flags;   ///< boolean options; present means true
};

/// `spec` plus the flags of every knob under `sections`.
inline OptionSpec with_knob_flags(
    OptionSpec spec, std::initializer_list<std::string_view> sections) {
  for (const io::KnobFlag& f : io::knob_flags(sections)) {
    (f.is_switch ? spec.flags : spec.values).insert(f.name);
  }
  return spec;
}

/// One usage line per knob flag under `sections`: the flag, its default
/// as --dump-config prints it, and the config key it sets.
inline std::string knob_usage(
    std::initializer_list<std::string_view> sections) {
  std::string out;
  for (const io::KnobFlag& f : io::knob_flags(sections)) {
    std::string line = "  --" + f.name + " " + f.default_value;
    line.resize(std::max<std::size_t>(line.size() + 2, 34), ' ');
    out += line + f.key + "\n";
  }
  return out;
}

/// Longest period, in seconds, a tool waits between repeated actions
/// (--metrics-interval-s, --interval-s): converting a longer double period
/// to the clock's integer ticks could overflow.
inline constexpr double kMaxIntervalS = 86400.0;

/// Largest bound integer() accepts: doubles hold whole numbers exactly
/// up to 2^53.
inline constexpr std::uint64_t kMaxInteger = std::uint64_t{1} << 53;

class Args {
 public:
  /// Parse argv[first..argc). Throws PreconditionError on a positional
  /// argument, an unknown option, or a value option missing its value.
  Args(int argc, char** argv, int first, const OptionSpec& spec) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw PreconditionError("expected --option, got '" + key + "'");
      }
      key = key.substr(2);
      std::string value;
      bool inline_value = false;
      if (const auto eq = key.find('='); eq != std::string::npos) {
        value = key.substr(eq + 1);
        key.resize(eq);
        inline_value = true;
      }
      const bool is_flag = spec.flags.count(key) != 0;
      if (!is_flag && spec.values.count(key) == 0) {
        throw PreconditionError("unknown option --" + key);
      }
      if (!inline_value) {
        if (is_flag) {
          value = "true";
        } else if (i + 1 >= argc) {
          throw PreconditionError("missing value for --" + key);
        } else {
          value = argv[++i];
        }
      }
      values_[key] = std::move(value);
    }
  }

  std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw PreconditionError("missing required option --" + key);
    }
    return it->second;
  }

  std::string get_or(const std::string& key,
                     const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(text, &used);
    } catch (const std::logic_error&) {
      used = 0;  // invalid_argument / out_of_range: reported below
    }
    if (used == 0 || used != text.size() || !std::isfinite(v)) {
      throw PreconditionError("--" + key + " expects a number, got '" + text +
                              "'");
    }
    return v;
  }

  /// A whole number in [lo, hi], or `fallback` when absent (unchecked).
  std::uint64_t integer(const std::string& key, std::uint64_t fallback,
                        std::uint64_t lo = 0,
                        std::uint64_t hi = kMaxInteger) const {
    if (values_.count(key) == 0) return fallback;
    const double v = number(key, 0.0);
    if (v != std::floor(v) || v < static_cast<double>(lo) ||
        v > static_cast<double>(hi)) {
      throw PreconditionError("--" + key + " expects an integer in [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "], got '" + values_.at(key) + "'");
    }
    return static_cast<std::uint64_t>(v);
  }

  bool flag(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() && it->second != "false" && it->second != "0";
  }

  /// Every option given, by name: the input of io::load_run_config.
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace desmine::tools
