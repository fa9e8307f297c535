// Shared `--option` parser for the desmine tools.
//
// Accepts "--key value" and "--key=value"; boolean flags take no value
// ("--flag", or "--flag=false" to spell out the default). Each tool declares
// the options it knows, so a typo or a removed option is a usage error
// (PreconditionError, exit 2 in every tool) instead of being silently
// ignored. number() rejects values that are not a whole finite number.
#pragma once

#include <cmath>
#include <cstddef>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/error.h"

namespace desmine::tools {

/// The options one tool understands, without their leading "--".
struct OptionSpec {
  std::set<std::string> values;  ///< options that take a value
  std::set<std::string> flags;   ///< boolean options; present means true
};

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

  bool flag(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() && it->second != "false" && it->second != "0";
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace desmine::tools
