// The tool side of the run configuration: a tool's knob flags, and its
// effective config from --config FILE plus those flags.
//
// Each row of the knob table (config_json.cpp) may name the tool flag that
// overrides its key. A tool adds knob_flags to its option list and hands
// the parsed values to load_run_config, which checks each one exactly like
// the config key it sets. Tool-facing: the umbrella header leaves it out.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "io/config_json.h"

namespace desmine::io {

/// Tool flag values by flag name without the leading "--".
using FlagValues = std::map<std::string, std::string>;

/// A tool run's effective config: the JSON file at `path` (defaults when
/// empty; over 1 MiB is refused), then each knob flag in `flags` (other
/// entries are ignored), then the checks that span keys (valid_lo <=
/// valid_hi, ...), once, on the merge. Errors are PreconditionErrors that
/// name the dotted key, and the file or the flag.
RunConfig load_run_config(const std::string& path,
                          const FlagValues& flags = {});

/// A knob's tool flag: the name without "--", and whether it is a switch
/// (a boolean knob, given without a value).
struct KnobFlag {
  std::string name;
  bool is_switch = false;
  std::string key;            ///< the dotted config key it sets
  std::string default_value;  ///< as --dump-config prints the default
};

/// The flags of every knob under the given top-level sections ("serve",
/// "health", ...), for a tool's option list.
std::vector<KnobFlag> knob_flags(
    std::initializer_list<std::string_view> sections);

}  // namespace desmine::io
