// String helpers shared by the language-generation and reporting code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace desmine::util {

/// Split on a single-character delimiter; adjacent delimiters yield empty
/// fields (CSV-style).
std::vector<std::string> split(std::string_view s, char delim);

/// Split on runs of ASCII whitespace; never yields empty tokens.
std::vector<std::string> split_ws(std::string_view s);

/// Join items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Strip leading/trailing ASCII whitespace.
std::string trim(std::string_view s);

/// Render a double with fixed precision (for table output).
std::string fixed(double v, int precision);

/// Concatenate string pieces (std::string, string_view, const char*, char)
/// by appending into one buffer. Prefer it over `"lit" + std::string(...)`,
/// which g++ 12 flags with a false-positive -Wrestrict at -O3.
template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

}  // namespace desmine::util
