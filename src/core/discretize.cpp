#include "core/discretize.h"

#include <algorithm>

#include "util/error.h"
#include "util/stats.h"
#include "util/strings.h"

namespace desmine::core {

DiscretizationScheme Discretizer::choose_scheme(
    const std::vector<double>& train_values, double zero_fraction_threshold) {
  DESMINE_EXPECTS(!train_values.empty(), "cannot choose scheme on no data");
  std::size_t zeros = 0;
  for (double v : train_values) zeros += (v == 0.0) ? 1 : 0;
  const double zero_fraction =
      static_cast<double>(zeros) / static_cast<double>(train_values.size());
  return zero_fraction > zero_fraction_threshold
             ? DiscretizationScheme::kBinary
             : DiscretizationScheme::kQuantile;
}

Discretizer Discretizer::fit(const std::vector<double>& train_values,
                             DiscretizationScheme scheme) {
  DESMINE_EXPECTS(!train_values.empty(), "cannot fit on no data");
  Discretizer d;
  d.scheme_ = scheme;
  if (scheme == DiscretizationScheme::kQuantile) {
    for (double p : {20.0, 40.0, 60.0, 80.0}) {
      d.boundaries_.push_back(util::percentile(train_values, p));
    }
  }
  return d;
}

Discretizer Discretizer::fit_auto(const std::vector<double>& train_values,
                                  double zero_fraction_threshold) {
  return fit(train_values,
             choose_scheme(train_values, zero_fraction_threshold));
}

std::string Discretizer::discretize(double value) const {
  if (scheme_ == DiscretizationScheme::kBinary) {
    return value == 0.0 ? "zero" : "nonzero";
  }
  std::size_t bucket = 0;
  // Boundaries may repeat when the training distribution is lumpy; strict
  // comparison keeps the mapping monotone regardless.
  while (bucket < boundaries_.size() && value > boundaries_[bucket]) ++bucket;
  return util::concat("q", std::to_string(bucket));
}

EventSequence Discretizer::apply(const std::vector<double>& values) const {
  EventSequence out;
  out.reserve(values.size());
  for (double v : values) out.push_back(discretize(v));
  return out;
}

std::vector<double> first_difference(const std::vector<double>& values) {
  std::vector<double> out(values.size(), 0.0);
  for (std::size_t t = 1; t < values.size(); ++t) {
    out[t] = values[t] - values[t - 1];
  }
  return out;
}

}  // namespace desmine::core
