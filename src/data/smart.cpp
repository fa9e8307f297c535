#include "data/smart.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace desmine::data {

const std::vector<SmartFeatureSpec>& smart_feature_catalog() {
  // id, name, cumulative, error_counter, near_constant
  static const std::vector<SmartFeatureSpec> kCatalog = {
      {1, "Read Error Rate", false, false, false},
      {4, "Start/Stop Count", true, false, false},
      {5, "Reallocated Sectors Count", true, true, false},
      {7, "Seek Error Rate", false, false, false},
      {9, "Power-On Hours", true, false, false},
      {10, "Spin Retry Count", true, false, true},
      {12, "Power Cycle Count", true, false, false},
      {183, "SATA Downshift Error Count", true, false, true},
      {184, "End-to-End Error", true, false, true},
      {187, "Reported Uncorrectable Errors", true, true, false},
      {188, "Command Timeout", true, true, false},
      {189, "High Fly Writes", true, false, false},
      {190, "Airflow Temperature", false, false, false},
      {192, "Power-off Retract Count", true, true, false},
      {193, "Load Cycle Count", true, false, false},
      {194, "Temperature Celsius", false, false, false},
      {197, "Current Pending Sector Count", false, true, false},
      {198, "Offline Uncorrectable Sector Count", false, true, false},
      {199, "UltraDMA CRC Error Count", true, false, true},
      {241, "Total LBAs Written", true, false, false},
  };
  return kCatalog;
}

std::size_t DriveRecord::observed_days() const {
  return values.empty() ? 0 : values.begin()->second.size();
}

const SmartFeatureSpec& SmartDataset::feature(int id) const {
  for (const SmartFeatureSpec& f : features) {
    if (f.id == id) return f;
  }
  throw PreconditionError("unknown SMART feature id " + std::to_string(id));
}

SmartDataset generate_smart(const SmartConfig& config) {
  DESMINE_EXPECTS(config.num_drives > 0 && config.days > 0, "empty dataset");
  DESMINE_EXPECTS(config.failure_window_days <= config.days,
                  "failure window exceeds horizon");

  SmartDataset dataset;
  dataset.features = smart_feature_catalog();
  dataset.config = config;

  util::Rng rng(config.seed);
  const auto num_failed = static_cast<std::size_t>(
      std::round(config.failure_fraction *
                 static_cast<double>(config.num_drives)));

  for (std::size_t d = 0; d < config.num_drives; ++d) {
    DriveRecord drive;
    drive.serial = util::concat("Z", std::to_string(100000 + d));
    drive.failed = d < num_failed;
    util::Rng drv = rng.fork(d);
    drive.abrupt =
        drive.failed && drv.bernoulli(config.abrupt_failure_fraction);

    const std::size_t observed =
        drive.failed
            ? config.days - config.failure_window_days +
                  drv.index(config.failure_window_days) + 1
            : config.days;
    drive.failure_day = drive.failed ? observed - 1 : config.days;

    // Per-drive personality.
    const double activity = drv.uniform(50.0, 400.0);    // GB/day-ish
    const double base_temp = drv.uniform(24.0, 34.0);
    const double age_hours = drv.uniform(8000.0, 30000.0);
    const std::size_t degradation_start =
        (drive.failed && !drive.abrupt)
            ? (drive.failure_day >= config.degradation_days
                   ? drive.failure_day - config.degradation_days
                   : 0)
            : observed;  // never reached for healthy or abrupt-failure drives

    // Cumulative counter states. Error counters start fresh (0) so their
    // healthy languages are the zero-inflated kind the paper's Table III
    // features exhibit; 189 (high-fly writes) instead accumulates benign
    // activity-driven counts, making it a *busy* non-failure feature.
    double c5 = 0, c187 = 0, c188 = 0, c192 = 0,
           c189 = drv.uniform(1.0, 50.0);
    double c4 = drv.index(50), c12 = drv.index(40),
           c193 = drv.uniform(100, 5000), c241 = drv.uniform(1e3, 5e4);
    double pending = 0;  // 197 gauge
    double offline_uncorrectable = 0;  // 198 gauge

    auto& v = drive.values;
    for (const SmartFeatureSpec& f : dataset.features) {
      v[f.id].reserve(observed);
    }

    for (std::size_t day = 0; day < observed; ++day) {
      const bool degrading = drive.failed && day >= degradation_start;
      // Severity ramps 0 -> 1 across the degradation window.
      const double severity =
          degrading ? (static_cast<double>(day - degradation_start) + 1.0) /
                          static_cast<double>(config.degradation_days)
                    : 0.0;

      // --- error-counter dynamics (Table III features) ---
      if (degrading) {
        // Moderate ramps: strong enough to shift the discretized language,
        // subtle enough that supervised baselines stay below 100% recall.
        pending += drv.uniform(0, 2.5 * severity);
        c5 += drv.uniform(0, 1.2 * severity);       // remapped sectors
        c187 += drv.uniform(0, 1.5 * severity);     // uncorrectable reads
        if (drv.bernoulli(0.15 * severity)) c188 += 1;
        if (drv.bernoulli(0.3 * severity)) c192 += 1 + drv.index(2);
      } else {
        // Rare benign hiccups on healthy days (so no error counter is
        // constant over the training months, but all stay zero-inflated).
        if (drv.bernoulli(0.01)) pending += 1;
        if (drv.bernoulli(0.005)) c5 += 1;
        if (drv.bernoulli(0.003)) c187 += 1;
        if (drv.bernoulli(0.003)) c192 += 1;
        if (drv.bernoulli(0.004)) c188 += 1;
        if (pending > 0 && drv.bernoulli(0.3)) pending -= 1;  // remapped away
      }
      if (degrading) {
        offline_uncorrectable += drv.uniform(0, 2.0 * severity);
      } else if (drv.bernoulli(0.006)) {
        offline_uncorrectable += 1;
      } else if (offline_uncorrectable > 0 && drv.bernoulli(0.4)) {
        offline_uncorrectable -= 1;
      }

      // --- activity / environment ---
      const double day_activity =
          activity * (1.0 + 0.2 * std::sin(static_cast<double>(day) / 7.0)) *
          drv.uniform(0.7, 1.3);
      c241 += day_activity;
      c4 += drv.bernoulli(0.05) ? 1 : 0;
      c12 += drv.bernoulli(0.03) ? 1 : 0;
      c193 += drv.uniform(5, 40);
      c189 += drv.uniform(0.0, 2.0);  // benign, activity-like growth
      const double temp = base_temp +
                          3.0 * std::sin(static_cast<double>(day) / 11.0) +
                          drv.normal(0, 0.8) + 1.5 * severity;

      v[1].push_back(std::floor(drv.uniform(0, 100)));
      v[4].push_back(c4);
      v[5].push_back(std::floor(c5));
      v[7].push_back(std::floor(drv.uniform(0, 60)));
      v[9].push_back(age_hours + 24.0 * static_cast<double>(day));
      v[10].push_back(0.0);
      v[12].push_back(c12);
      v[183].push_back(0.0);
      v[184].push_back(0.0);
      v[187].push_back(std::floor(c187));
      v[188].push_back(c188);
      v[189].push_back(std::floor(c189));
      v[190].push_back(std::round(temp));
      v[192].push_back(c192);
      v[193].push_back(std::floor(c193));
      v[194].push_back(std::round(temp + drv.normal(0, 0.5)));
      v[197].push_back(std::floor(pending));
      v[198].push_back(std::floor(offline_uncorrectable));
      v[199].push_back(0.0);
      v[241].push_back(std::floor(c241));
    }
    dataset.drives.push_back(std::move(drive));
  }
  return dataset;
}

LabeledMatrix to_labeled_matrix(const SmartDataset& dataset) {
  LabeledMatrix out;
  for (const SmartFeatureSpec& f : dataset.features) {
    out.column_names.push_back("smart_" + std::to_string(f.id) + "_raw");
  }
  for (const SmartFeatureSpec& f : dataset.features) {
    if (f.cumulative) {
      out.column_names.push_back("smart_" + std::to_string(f.id) + "_diff");
    }
  }

  for (std::size_t d = 0; d < dataset.drives.size(); ++d) {
    const DriveRecord& drive = dataset.drives[d];
    const std::size_t days = drive.observed_days();
    // Pre-compute diffs per cumulative feature.
    std::map<int, std::vector<double>> diffs;
    for (const SmartFeatureSpec& f : dataset.features) {
      if (f.cumulative) {
        diffs[f.id] = core::first_difference(drive.values.at(f.id));
      }
    }
    for (std::size_t day = 0; day < days; ++day) {
      std::vector<double> row;
      row.reserve(out.column_names.size());
      for (const SmartFeatureSpec& f : dataset.features) {
        row.push_back(drive.values.at(f.id)[day]);
      }
      for (const SmartFeatureSpec& f : dataset.features) {
        if (f.cumulative) row.push_back(diffs[f.id][day]);
      }
      out.rows.push_back(std::move(row));
      out.labels.push_back(drive.failed && day == drive.failure_day ? 1 : 0);
      out.drive_of_row.push_back(d);
    }
  }
  return out;
}

std::map<int, core::Discretizer> fit_discretizers(const SmartDataset& dataset,
                                                  std::size_t train_days) {
  std::map<int, core::Discretizer> out;
  for (const SmartFeatureSpec& f : dataset.features) {
    if (f.near_constant) continue;
    std::vector<double> sample;
    for (const DriveRecord& drive : dataset.drives) {
      const auto& vals = drive.values.at(f.id);
      const std::size_t limit = std::min<std::size_t>(train_days, vals.size());
      for (std::size_t day = 0; day < limit; ++day) {
        sample.push_back(vals[day]);
      }
    }
    if (!sample.empty()) {
      out.emplace(f.id, core::Discretizer::fit_auto(sample));
    }
  }
  return out;
}

core::MultivariateSeries drive_to_series(
    const SmartDataset& dataset, const DriveRecord& drive,
    const std::map<int, core::Discretizer>& discretizers) {
  core::MultivariateSeries series;
  for (const SmartFeatureSpec& f : dataset.features) {
    const auto it = discretizers.find(f.id);
    if (it == discretizers.end()) continue;  // near-constant features dropped
    core::SensorSeries sensor;
    sensor.name = "smart_" + std::to_string(f.id);
    sensor.events = it->second.apply(drive.values.at(f.id));
    series.push_back(std::move(sensor));
  }
  return series;
}

}  // namespace desmine::data
