#include "data/plant.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace desmine::data {

namespace {

/// Square-ish multi-level wave: cycles through `levels` states over `period`
/// minutes, holding each state for period/levels minutes.
std::size_t wave_level(std::size_t t, std::size_t period, std::size_t phase,
                       std::size_t levels) {
  const std::size_t pos = (t + phase) % period;
  return pos * levels / period;
}

std::string binary_state(bool on) { return on ? "ON" : "OFF"; }

std::string level_state(std::size_t level) {
  return "status " + std::to_string(level + 1);
}

}  // namespace

core::MultivariateSeries PlantDataset::days_slice(std::size_t first_day,
                                                  std::size_t day_count) const {
  return core::slice(series, first_day * minutes_per_day,
                     (first_day + day_count) * minutes_per_day);
}

bool PlantDataset::is_anomalous_day(std::size_t day) const {
  for (const PlantAnomaly& a : anomalies) {
    if (a.day == day) return true;
  }
  return false;
}

PlantDataset generate_plant(const PlantConfig& config) {
  DESMINE_EXPECTS(config.num_components > 0, "need at least one component");
  DESMINE_EXPECTS(config.days > 0 && config.minutes_per_day > 0,
                  "horizon must be positive");
  for (const PlantAnomaly& a : config.anomalies) {
    DESMINE_EXPECTS(a.day < config.days, "anomaly day beyond horizon");
    for (std::size_t c : a.components) {
      DESMINE_EXPECTS(c < config.num_components, "anomalous component range");
    }
  }
  for (const PlantDrift& d : config.drifts) {
    DESMINE_EXPECTS(d.start_day < config.days, "drift start beyond horizon");
    DESMINE_EXPECTS(d.ramp_days > 0, "drift ramp must span at least one day");
    DESMINE_EXPECTS(d.phase_fraction >= 0.0 && d.phase_fraction <= 1.0,
                    "drift phase_fraction outside [0, 1]");
    for (std::size_t c : d.components) {
      DESMINE_EXPECTS(c < config.num_components, "drifting component range");
    }
  }

  util::Rng rng(config.seed);
  const std::size_t total_minutes = config.days * config.minutes_per_day;

  PlantDataset dataset;
  dataset.minutes_per_day = config.minutes_per_day;
  dataset.days = config.days;
  dataset.anomalies = config.anomalies;
  dataset.drifts = config.drifts;

  // --- Disturbance schedule -------------------------------------------------
  // disturbance[c][t] in {0 = none, 1 = mild precursor, 2 = full anomaly}.
  // Component id num_components is used for the popular (global-mode)
  // sensors, which are only disturbed by system-wide anomalies.
  const std::size_t channels = config.num_components + 1;
  std::vector<std::vector<std::uint8_t>> disturbance(
      channels, std::vector<std::uint8_t>(total_minutes, 0));
  auto mark = [&](std::size_t channel, std::size_t from, std::size_t to,
                  std::uint8_t level) {
    for (std::size_t t = from; t < std::min(to, total_minutes); ++t) {
      disturbance[channel][t] = std::max(disturbance[channel][t], level);
    }
  };
  for (const PlantAnomaly& anomaly : config.anomalies) {
    std::vector<std::size_t> targets = anomaly.components;
    const bool system_wide = targets.empty();
    if (system_wide) {
      for (std::size_t c = 0; c < channels; ++c) targets.push_back(c);
    }
    const std::size_t day_start = anomaly.day * config.minutes_per_day;
    for (std::size_t c : targets) {
      mark(c, day_start, day_start + config.minutes_per_day, 2);
      if (config.precursors && anomaly.day > 0) {
        // Mild disturbance over the last quarter of the preceding day —
        // the paper's domain experts confirmed such spikes as early signs.
        const std::size_t pre_len = config.minutes_per_day / 4;
        mark(c, day_start - pre_len, day_start, 1);
      }
    }
  }

  // --- Component sensors ----------------------------------------------------
  for (std::size_t c = 0; c < config.num_components; ++c) {
    // Periods repeat across components so some cross-component pairs share
    // dynamics (mid BLEU bands) while others are unrelated (low bands).
    static constexpr std::size_t kBasePeriods[] = {60, 90, 60, 150, 120, 90};
    const std::size_t period = kBasePeriods[c % 6];
    const std::size_t phase = 7 * c;
    const bool multilevel = (c % 16 == 4);
    const std::size_t driver_levels = multilevel ? 7 : 2;

    // Drifts that apply to this component (empty target list = all).
    std::vector<const PlantDrift*> component_drifts;
    for (const PlantDrift& d : config.drifts) {
      const bool applies =
          d.components.empty() ||
          std::find(d.components.begin(), d.components.end(), c) !=
              d.components.end();
      if (applies) component_drifts.push_back(&d);
    }

    for (std::size_t s = 0; s < config.sensors_per_component; ++s) {
      core::SensorSeries sensor;
      sensor.name =
          util::concat("c", std::to_string(c), ".s", std::to_string(s));
      sensor.events.reserve(total_minutes);

      const std::size_t delay = 3 * s;
      const bool inverted = (s % 2 == 1);
      // Multi-level drivers feed sensors of differing cardinality (3..7),
      // matching the paper's cardinality tail (Fig. 3a).
      const std::size_t cardinality =
          multilevel ? std::min<std::size_t>(3 + 2 * s, 7) : 2;
      util::Rng noise_rng = rng.fork(1000 + c * 64 + s);

      for (std::size_t t = 0; t < total_minutes; ++t) {
        const std::uint8_t dist = disturbance[c][t];
        std::size_t eff_phase = phase;
        double noise = config.noise;
        if (dist == 1) {
          // Precursor: mild common slip plus a small per-sensor drift.
          eff_phase = phase + period / 4 + s * period / 16;
          noise = config.noise * 4;
        } else if (dist == 2) {
          // Full anomaly: the component's sensors desynchronize — each
          // slips by a *different* amount, so pairwise relationships break
          // (a common shift alone would preserve them).
          eff_phase = phase + period / 2 + s * period / 5;
          noise = std::min(0.25, config.noise * 20);
        }
        // Slow migration: a monotone ramp shifts this sensor's phase and
        // delay by a sensor-dependent amount. Purely deterministic — the
        // noise RNG stream is untouched, so a drift-free configuration stays
        // bit-identical and a drifted run differs from its undrifted twin
        // only where the migration moved a state boundary.
        std::size_t drift_phase = 0;
        std::size_t drift_delay = 0;
        for (const PlantDrift* d : component_drifts) {
          const std::size_t start = d->start_day * config.minutes_per_day;
          if (t < start) continue;
          const double ramp =
              static_cast<double>(d->ramp_days * config.minutes_per_day);
          const double level_frac =
              std::min(1.0, static_cast<double>(t - start) / ramp);
          drift_phase += static_cast<std::size_t>(std::llround(
              level_frac * d->phase_fraction * static_cast<double>(period) *
              static_cast<double>(s + 1) /
              static_cast<double>(config.sensors_per_component)));
          drift_delay += static_cast<std::size_t>(std::llround(
              level_frac * static_cast<double>(d->delay_step * s)));
        }
        const std::size_t eff_delay = delay + drift_delay;
        std::size_t level =
            wave_level(t >= eff_delay ? t - eff_delay : 0, period,
                       eff_phase + drift_phase, driver_levels);
        // Quantize the driver level to this sensor's cardinality.
        std::size_t state = level * cardinality / driver_levels;
        if (noise_rng.bernoulli(noise)) {
          state = noise_rng.index(cardinality);
        }
        if (cardinality == 2) {
          const bool on = (state == 1) != inverted;
          sensor.events.push_back(binary_state(on));
        } else {
          sensor.events.push_back(level_state(state));
        }
      }
      dataset.component_of[sensor.name] = c;
      dataset.series.push_back(std::move(sensor));
    }
  }

  // --- Popular (global-mode) sensors ----------------------------------------
  // Strictly periodic, noise-free and *slow* (period 480): nearly every
  // sentence window of a mode sensor is constant, so its language is
  // predictable from any source and every sensor translates into it with a
  // high score — these become the high in-degree popular sensors of the
  // MVRG (Fig. 5/6), exactly the stability mechanism behind the paper's
  // popular sensors.
  for (std::size_t p = 0; p < config.num_popular; ++p) {
    core::SensorSeries sensor;
    sensor.name = "mode.s" + std::to_string(p);
    sensor.events.reserve(total_minutes);
    const std::size_t period = config.popular_period;
    const std::size_t phase = 11 * p;
    for (std::size_t t = 0; t < total_minutes; ++t) {
      if (disturbance[config.num_components][t] == 2) {
        sensor.events.push_back(binary_state(false));  // stuck during anomaly
      } else {
        sensor.events.push_back(
            binary_state(wave_level(t, period, phase, 2) == 1));
      }
    }
    dataset.popular_names.push_back(sensor.name);
    dataset.series.push_back(std::move(sensor));
  }

  // --- Lazy sensors -----------------------------------------------------------
  // Mostly OFF with occasional short ON bursts: trivially translatable, they
  // populate the [90,100] band the paper shows to be useless for detection.
  for (std::size_t z = 0; z < config.num_lazy; ++z) {
    core::SensorSeries sensor;
    sensor.name = "lazy.s" + std::to_string(z);
    sensor.events.assign(total_minutes, binary_state(false));
    util::Rng blip_rng = rng.fork(5000 + z);
    for (std::size_t day = 0; day < config.days; ++day) {
      const std::size_t bursts = blip_rng.index(2);  // 0..1 bursts per day
      for (std::size_t b = 0; b < bursts; ++b) {
        // Single-minute blips keep the lazy language's vocabulary tiny
        // (11 words at word length 10), matching the paper's ~40% of
        // sensors with vocabulary < 13 (Fig. 3b).
        const std::size_t start = day * config.minutes_per_day +
                                  blip_rng.index(config.minutes_per_day);
        if (start < total_minutes) {
          sensor.events[start] = binary_state(true);
        }
      }
    }
    dataset.lazy_names.push_back(sensor.name);
    dataset.series.push_back(std::move(sensor));
  }

  // --- Constant sensors (dropped by sequence filtering) -----------------------
  for (std::size_t k = 0; k < config.num_constant; ++k) {
    core::SensorSeries sensor;
    sensor.name = "const.s" + std::to_string(k);
    sensor.events.assign(total_minutes, binary_state(false));
    dataset.constant_names.push_back(sensor.name);
    dataset.series.push_back(std::move(sensor));
  }

  return dataset;
}

}  // namespace desmine::data
