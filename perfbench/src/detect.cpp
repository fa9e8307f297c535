// Workload `detect_batch`: Framework::detect (Algorithm 2, the
// `desmine_cli detect` path) over many test days that include anomaly
// days, one call per day, on kPoolThreads threads over all 72 edges.
// core::AnomalyDetector decodes one sentence at a time with no batching or
// cache; no other workload reaches this layer.
#include <cmath>
#include <optional>

#include "io/serialize.h"
#include "obs/metrics.h"
#include "parts.h"

namespace dc = desmine::core;

namespace perfbench {

namespace {

/// Test days: a sensor-group anomaly every 7th day and a system-wide one
/// every 19th, each preceded by its precursor.
std::vector<dc::MultivariateSeries> test_days(std::uint64_t seed, std::size_t days) {
  auto cfg = plant_config(derive_seed(seed, 4), days);
  for (std::size_t d = 5; d < days; d += 7) cfg.anomalies.push_back({d, {d % 2}});
  for (std::size_t d = 11; d < days; d += 19) cfg.anomalies.push_back({d, {}});
  cfg.precursors = true;
  const auto plant = desmine::data::generate_plant(cfg);
  std::vector<dc::MultivariateSeries> out;
  for (std::size_t d = 0; d < days; ++d) out.push_back(plant.days_slice(d, 1));
  return out;
}

dc::MultivariateSeries concat(const std::vector<dc::MultivariateSeries>& days,
                              std::size_t n) {
  dc::MultivariateSeries out = days.front();
  for (std::size_t d = 1; d < std::min(n, days.size()); ++d) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].events.insert(out[i].events.end(), days[d][i].events.begin(),
                           days[d][i].events.end());
    }
  }
  return out;
}

struct Pass {
  std::vector<std::vector<double>> scores;  ///< per day scored
  std::vector<double> call_ms;
  double rate = 0.0;  ///< median windows/s over eight slices of the pass
};

/// Score days from `first` on, one Framework::detect call each, for
/// `seconds` (or until the days run out).
Pass detect_pass(const dc::Framework& fw, const std::vector<dc::MultivariateSeries>& days,
                 std::size_t first, double seconds, Tracer* tracer) {
  Pass out;
  std::vector<std::pair<double, double>> chunks;
  const auto t0 = Clock::now();
  auto t = t0;
  for (std::size_t d = first; d < days.size() && seconds_between(t0, t) < seconds; ++d) {
    out.scores.push_back(fw.detect(days[d]).anomaly_scores);
    const auto b = Clock::now();
    if (tracer) tracer->add("core.detect.day", t, b, 0, d);
    out.call_ms.push_back(ms_between(t, b));
    chunks.push_back({static_cast<double>(out.scores.back().size()), seconds_between(t, b)});
    t = b;
  }
  out.rate = median_rate(chunks, 8);
  return out;
}

}  // namespace

void run_detect(const Args& args, Report& report) {
  const Paths paths = paths_for(args);
  const dc::FrameworkConfig cfg = framework_config();
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  const std::string artifact = checked_artifact(args, paths, report);
  if (artifact.empty()) return;

  // Distinct days, so no day is scored twice: about twice what the detector that
  // defined the benchmark scores in `seconds`. A faster detector ends the
  // pass early instead of re-scoring a day.
  const auto days = test_days(args.seed, static_cast<std::size_t>(std::ceil(args.seconds * 100)));
  const dc::MultivariateSeries all = concat(days, days.size());

  // Set-up: artifact open plus to_corpora, several times.
  std::vector<double> setup;
  std::optional<dc::Framework> fw;
  for (int rep = 0; rep < 9; ++rep) {
    ScopedSpan span(tr, "detect.setup", 0, rep);
    const auto t0 = Clock::now();
    fw.emplace(desmine::io::load_framework(artifact, cfg));
    const auto corpora = fw->to_corpora(all);
    setup.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<Pass> passes;
  double traced_rate = 0.0;
  if (!args.trace) {
    passes.push_back(detect_pass(*fw, days, 0, args.seconds, nullptr));
  } else {
    passes.push_back(detect_pass(*fw, days, 0, args.seconds / 2, nullptr));
    desmine::obs::metrics().histogram("detector.edge_score_ms").reset();
    desmine::obs::metrics().histogram("threadpool.queue_wait_us").reset();
    passes.push_back(detect_pass(*fw, days, passes[0].scores.size(), args.seconds / 2, tr));
    traced_rate = passes[1].rate;
    report.metric("core.detect.edge_score_ms",
                  desmine::obs::metrics().histogram("detector.edge_score_ms").snapshot().quantile(0.5),
                  "ms");
  }
  const double rss = peak_rss_mb();

  // ---- checks (untimed): every day's scores against an OnlineDetector
  // replay of that day's ticks.
  std::vector<std::vector<double>> got;
  std::vector<double> call_ms;
  for (auto& p : passes) {
    got.insert(got.end(), p.scores.begin(), p.scores.end());
    call_ms.insert(call_ms.end(), p.call_ms.begin(), p.call_ms.end());
  }
  std::uint64_t windows = 0;
  for (const auto& g : got) windows += g.size();
  report.attempted = windows;
  report.failed = 0;
  if (args.corrupt == "score" && !got.empty() && !got[0].empty()) got[0][0] = flip_bit(got[0][0]);
  std::vector<std::size_t> mismatched(kPoolThreads, 0);
  parallel_run(kPoolThreads, [&](std::size_t w) {
    const dc::Framework replay_fw = desmine::io::load_framework(artifact, cfg);
    for (std::size_t d = w; d < got.size(); d += kPoolThreads) {
      std::vector<std::map<std::string, std::string>> ticks(kTicksPerDay);
      for (const auto& s : days[d]) {
        for (std::size_t t = 0; t < s.events.size(); ++t) ticks[t][s.name] = s.events[t];
      }
      const auto ref = online_replay(replay_fw, ticks.size(),
                                     [&](std::size_t t) -> const auto& { return ticks[t]; });
      if (ref.size() != got[d].size() || digest_bits(ref) != digest_bits(got[d])) ++mismatched[w];
    }
  });
  std::size_t bad = 0;
  for (std::size_t m : mismatched) bad += m;
  report.check(bad == 0, std::to_string(bad) + " days' scores differ from the OnlineDetector replay");
  report.check(!got.empty(), "no day was scored");
  std::uint64_t digest = 1469598103934665603ull;
  for (const auto& g : got) digest = digest_bits(g, digest);
  report.info("scores_digest", json_string(hex64(digest)));
  report.info("days", "{\"scored\": " + std::to_string(got.size()) +
                          ", \"available\": " + std::to_string(days.size()) +
                          ", \"windows\": " + std::to_string(windows) + "}");

  if (!args.trace) {
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("throughput_per_s", passes[0].rate, "1/s");
    // Median over five consecutive slices of the calls.
    report.metric("latency_p50_ms", median_quantile(call_ms, 0.5, 5), "ms");
    report.info("latency_ms", "{\"p90\": " + std::to_string(quantile(call_ms, 0.9)) +
                                  ", \"p99\": " + std::to_string(quantile(call_ms, 0.99)) + "}");
    return;
  }
  report_overhead(report, passes[0].rate, traced_rate);
  const dc::MultivariateSeries own = concat(days, 8);
  probe_encode(*fw, own, tracer, report);
  probe_mine(*fw, own, tracer, report);
  probe_decode_bleu(*fw, own, tracer, report);
  probe_gemm(tracer, report);
  probe_io(artifact, &*fw, paths.scratch, tracer, report);
  probe_serve(artifact, concat(days, 2), args.seed, tracer, report);
  report_registry_layers(report);
  tracer.write(paths.trace_prefix);
}

}  // namespace perfbench
