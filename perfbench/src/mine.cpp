// Workload `mine`: encode a normal-operation plant, mine all 72 ordered
// pairs with RelationshipMiner on kPoolThreads threads, write the v4
// artifact. Nearly all of its time is nmt training on nn/tensor kernels;
// serving code is never touched.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "io/artifact_map.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "parts.h"

namespace dc = desmine::core;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

std::vector<Clock::time_point>& step_times() {
  thread_local std::vector<Clock::time_point> steps;
  return steps;
}

struct PlantSplit {
  dc::MultivariateSeries train, dev, test;
};

/// Days 0-5 train, 6-7 dev (normal operation), day 8 a held-out test day.
/// A lazy sensor is OFF with an ON blip on about half the days; one without
/// a blip in the six training days would be dropped as constant, leaving 56
/// pairs instead of 72, so it gets one blip at a seeded training minute.
PlantSplit mine_plant(std::uint64_t seed) {
  auto plant = desmine::data::generate_plant(plant_config(derive_seed(seed, 1), 9));
  const std::size_t train = 6 * kTicksPerDay;
  for (auto& s : plant.series) {
    const auto first = s.events.begin();
    const bool lazy = std::find(plant.lazy_names.begin(), plant.lazy_names.end(),
                                s.name) != plant.lazy_names.end();
    if (lazy && std::all_of(first, first + train, [&](const auto& e) { return e == *first; })) {
      s.events[derive_seed(seed, 6) % train] = "ON";
    }
  }
  return {plant.days_slice(0, 6), plant.days_slice(6, 2), plant.days_slice(8, 1)};
}

struct Languages {
  std::optional<dc::SensorEncrypter> encrypter;
  std::vector<dc::SensorLanguage> languages;
};

/// Encrypter fit plus language build (the mine workload's set-up).
Languages build_languages(const PlantSplit& data, const dc::FrameworkConfig& cfg) {
  Languages out;
  out.encrypter = dc::SensorEncrypter::fit(data.train);
  const dc::LanguageGenerator gen(cfg.window);
  const auto train_chars = out.encrypter->encode_all(data.train);
  const auto dev_chars = out.encrypter->encode_all(data.dev);
  for (std::size_t k = 0; k < train_chars.size(); ++k) {
    out.languages.push_back({out.encrypter->kept_sensors()[k],
                             gen.generate(train_chars[k]),
                             gen.generate(dev_chars[k])});
  }
  return out;
}

struct Round {
  std::optional<dc::Framework> fw;
  double mine_s = 0.0;  ///< RelationshipMiner::mine
  double job_s = 0.0;   ///< mine() start until the artifact is on disk
  double write_ms = 0.0;
  std::vector<double> pair_ms;
};

/// One full mining pass ending with the v4 artifact at `path`.
/// A traced round also reports the mining and artifact-write layers.
Round mine_round(const Languages& langs, const std::string& path,
                 Tracer* tracer, Report* layers = nullptr) {
  dc::FrameworkConfig cfg = framework_config();
  ScopedSpan root(tracer, "core.mine.job");
  MineRecorder recorder(tracer, root.id());
  recorder.install(cfg.miner);
  Round r;
  const auto t0 = Clock::now();
  dc::MvrGraph graph = dc::RelationshipMiner(cfg.miner).mine(langs.languages);
  const auto t1 = Clock::now();
  r.fw.emplace(cfg);
  r.fw->restore(*langs.encrypter, std::move(graph));
  desmine::io::save_framework(*r.fw, path);
  const auto t2 = Clock::now();
  if (tracer) {
    tracer->add("core.mine", t0, t1, root.id());
    tracer->add("io.artifact.write", t1, t2, root.id());
  }
  r.mine_s = seconds_between(t0, t1);
  r.job_s = seconds_between(t0, t2);
  r.write_ms = ms_between(t1, t2);
  r.pair_ms = recorder.pair_ms();
  if (layers) {
    recorder.report(*layers, r.mine_s, cfg.miner.threads);
    layers->metric("io.artifact.write_ms", r.write_ms, "ms");
    layers->metric("io.artifact.bytes",
                   static_cast<double>(fs::file_size(path)), "bytes");
  }
  return r;
}

/// The artifact checks shared by the mine workload and artifact
/// preparation: no failed pair, every CRC verifies, and a reload
/// reproduces the mined BLEU bit patterns (`digest`).
void check_artifact(const dc::Framework& fw, std::uint64_t digest,
                    const std::string& path, Report& report) {
  report.check(fw.graph().failures().empty(),
               std::to_string(fw.graph().failures().size()) + " failed pairs");
  try {
    desmine::io::ArtifactMap::open(path)->verify_all();
  } catch (const std::exception& e) {
    report.check(false, std::string("artifact verify_all: ") + e.what());
    return;
  }
  const dc::Framework loaded = desmine::io::load_framework(path, framework_config());
  report.check(bleu_digest(loaded.graph()) == digest,
               "reloaded artifact BLEU bits differ from the mined graph");
}

}  // namespace

// ---- MineRecorder -----------------------------------------------------------------

void MineRecorder::install(dc::MinerConfig& cfg) {
  cfg.on_pair = [this](const dc::PairEvent& e) {
    const auto end = Clock::now();
    std::vector<Clock::time_point> steps;
    steps.swap(step_times());
    std::lock_guard lock(mu_);
    pair_ms_.push_back(e.wall_ms);
    if (!tracer_) return;
    const auto start =
        end - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(e.wall_ms));
    const std::uint32_t pair = tracer_->next_id();
    Clock::time_point prev = start;
    for (std::size_t k = 0; k < steps.size(); ++k) {
      tracer_->add("nmt.train.step", prev, steps[k], pair, e.pair_index);
      // Step 1 also carries vocabulary and model set-up; gaps from step 2
      // on are pure training steps.
      if (k > 0) step_ms_.push_back(ms_between(prev, steps[k]));
      prev = steps[k];
    }
    steps_ += steps.size();
    dev_ms_.push_back(ms_between(prev, end));
    tracer_->add("core.mine.pair", start, end, parent_, e.pair_index, pair);
  };
  if (tracer_) {
    cfg.translation.trainer.on_step = [](const desmine::nmt::StepEvent& ev) {
      auto& steps = step_times();
      if (ev.step == 1) steps.clear();  // a retried attempt starts over
      steps.push_back(Clock::now());
    };
  }
}

std::vector<double> MineRecorder::pair_ms() const {
  std::lock_guard lock(mu_);
  return pair_ms_;
}

void MineRecorder::report(Report& report, double wall_s,
                          std::size_t threads) const {
  std::lock_guard lock(mu_);
  double busy = 0.0;
  for (double ms : pair_ms_) busy += ms;
  report.metric("core.mine.pair_ms.p50", median(pair_ms_), "ms");
  report.metric("core.mine.pair_ms.tail",
                quantile(pair_ms_, tail_q(pair_ms_.size())), "ms");
  report.metric("core.mine.worker_idle_share",
                1.0 - busy / (static_cast<double>(threads) * wall_s * 1000.0),
                "ratio");
  report.metric("nmt.train.steps", static_cast<double>(steps_), "count");
  report.metric("nmt.train.step_ms", median(step_ms_), "ms");
  report.metric("nmt.dev_score_ms", median(dev_ms_), "ms");
}

// ---- artifact preparation ----------------------------------------------------------

int prepare_artifact(const Args& args) {
  const Paths paths = paths_for(args);
  if (fs::exists(paths.artifact) && fs::exists(paths.digest)) return 0;
  const Languages langs = build_languages(mine_plant(0), framework_config());
  const std::string tmp = paths.artifact + ".tmp";
  Round r = mine_round(langs, tmp, nullptr);
  Report report;
  const std::uint64_t digest = bleu_digest(r.fw->graph());
  check_artifact(*r.fw, digest, tmp, report);
  if (!report.correct()) return 1;
  {
    std::ofstream out(paths.digest + ".tmp");
    out << hex64(digest) << "\n";
  }
  fs::rename(paths.digest + ".tmp", paths.digest);
  fs::rename(tmp, paths.artifact);
  std::cerr << "prepared artifact " << paths.artifact << " ("
            << r.fw->graph().edges().size() << " edges, BLEU digest "
            << hex64(digest) << ", " << r.job_s << " s)\n";
  return 0;
}

// ---- workload ------------------------------------------------------------------------

void run_mine(const Args& args, Report& report) {
  const Paths paths = paths_for(args);
  const dc::FrameworkConfig cfg = framework_config();
  const PlantSplit data = mine_plant(args.seed);
  desmine::obs::Counter& failed = desmine::obs::metrics().counter("miner.pair.failed");
  desmine::obs::Counter& retries = desmine::obs::metrics().counter("miner.pair.retries");
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;

  // Set-up: encrypter fit plus language build, several times.
  std::vector<double> setup;
  Languages langs;
  for (int rep = 0; rep < 101; ++rep) {
    ScopedSpan span(tr, "core.setup.languages", 0, rep);
    const auto t0 = Clock::now();
    langs = build_languages(data, cfg);
    setup.push_back(seconds_between(t0, Clock::now()));
  }

  const std::uint64_t failed0 = failed.value(), retries0 = retries.value();
  const std::string path = paths.scratch + "/mvrg.v4";
  std::vector<Round> rounds;
  double traced_rate = 0.0;
  if (!args.trace) {
    // At least two rounds: one round is a single 4-thread sample of ~12 s.
    const auto start = Clock::now();
    do {
      rounds.push_back(mine_round(langs, path, nullptr));
    } while (rounds.size() < 2 || seconds_between(start, Clock::now()) < args.seconds);
  } else {
    rounds.push_back(mine_round(langs, path, nullptr));
    desmine::obs::metrics().histogram("threadpool.queue_wait_us").reset();
    Round traced = mine_round(langs, path, tr, &report);
    traced_rate = static_cast<double>(traced.pair_ms.size()) / traced.job_s;
    rounds.push_back(std::move(traced));
  }
  const double rss = peak_rss_mb();

  std::vector<double> rate, pair_ms;
  std::uint64_t pairs = 0;
  for (const Round& r : rounds) {
    // Pairs per second of the whole job, mine() until the artifact is on
    // disk: the wall time to the artifact is 72 / this rate.
    rate.push_back(static_cast<double>(r.pair_ms.size()) / r.job_s);
    pair_ms.insert(pair_ms.end(), r.pair_ms.begin(), r.pair_ms.end());
    pairs += r.fw->graph().edges().size() + r.fw->graph().failures().size();
  }
  report.attempted = pairs;
  report.failed = failed.value() - failed0;

  // Checks (untimed) on the last round.
  const Round& last = rounds.back();
  std::uint64_t digest = bleu_digest(last.fw->graph());
  if (args.corrupt == "digest") digest ^= 1;
  if (args.corrupt == "artifact") flip_middle_byte(path);
  check_artifact(*last.fw, digest, path, report);
  report.check(pairs == 72 * rounds.size(), "expected 72 pairs per round");
  for (const Round& r : rounds) {
    report.check(bleu_digest(r.fw->graph()) == digest,
                 "BLEU digest differs between rounds of one run");
  }
  try {
    const dc::Framework loaded = desmine::io::load_framework(path, cfg);
    std::vector<double> mem = last.fw->detect(data.test).anomaly_scores;
    const std::vector<double> disk = loaded.detect(data.test).anomaly_scores;
    if (args.corrupt == "score" && !mem.empty()) mem[0] = flip_bit(mem[0]);
    report.check(!mem.empty() && digest_bits(mem) == digest_bits(disk),
                 "reloaded artifact does not reproduce the test day's scores");
  } catch (const std::exception& e) {
    report.check(false, std::string("reload/detect: ") + e.what());
  }
  if (args.seed == 0 && fs::exists(paths.digest)) {
    std::ifstream in(paths.digest);
    std::string prepared;
    in >> prepared;
    report.check(prepared == hex64(bleu_digest(last.fw->graph())),
                 "mine --seed 0 disagrees with the prepared artifact");
  }
  report.info("bleu_digest", json_string(hex64(digest)));
  report.info("edges", std::to_string(last.fw->graph().edges().size()));
  report.info("pairs", "{\"attempted\": " + std::to_string(pairs) +
                           ", \"failed\": " + std::to_string(report.failed) +
                           ", \"retries\": " +
                           std::to_string(retries.value() - retries0) + "}");

  if (!args.trace) {
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("throughput_per_s", median(rate), "1/s");
    report.metric("latency_p50_ms", median(pair_ms), "ms");
    report.info("pair_ms", "{\"p90\": " + std::to_string(quantile(pair_ms, 0.9)) +
                               ", \"max\": " + std::to_string(quantile(pair_ms, 1.0)) + "}");
    return;
  }
  report_overhead(report, rate.front(), traced_rate);
  probe_encode(*last.fw, data.train, tracer, report);
  probe_detect(*last.fw, data.test, tracer, report);
  probe_decode_bleu(*last.fw, data.dev, tracer, report);
  probe_gemm(tracer, report);
  probe_io(path, nullptr, paths.scratch, tracer, report);
  probe_serve(path, cut(data.dev, 0, 2 * kTicksPerDay), args.seed, tracer, report);
  report_registry_layers(report);
  tracer.write(paths.trace_prefix);
}

}  // namespace perfbench
