// Tests for the serving layer (DESIGN.md §11): batched-vs-sequential
// bit-identity, multi-session replay equivalence, session isolation under
// flooding, backpressure/close semantics, the config JSON round-trip, the
// strict detect() default and the shadow scorer's quorum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/anomaly.h"
#include "core/framework.h"
#include "core/online.h"
#include "io/config_json.h"
#include "nmt/translation.h"
#include "serve/session_manager.h"
#include "serve/shadow_scorer.h"
#include "text/bleu.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace dm = desmine::nmt;
namespace ds = desmine::serve;
namespace dx = desmine::text;
namespace dio = desmine::io;
using desmine::util::Rng;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Coupled pair (follow repeats lead 2 ticks later) plus a noise sensor —
/// the same shape test_online uses, so serve results can be replayed
/// against OnlineDetector.
dc::MultivariateSeries make_series(std::size_t ticks, std::uint64_t seed) {
  Rng rng(seed);
  dc::EventSequence lead, follow, noise;
  bool state = false;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t % 13 == 0) state = !state;
    lead.push_back(state ? "ON" : "OFF");
    follow.push_back((t >= 2 && lead[t - 2] == "ON") ? "ON" : "OFF");
    noise.push_back(rng.bernoulli(0.5) ? "ON" : "OFF");
  }
  return {{"lead", lead}, {"follow", follow}, {"noise", noise}};
}

struct Fixture {
  dc::FrameworkConfig cfg;
  dc::Framework framework;

  Fixture()
      : cfg([] {
          dc::FrameworkConfig c;
          c.window = {4, 1, 4, 4};
          c.miner.translation.model.embedding_dim = 16;
          c.miner.translation.model.hidden_dim = 16;
          c.miner.translation.model.num_layers = 1;
          c.miner.translation.model.dropout = 0.0f;
          c.miner.translation.trainer.steps = 150;
          c.miner.translation.trainer.batch_size = 8;
          c.miner.seed = 3;
          c.detector.valid_lo = 0.0;
          c.detector.valid_hi = 100.5;
          c.detector.tolerance = 10.0;
          c.detector.threads = 1;
          return c;
        }()),
        framework(cfg) {
    framework.fit(make_series(600, 1), make_series(300, 2));
  }

  ds::ServeConfig serve_config() const {
    ds::ServeConfig s;
    s.detector = cfg.detector;
    s.workers = 2;
    s.max_batch = 8;
    return s;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::map<std::string, std::string> tick_states(
    const dc::MultivariateSeries& series, std::size_t t) {
  std::map<std::string, std::string> out;
  for (const auto& sensor : series) out[sensor.name] = sensor.events[t];
  return out;
}

/// Per-window anomaly scores from a sequential OnlineDetector replay.
std::vector<double> replay_scores(const Fixture& f,
                                  const dc::MultivariateSeries& series) {
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  std::vector<double> scores;
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    const auto r = online.push(tick_states(series, t));
    if (r) scores.push_back(r->anomaly_score);
  }
  return scores;
}

/// Ragged word-substitution corpus (every sentence a different length).
void make_ragged_corpus(std::size_t sentences, dx::Corpus& src,
                        dx::Corpus& tgt, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> sw = {"sa", "sb", "sc", "sd"};
  const std::vector<std::string> tw = {"ta", "tb", "tc", "td"};
  for (std::size_t k = 0; k < sentences; ++k) {
    const std::size_t length = 1 + (k % 12);
    dx::Sentence s, t;
    for (std::size_t i = 0; i < length; ++i) {
      const std::size_t w = rng.index(sw.size());
      s.push_back(sw[w]);
      t.push_back(tw[w]);
    }
    src.push_back(s);
    tgt.push_back(t);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Batched decode bit-identity

TEST(ScoreBatch, BitIdenticalToSequentialAcrossRaggedLengths) {
  dx::Corpus train_src, train_tgt;
  make_ragged_corpus(64, train_src, train_tgt, 11);
  dm::TranslationConfig cfg;
  cfg.model.embedding_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.num_layers = 2;  // exercise the stacked-layer rewind path
  cfg.model.dropout = 0.0f;
  cfg.trainer.steps = 150;
  cfg.trainer.batch_size = 8;
  dm::TranslationModel model =
      dm::train_translation_model(train_src, train_tgt, cfg, 77);

  dx::Corpus test_src, test_ref;
  make_ragged_corpus(40, test_src, test_ref, 12);

  // Sequential ground truth: greedy translate + sentence corpus BLEU.
  std::vector<dx::Sentence> seq_out;
  std::vector<double> seq_bleu;
  for (std::size_t i = 0; i < test_src.size(); ++i) {
    seq_out.push_back(model.translate(test_src[i]));
    seq_bleu.push_back(
        dx::corpus_bleu({seq_out.back()}, {test_ref[i]}, {}).score);
  }

  std::vector<const dx::Sentence*> sources;
  for (const dx::Sentence& s : test_src) sources.push_back(&s);
  const std::vector<dx::Sentence> batch_out = model.translate_batch(sources);

  ASSERT_EQ(batch_out.size(), test_src.size());
  for (std::size_t i = 0; i < test_src.size(); ++i) {
    EXPECT_EQ(batch_out[i], seq_out[i]) << "sentence " << i;
    const double batch_bleu =
        dx::sentence_bleu(batch_out[i], test_ref[i], {}).score;
    EXPECT_EQ(bits(batch_bleu), bits(seq_bleu[i])) << "sentence " << i;
  }
}

TEST(ScoreBatch, DuplicateSourcesDecodeOnceAndFanOut) {
  dx::Corpus train_src, train_tgt;
  make_ragged_corpus(64, train_src, train_tgt, 13);
  dm::TranslationConfig cfg;
  cfg.model.embedding_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.num_layers = 1;
  cfg.model.dropout = 0.0f;
  cfg.trainer.steps = 120;
  cfg.trainer.batch_size = 8;
  dm::TranslationModel model =
      dm::train_translation_model(train_src, train_tgt, cfg, 78);

  // Every sentence appears three times; the fan-out must reproduce the
  // sequential result at each slot.
  dx::Corpus base_src, base_ref;
  make_ragged_corpus(6, base_src, base_ref, 14);
  std::vector<const dx::Sentence*> sources;
  std::vector<dx::Sentence> expected;
  for (std::size_t rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < base_src.size(); ++i) {
      sources.push_back(&base_src[i]);
    }
  }
  for (const dx::Sentence* s : sources) expected.push_back(model.translate(*s));
  const std::vector<dx::Sentence> batch_out = model.translate_batch(sources);
  ASSERT_EQ(batch_out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch_out[i], expected[i]) << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// Serving layer

TEST(SessionManager, BatchedServeBitIdenticalToSequentialReplay) {
  auto& f = fixture();
  ds::SessionManager manager(f.framework.graph(), f.framework.encrypter(),
                             f.cfg.window, f.serve_config());
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kTicks = 120;
  std::vector<dc::MultivariateSeries> series;
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    series.push_back(make_series(kTicks, 20 + s));
    ids.push_back(manager.open());
  }

  // Interleave ticks round-robin so windows from different sessions are
  // pending simultaneously and batch together.
  std::vector<std::vector<double>> served(kSessions);
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(manager.ingest(ids[s], tick_states(series[s], t)),
                ds::IngestStatus::kAccepted);
    }
  }
  manager.drain();
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::size_t next_index = 0;
    while (const auto r = manager.poll(ids[s])) {
      EXPECT_EQ(r->window_index, next_index++);  // strictly in window order
      EXPECT_EQ(r->coverage, 1.0);
      EXPECT_FALSE(r->degraded);
      served[s].push_back(r->anomaly_score);
    }
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::vector<double> expected = replay_scores(f, series[s]);
    ASSERT_EQ(served[s].size(), expected.size()) << "session " << s;
    for (std::size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(bits(served[s][w]), bits(expected[w]))
          << "session " << s << " window " << w;
    }
  }
}

TEST(SessionManager, FloodingSessionNeverDegradesNeighbour) {
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.limits.max_pending_windows = 1;
  scfg.limits.reject_when_full = true;
  ds::SessionManager manager(f.framework.graph(), f.framework.encrypter(),
                             f.cfg.window, scfg);

  const auto flood_series = make_series(200, 30);
  const auto good_series = make_series(200, 31);
  const std::uint64_t flood = manager.open();
  const std::uint64_t good = manager.open();

  // The flooding session never polls: once one window is complete and
  // unclaimed its budget (1) stays exhausted, so later ticks reject. The
  // well-behaved session polls after every tick and must never be
  // rejected or perturbed.
  std::size_t rejected = 0;
  std::vector<double> good_scores;
  for (std::size_t t = 0; t < 200; ++t) {
    const auto flood_status =
        manager.ingest(flood, tick_states(flood_series, t));
    if (flood_status == ds::IngestStatus::kRejected) ++rejected;
    ASSERT_EQ(manager.ingest(good, tick_states(good_series, t)),
              ds::IngestStatus::kAccepted)
        << t;
    manager.drain(good);
    while (const auto r = manager.poll(good)) {
      good_scores.push_back(r->anomaly_score);
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LE(manager.stats(flood).pending, 1u);

  const std::vector<double> expected = replay_scores(f, good_series);
  ASSERT_EQ(good_scores.size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ(bits(good_scores[w]), bits(expected[w])) << "window " << w;
  }
}

TEST(SessionManager, CloseRefusesTicksButDeliversInflightWindows) {
  auto& f = fixture();
  ds::SessionManager manager(f.framework.graph(), f.framework.encrypter(),
                             f.cfg.window, f.serve_config());
  const auto series = make_series(40, 32);
  const std::uint64_t id = manager.open();
  // Window span 7, stride 4: 20 ticks produce windows 0..3.
  for (std::size_t t = 0; t < 20; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.close(id);
  EXPECT_EQ(manager.ingest(id, tick_states(series, 20)),
            ds::IngestStatus::kClosed);
  manager.drain(id);
  std::size_t delivered = 0;
  while (const auto r = manager.poll(id)) {
    EXPECT_EQ(r->window_index, delivered);
    ++delivered;
  }
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(manager.stats(id).windows_delivered, 4u);
  manager.erase(id);
  EXPECT_EQ(manager.session_count(), 0u);
  EXPECT_THROW(manager.ingest(id, tick_states(series, 0)),
               desmine::PreconditionError);
}

TEST(SessionManager, UnknownSessionThrows) {
  auto& f = fixture();
  ds::SessionManager manager(f.framework.graph(), f.framework.encrypter(),
                             f.cfg.window, f.serve_config());
  EXPECT_THROW(manager.poll(99), desmine::PreconditionError);
  EXPECT_THROW(manager.close(99), desmine::PreconditionError);
}

// ---------------------------------------------------------------------------
// Config JSON

// Every RunConfig knob, each with a valid non-default value.
#define DESMINE_EVERY_KNOB(X)                                    \
  X(framework.window.word_length, 6u)                            \
  X(framework.window.word_stride, 2u)                            \
  X(framework.window.sentence_length, 11u)                       \
  X(framework.window.sentence_stride, 5u)                        \
  X(framework.miner.threads, 3u)                                 \
  X(framework.miner.seed, 1234567890123u)                        \
  X(framework.miner.pair_timeout_s, 2.5)                         \
  X(framework.miner.checkpoint_path, "ckpt.jsonl")               \
  X(framework.miner.resume, true)                                \
  X(framework.miner.retry.max_retries, 5u)                       \
  X(framework.miner.retry.base_delay_ms, 12.5)                   \
  X(framework.miner.retry.multiplier, 1.5)                       \
  X(framework.miner.retry.max_delay_ms, 900.0)                   \
  X(framework.miner.retry.jitter, 0.125)                         \
  X(framework.miner.translation.model.embedding_dim, 24u)        \
  X(framework.miner.translation.model.hidden_dim, 48u)           \
  X(framework.miner.translation.model.num_layers, 3u)            \
  X(framework.miner.translation.model.dropout, 0.3f)             \
  X(framework.miner.translation.model.init_scale, 0.05f)         \
  X(framework.miner.translation.model.max_decode_length, 13u)    \
  X(framework.miner.translation.model.attention,                 \
    desmine::nn::AttentionScore::kDot)                           \
  X(framework.miner.translation.trainer.steps, 333u)             \
  X(framework.miner.translation.trainer.batch_size, 8u)          \
  X(framework.miner.translation.trainer.lr, 0.003f)              \
  X(framework.miner.translation.trainer.clip_norm, 2.5f)         \
  X(framework.miner.translation.trainer.lr_decay_start, 100u)    \
  X(framework.miner.translation.trainer.lr_decay_every, 50u)     \
  X(framework.miner.translation.trainer.eval_every, 25u)         \
  X(framework.miner.translation.trainer.patience, 4u)            \
  X(framework.miner.translation.trainer.divergence_factor, 500.0) \
  X(framework.miner.translation.bleu.max_order, 3u)              \
  X(framework.miner.translation.bleu.smooth, false)              \
  X(framework.detector.valid_lo, 70.0)                           \
  X(framework.detector.valid_hi, 95.0)                           \
  X(framework.detector.tolerance, 1.25)                          \
  X(framework.detector.min_coverage, 0.75)                       \
  X(framework.detector.threads, 2u)                              \
  X(framework.detector.bleu.max_order, 2u)                       \
  X(framework.detector.bleu.smooth, false)                       \
  X(health.drop_after_missing, 7u)                               \
  X(health.stale_after, 30u)                                     \
  X(health.max_unk_rate, 0.375)                                  \
  X(health.unk_window, 32u)                                      \
  X(health.min_unk_samples, 4u)                                  \
  X(health.readmit_after, 5u)                                    \
  X(kernels, "scalar")                                           \
  X(serve.workers, 4u)                                           \
  X(serve.max_batch, 16u)                                        \
  X(serve.decode_cache, 128u)                                    \
  X(serve.limits.max_pending_windows, 9u)                        \
  X(serve.limits.reject_when_full, true)                         \
  X(serve.limits.max_consecutive_shed, 3u)                       \
  X(serve.max_global_pending, 100u)                              \
  X(serve.max_queue_delay_ms, 250.0)                             \
  X(serve.circuit_open_after, 2u)                                \
  X(serve.circuit_probe_after, 4u)                               \
  X(serve.telemetry_port, 9100u)                                 \
  X(serve.resident_bytes, std::uint64_t{1} << 40)                \
  X(serve.resident_edges, 12u)                                   \
  X(serve.slow_window_ms, 75.0)                                  \
  X(serve.sliding_window_s, 30.0)                                \
  X(serve.sliding_epochs, 3u)                                    \
  X(lifecycle.drift.ewma_alpha, 0.3)                             \
  X(lifecycle.drift.min_observations, 5u)                        \
  X(lifecycle.drift.hysteresis, 4u)                              \
  X(lifecycle.drift.drifting_drop, 7.5)                          \
  X(lifecycle.drift.drifted_drop, 20.0)                          \
  X(lifecycle.drift.break_rate, 0.6)                             \
  X(lifecycle.drift.max_unk_rate, 0.125)                         \
  X(lifecycle.retrain.lr_factor, 0.25)                           \
  X(lifecycle.retrain.steps, 123u)                               \
  X(lifecycle.retrain.journal_path, "retrain.journal")           \
  X(lifecycle.retrain.warm_start_journal, "mine.journal")        \
  X(lifecycle.shadow.sample_rate, 0.5)                           \
  X(lifecycle.shadow.min_windows, 17u)                           \
  X(lifecycle.shadow.alert_threshold, 0.45)                      \
  X(lifecycle.shadow.max_alert_rate, 0.1)                        \
  X(lifecycle.shadow.min_agreement, 0.8)                         \
  X(lifecycle.shadow.max_failures, 2u)

TEST(ConfigJson, RoundTripsEveryKnob) {
  dio::RunConfig c;
#define DESMINE_SET(field, ...) c.field = __VA_ARGS__;
  DESMINE_EVERY_KNOB(DESMINE_SET)
#undef DESMINE_SET

  const std::string json = dio::run_config_to_json(c);
  const dio::RunConfig back = dio::run_config_from_json(json);
#define DESMINE_CHECK(field, ...) EXPECT_EQ(back.field, c.field) << #field;
  DESMINE_EVERY_KNOB(DESMINE_CHECK)
#undef DESMINE_CHECK
  // Integers print exactly, floats in shortest round-trip form.
  EXPECT_NE(json.find("\"seed\": 1234567890123,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lr\": 0.003,"), std::string::npos) << json;
  // ServeConfig mirrors the detector and lifecycle.shadow sections.
  EXPECT_EQ(back.serve.detector.tolerance, 1.25);
  EXPECT_EQ(back.serve.shadow.min_agreement, 0.8);

  // Re-emission is a fixed point: same document, byte for byte.
  EXPECT_EQ(dio::run_config_to_json(back), json);

  // Every knob line differs from the defaults' document: the list above
  // leaves no knob of the table at its default.
  const dio::RunConfig defaults_config;
  std::istringstream got(json);
  std::istringstream defaults(dio::run_config_to_json(defaults_config));
  std::size_t knob_lines = 0;
  for (std::string a, b; std::getline(got, a) && std::getline(defaults, b);) {
    if (a.back() == '{' || a.find('}') != std::string::npos) continue;
    EXPECT_NE(a, b);
    ++knob_lines;
  }
  EXPECT_EQ(knob_lines, 79u);
}
#undef DESMINE_EVERY_KNOB

namespace {

/// run_config_from_json(doc) throws a PreconditionError naming `key`.
void expect_refused(const std::string& doc, const std::string& key) {
  try {
    dio::run_config_from_json(doc);
    ADD_FAILURE() << "accepted " << doc;
  } catch (const desmine::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(ConfigJson, RejectsUnknownKeysNamingTheDottedPath) {
  expect_refused(R"({"miner": {"trainer": {"stepz": 3}}})",
                 "miner.trainer.stepz");
  expect_refused(R"({"servee": {}})", "servee");
  expect_refused(R"({"lifecycle": {"drift": {"ewma_alphaz": 0.1}}})",
                 "lifecycle.drift.ewma_alphaz");
  // Removed settings are rejected like any typo: the int8 decode precision
  // key and the "blocked" kernel backend.
  expect_refused(R"({"tensor": {"precision": "f32"}})", "tensor.precision");
  expect_refused(R"({"tensor": {"kernels": "blocked"}})", "tensor.kernels");
}

TEST(ConfigJson, ValidatesRangesNamingTheBadKey) {
  expect_refused(R"({"detector": {"min_coverage": 2.0}})",
                 "detector.min_coverage");
  expect_refused(R"({"window": {"word_length": 0}})", "window.word_length");
  expect_refused(R"({"window": 6})", "window");
  expect_refused(R"({"miner": {"model": {"attention": "additive"}}})",
                 "miner.model.attention");
  expect_refused(R"({"serve": {"max_batch": 1.5}})", "serve.max_batch");
  expect_refused(R"({"serve": {"telemetry_port": 65536}})",
                 "serve.telemetry_port");
  expect_refused(R"({"lifecycle": {"shadow": {"sample_rate": 0.0}}})",
                 "lifecycle.shadow.sample_rate");
  // Checks across keys, and bounds no kind expresses.
  expect_refused(R"({"detector": {"valid_lo": 95, "valid_hi": 90}})",
                 "detector.valid_lo");
  expect_refused(R"({"lifecycle": {"drift": {"drifting_drop": 40.0}}})",
                 "lifecycle.drift.drifted_drop");  // default drifted_drop 15
  expect_refused(R"({"lifecycle": {"drift": {"ewma_alpha": 0.0}}})",
                 "lifecycle.drift.ewma_alpha");
  expect_refused(R"({"miner": {"model": {"dropout": 1}}})",
                 "miner.model.dropout");
  expect_refused(R"({"miner": {"retry": {"multiplier": 0.5}}})",
                 "miner.retry.multiplier");
}

TEST(ConfigJson, MalformedJsonNamesTheOffset) {
  try {
    dio::run_config_from_json("{\"window\": }");
    FAIL() << "expected RuntimeError";
  } catch (const desmine::RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  // Trailing garbage after the document is rejected too.
  EXPECT_THROW(dio::run_config_from_json("{} x"), desmine::RuntimeError);
}

// ---------------------------------------------------------------------------
// detect() defaults

TEST(DetectOptions, DefaultDetectIsStrict) {
  auto& f = fixture();
  const auto series = make_series(80, 40);
  const auto corpora = f.framework.to_corpora(series);
  dc::AnomalyDetector detector(f.framework.graph(), f.cfg.detector);

  // The one-argument form is the two-argument form with default options:
  // strict detection, no health mask.
  const dc::DetectionResult strict_default = detector.detect(corpora);
  const dc::DetectionResult strict_options =
      detector.detect(corpora, dc::DetectOptions{});
  ASSERT_EQ(strict_default.anomaly_scores.size(),
            strict_options.anomaly_scores.size());
  for (std::size_t w = 0; w < strict_default.anomaly_scores.size(); ++w) {
    EXPECT_EQ(bits(strict_default.anomaly_scores[w]),
              bits(strict_options.anomaly_scores[w]));
  }
}

// ---------------------------------------------------------------------------
// Shadow scoring

TEST(ShadowScorer, MaskedSampleBelowQuorumIsNoCandidateAlert) {
  auto& f = fixture();
  // Every scored edge breaks (f < s + 200 always holds), so any sample with
  // a verdict scores 1.0 — an alert.
  dc::DetectorConfig det = f.cfg.detector;
  det.tolerance = -200.0;
  det.min_coverage = 0.9;
  const auto candidate = ds::make_generation(f.framework.graph(), det, 2);
  const auto& names = f.framework.graph().sensor_names();
  const std::size_t noise =
      static_cast<std::size_t>(std::find(names.begin(), names.end(), "noise") -
                               names.begin());
  ASSERT_LT(noise, names.size());

  const auto corpora = f.framework.to_corpora(make_series(80, 41));
  ds::ShadowSample sample;
  for (const dx::Corpus& c : corpora) sample.corpora.push_back({c.front()});
  sample.unhealthy = {noise};  // leaves only the lead<->follow edges

  ds::ShadowConfig cfg;
  cfg.sample_rate = 1.0;
  cfg.alert_threshold = 0.5;
  // Strict semantics: no quorum, the survivors' verdict stands.
  ds::ShadowScorer strict(candidate, cfg, "strict");
  strict.observe(sample);
  EXPECT_EQ(strict.status().candidate_alerts, 1u);
  // Degraded-mode semantics: coverage is below min_coverage, so the sample
  // has no verdict and cannot count as an alert.
  sample.masked = true;
  ds::ShadowScorer masked(candidate, cfg, "masked");
  masked.observe(sample);
  EXPECT_EQ(masked.status().sampled, 1u);
  EXPECT_EQ(masked.status().candidate_alerts, 0u);
  EXPECT_EQ(masked.status().candidate_mean, 0.0);
}
