// Tests for the seq2seq NMT stack: training convergence on synthetic
// translation tasks, determinism, and the high-level TranslationModel API.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "nmt/seq2seq.h"
#include "nmt/trainer.h"
#include "nmt/translation.h"
#include "text/bleu.h"
#include "util/error.h"
#include "util/rng.h"

namespace dm = desmine::nmt;
namespace dx = desmine::text;
using desmine::util::Rng;

namespace {

dm::Seq2SeqConfig tiny_config() {
  dm::Seq2SeqConfig cfg;
  cfg.embedding_dim = 32;
  cfg.hidden_dim = 32;
  cfg.num_layers = 1;
  cfg.dropout = 0.0f;
  cfg.max_decode_length = 16;
  return cfg;
}

/// Build a deterministic word-substitution task: target word = f(source
/// word), sentence-aligned. An NMT model must drive loss near zero on it.
void make_substitution_corpus(std::size_t sentences, std::size_t length,
                              dx::Corpus& src, dx::Corpus& tgt,
                              std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> s_words = {"sa", "sb", "sc", "sd"};
  const std::vector<std::string> t_words = {"ta", "tb", "tc", "td"};
  for (std::size_t k = 0; k < sentences; ++k) {
    dx::Sentence s, t;
    for (std::size_t i = 0; i < length; ++i) {
      const std::size_t w = rng.index(s_words.size());
      s.push_back(s_words[w]);
      t.push_back(t_words[w]);
    }
    src.push_back(s);
    tgt.push_back(t);
  }
}

/// `count` sources of ids 4..9 with ragged lengths 1..12.
std::vector<std::vector<std::int32_t>> ragged_sources(std::size_t count,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int32_t>> out(count);
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t i = 0; i < 1 + (k * 5 + seed) % 12; ++i) {
      out[k].push_back(static_cast<std::int32_t>(4 + rng.index(6)));
    }
  }
  return out;
}

std::vector<const std::vector<std::int32_t>*> pointers(
    const std::vector<std::vector<std::int32_t>>& v) {
  std::vector<const std::vector<std::int32_t>*> out;
  for (const auto& x : v) out.push_back(&x);
  return out;
}

}  // namespace

TEST(Seq2Seq, LossDecreasesDuringTraining) {
  dx::Corpus src, tgt;
  make_substitution_corpus(64, 5, src, tgt, 1);
  const auto sv = dx::Vocabulary::build(src);
  const auto tv = dx::Vocabulary::build(tgt);
  dm::Seq2SeqModel model(sv.size(), tv.size(), tiny_config(), Rng(11));
  const auto pairs = dm::encode_pairs(sv, tv, src, tgt);

  dm::TrainerConfig tc;
  tc.steps = 800;
  tc.batch_size = 8;
  tc.lr = 0.02f;
  const auto history = dm::train(model, pairs, tc, Rng(12));
  ASSERT_EQ(history.losses.size(), 800u);
  const double early = history.losses[5];
  EXPECT_LT(history.final_loss, early * 0.5);
}

TEST(Seq2Seq, LearnsWordSubstitution) {
  dx::Corpus src, tgt;
  make_substitution_corpus(96, 5, src, tgt, 2);
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.trainer.steps = 800;
  cfg.trainer.batch_size = 12;
  cfg.trainer.lr = 0.02f;
  auto model = dm::train_translation_model(src, tgt, cfg, 99);

  // Score on freshly generated sentences from the same distribution.
  dx::Corpus test_src, test_tgt;
  make_substitution_corpus(16, 5, test_src, test_tgt, 3);
  const auto bleu = model.score(test_src, test_tgt);
  EXPECT_GT(bleu.score, 80.0) << "substitution task should be learnable";
}

TEST(Seq2Seq, UnrelatedTargetScoresLower) {
  // Property at the heart of the paper: related streams must out-score
  // unrelated ones under identical settings.
  dx::Corpus src, tgt;
  make_substitution_corpus(96, 5, src, tgt, 4);

  // Unrelated target: random words, same vocabulary sizes.
  Rng rng(5);
  dx::Corpus noise_tgt;
  const std::vector<std::string> t_words = {"ta", "tb", "tc", "td"};
  for (const auto& s : src) {
    dx::Sentence t;
    for (std::size_t i = 0; i < s.size(); ++i) {
      t.push_back(t_words[rng.index(t_words.size())]);
    }
    noise_tgt.push_back(t);
  }

  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.trainer.steps = 600;
  cfg.trainer.batch_size = 12;
  cfg.trainer.lr = 0.02f;

  auto related = dm::train_translation_model(src, tgt, cfg, 7);
  auto unrelated = dm::train_translation_model(src, noise_tgt, cfg, 7);

  dx::Corpus dev_src, dev_tgt;
  make_substitution_corpus(16, 5, dev_src, dev_tgt, 6);
  Rng rng2(8);
  dx::Corpus dev_noise;
  for (const auto& s : dev_src) {
    dx::Sentence t;
    for (std::size_t i = 0; i < s.size(); ++i) {
      t.push_back(t_words[rng2.index(t_words.size())]);
    }
    dev_noise.push_back(t);
  }

  const double bleu_related = related.score(dev_src, dev_tgt).score;
  const double bleu_unrelated = unrelated.score(dev_src, dev_noise).score;
  EXPECT_GT(bleu_related, bleu_unrelated + 20.0);
}

TEST(Seq2Seq, TrainingIsDeterministic) {
  dx::Corpus src, tgt;
  make_substitution_corpus(32, 4, src, tgt, 10);
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.trainer.steps = 30;
  cfg.trainer.batch_size = 4;

  auto m1 = dm::train_translation_model(src, tgt, cfg, 77);
  auto m2 = dm::train_translation_model(src, tgt, cfg, 77);
  const auto out1 = m1.translate(src[0]);
  const auto out2 = m2.translate(src[0]);
  EXPECT_EQ(out1, out2);
  EXPECT_DOUBLE_EQ(m1.score(src, tgt).score, m2.score(src, tgt).score);
}

TEST(Seq2Seq, DifferentSeedsGiveDifferentModels) {
  dx::Corpus src, tgt;
  make_substitution_corpus(32, 4, src, tgt, 10);
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.trainer.steps = 5;
  cfg.trainer.batch_size = 4;
  auto m1 = dm::train_translation_model(src, tgt, cfg, 1);
  auto m2 = dm::train_translation_model(src, tgt, cfg, 2);
  // Underfit models almost surely diverge in loss.
  const auto p1 = dm::encode_pairs(m1.src_vocab(), m1.tgt_vocab(), src, tgt);
  const auto p2 = dm::encode_pairs(m2.src_vocab(), m2.tgt_vocab(), src, tgt);
  std::vector<const dm::EncodedPair*> b1, b2;
  for (const auto& p : p1) b1.push_back(&p);
  for (const auto& p : p2) b2.push_back(&p);
  EXPECT_NE(m1.model().evaluate_loss(b1), m2.model().evaluate_loss(b2));
}

TEST(Seq2Seq, TranslateEmptySentenceThrows) {
  dx::Corpus src = {{"a", "b"}};
  dx::Corpus tgt = {{"x", "y"}};
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.trainer.steps = 2;
  cfg.trainer.batch_size = 2;
  auto model = dm::train_translation_model(src, tgt, cfg, 3);
  EXPECT_THROW(model.translate({}), desmine::PreconditionError);
}

TEST(Seq2Seq, GreedyDecodeRespectsMaxLength) {
  dx::Corpus src = {{"a", "b", "a", "b"}};
  dx::Corpus tgt = {{"x", "y", "x", "y"}};
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.model.max_decode_length = 3;
  cfg.trainer.steps = 2;
  cfg.trainer.batch_size = 1;
  auto model = dm::train_translation_model(src, tgt, cfg, 3);
  EXPECT_LE(model.translate(src[0]).size(), 3u);
}

TEST(Seq2Seq, BucketedTrainingHandlesMixedLengths) {
  dx::Corpus src = {{"a", "b"}, {"a", "b", "a"}, {"b", "a"}, {"b", "a", "b"}};
  dx::Corpus tgt = {{"x", "y"}, {"x", "y", "x"}, {"y", "x"}, {"y", "x", "y"}};
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.trainer.steps = 20;
  cfg.trainer.batch_size = 3;
  EXPECT_NO_THROW(dm::train_translation_model(src, tgt, cfg, 4));
}

TEST(Seq2Seq, RejectsEmptyTrainingCorpus) {
  dm::TranslationConfig cfg;
  EXPECT_THROW(dm::train_translation_model({}, {}, cfg, 1),
               desmine::PreconditionError);
}

TEST(Seq2Seq, UnknownSourceTokensHandled) {
  dx::Corpus src, tgt;
  make_substitution_corpus(16, 4, src, tgt, 20);
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.trainer.steps = 10;
  cfg.trainer.batch_size = 4;
  auto model = dm::train_translation_model(src, tgt, cfg, 5);
  // A sentence of never-seen tokens maps to <unk> ids and must not throw.
  EXPECT_NO_THROW(model.translate({"zz", "qq", "zz", "qq"}));
}

// ------------------------------------------------------ divergence guard ----

TEST(Divergence, AbsurdLearningRateTripsGuardEarly) {
  dx::Corpus src, tgt;
  make_substitution_corpus(64, 5, src, tgt, 1);
  const auto sv = dx::Vocabulary::build(src);
  const auto tv = dx::Vocabulary::build(tgt);
  dm::Seq2SeqModel model(sv.size(), tv.size(), tiny_config(), Rng(11));
  const auto pairs = dm::encode_pairs(sv, tv, src, tgt);

  dm::TrainerConfig tc;
  tc.steps = 500;
  tc.batch_size = 8;
  tc.lr = 1e6f;  // guaranteed numerical blow-up
  try {
    dm::train(model, pairs, tc, Rng(12));
    FAIL() << "training with lr=1e6 should diverge";
  } catch (const dm::TrainDivergence& e) {
    // Fail fast: the guard must trip long before the step budget is spent.
    EXPECT_GT(e.step(), 0u);
    EXPECT_LT(e.step(), 50u) << e.what();
    EXPECT_EQ(e.history().diverged_at_step, e.step());
    EXPECT_LE(e.history().steps_run, e.step());
    EXPECT_FALSE(std::string(e.what()).empty());
  }
}

TEST(Divergence, HistoryRecordsLossesUpToTrip) {
  dx::Corpus src, tgt;
  make_substitution_corpus(32, 4, src, tgt, 7);
  const auto sv = dx::Vocabulary::build(src);
  const auto tv = dx::Vocabulary::build(tgt);
  dm::Seq2SeqModel model(sv.size(), tv.size(), tiny_config(), Rng(3));
  const auto pairs = dm::encode_pairs(sv, tv, src, tgt);

  dm::TrainerConfig tc;
  tc.steps = 200;
  tc.batch_size = 4;
  tc.lr = 1e6f;
  try {
    dm::train(model, pairs, tc, Rng(4));
    FAIL() << "expected TrainDivergence";
  } catch (const dm::TrainDivergence& e) {
    // The history carries every loss recorded before (and including) the
    // offending step, so callers can log the trajectory.
    EXPECT_EQ(e.history().losses.size(), e.step());
  }
}

TEST(Divergence, GuardDisabledRunsFullBudget) {
  dx::Corpus src, tgt;
  make_substitution_corpus(16, 4, src, tgt, 9);
  const auto sv = dx::Vocabulary::build(src);
  const auto tv = dx::Vocabulary::build(tgt);
  dm::Seq2SeqModel model(sv.size(), tv.size(), tiny_config(), Rng(5));
  const auto pairs = dm::encode_pairs(sv, tv, src, tgt);

  dm::TrainerConfig tc;
  tc.steps = 30;
  tc.batch_size = 4;
  tc.lr = 0.01f;
  tc.divergence_factor = 0.0;  // disabled: a healthy run is unaffected
  const auto history = dm::train(model, pairs, tc, Rng(6));
  EXPECT_EQ(history.steps_run, 30u);
  EXPECT_EQ(history.diverged_at_step, 0u);
}

TEST(Divergence, HealthyTrainingNeverTrips) {
  dx::Corpus src, tgt;
  make_substitution_corpus(32, 4, src, tgt, 13);
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.trainer.steps = 100;
  cfg.trainer.batch_size = 4;
  cfg.trainer.lr = 0.01f;
  // Default divergence_factor stays armed; a normal run must not trip it.
  EXPECT_NO_THROW(dm::train_translation_model(src, tgt, cfg, 21));
}

// translate_batch() runs the decode that keeps no backward state;
// translate() steps through the training path's cached forward pass. Each
// row of the batch must come out bit-identical to its sequential decode.
TEST(DecodeParity, BatchIsBitIdenticalToSequentialAtOneSevenAndThirtyTwoRows) {
  for (const auto score : {desmine::nn::AttentionScore::kGeneral,
                           desmine::nn::AttentionScore::kDot}) {
    dm::Seq2SeqConfig cfg = tiny_config();
    cfg.num_layers = 2;  // the decode's per-layer h/c slots
    cfg.attention = score;
    dm::Seq2SeqModel model(10, 10, cfg, Rng(21));
    // A few training steps so the decodes are neither empty nor all capped.
    std::vector<dm::EncodedPair> pairs;
    for (const auto& src : ragged_sources(16, 5)) {
      pairs.push_back({src, std::vector<std::int32_t>(src.rbegin(), src.rend())});
    }
    dm::TrainerConfig tc;
    tc.steps = 60;
    tc.batch_size = 4;
    dm::train(model, pairs, tc, Rng(22));

    std::size_t nonempty = 0;
    for (const std::size_t rows : {1u, 7u, 32u}) {
      const auto sources = ragged_sources(rows, 100 + rows);
      const auto batch = model.translate_batch(pointers(sources));
      ASSERT_EQ(batch.size(), rows);
      for (std::size_t i = 0; i < rows; ++i) {
        EXPECT_EQ(batch[i], model.translate(sources[i])) << rows << " rows, row " << i;
        nonempty += !batch[i].empty();
      }
    }
    EXPECT_GT(nonempty, 0u);
  }
}

// The decode's arena holds the encoder outputs, their attention transform,
// each layer's h/c and one step's scratch; the cached pass of translate()
// keeps every step's gates and attention state as well. Dimensions are
// multiples of the arena's 16-float alignment, so 32 times the cached
// pass's one-row peak is its 32-row peak.
TEST(DecodeParity, ThirtyTwoRowWorkspaceIsUnderAQuarterAndCapFree) {
  dm::Seq2SeqConfig cfg = tiny_config();
  cfg.num_layers = 2;
  const std::size_t vocab = 32;
  std::vector<std::vector<std::int32_t>> sources(32);
  Rng rng(3);
  for (auto& s : sources) {
    for (std::size_t i = 0; i < 16; ++i) {
      s.push_back(static_cast<std::int32_t>(4 + rng.index(vocab - 4)));
    }
  }
  const auto peak = [&](std::size_t cap, bool batch) {
    cfg.max_decode_length = cap;
    dm::Seq2SeqModel model(vocab, vocab, cfg, Rng(9));  // same weights each time
    if (batch) {
      model.translate_batch(pointers(sources));
    } else {
      for (const auto& s : sources) model.translate(s);
    }
    return model.workspace().stats().bytes_peak;
  };
  const std::size_t cached_short = peak(8, false), cached_long = peak(64, false);
  const std::size_t batch_short = peak(8, true), batch_long = peak(64, true);
  EXPECT_GT(cached_long, cached_short);  // the untrained rows run past 8 steps
  EXPECT_EQ(batch_long, batch_short);
  EXPECT_LT(4 * batch_long, 32 * cached_long);
}
