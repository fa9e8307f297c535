// Unit and property tests for the vocabulary and BLEU implementation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "text/bleu.h"
#include "text/vocabulary.h"
#include "util/error.h"
#include "util/rng.h"

namespace dx = desmine::text;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Clipped matches and candidate totals of one order, counted the plain
/// way: every n-gram as a vector of strings in a std::map.
std::pair<std::size_t, std::size_t> naive_counts(const dx::Sentence& cand,
                                                 const dx::Sentence& ref,
                                                 std::size_t n) {
  const auto grams = [n](const dx::Sentence& s) {
    std::map<dx::Sentence, std::size_t> out;
    for (std::size_t i = 0; i + n <= s.size(); ++i) {
      ++out[dx::Sentence(s.begin() + i, s.begin() + i + n)];
    }
    return out;
  };
  const auto c = grams(cand), r = grams(ref);
  std::size_t matched = 0, total = 0;
  for (const auto& [gram, count] : c) {
    total += count;
    if (const auto it = r.find(gram); it != r.end()) {
      matched += std::min(count, it->second);
    }
  }
  return {matched, total};
}

}  // namespace

// ----------------------------------------------------------- vocabulary ----

TEST(Vocabulary, SpecialsReserved) {
  dx::Vocabulary v;
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.token(dx::Vocabulary::kPad), "<pad>");
  EXPECT_EQ(v.token(dx::Vocabulary::kUnk), "<unk>");
  EXPECT_EQ(v.token(dx::Vocabulary::kBos), "<s>");
  EXPECT_EQ(v.token(dx::Vocabulary::kEos), "</s>");
}

TEST(Vocabulary, BuildAssignsInsertionOrder) {
  const dx::Corpus corpus = {{"bb", "aa"}, {"aa", "cc"}};
  const auto v = dx::Vocabulary::build(corpus);
  EXPECT_EQ(v.size(), 7u);
  EXPECT_EQ(v.id("bb"), 4);
  EXPECT_EQ(v.id("aa"), 5);
  EXPECT_EQ(v.id("cc"), 6);
}

TEST(Vocabulary, UnknownMapsToUnk) {
  const auto v = dx::Vocabulary::build({{"x"}});
  EXPECT_EQ(v.id("never-seen"), dx::Vocabulary::kUnk);
  EXPECT_FALSE(v.contains("never-seen"));
  EXPECT_TRUE(v.contains("x"));
}

TEST(Vocabulary, EncodeDecodeRoundTrip) {
  const auto v = dx::Vocabulary::build({{"a", "b", "c"}});
  const auto ids = v.encode({"c", "a", "zzz"});
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[2], dx::Vocabulary::kUnk);
  const auto back = v.decode(ids);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], "c");
  EXPECT_EQ(back[2], "<unk>");
}

TEST(Vocabulary, DecodeSkipsStructuralSpecials) {
  const auto v = dx::Vocabulary::build({{"a"}});
  const auto s = v.decode({dx::Vocabulary::kBos, 4, dx::Vocabulary::kEos,
                           dx::Vocabulary::kPad});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], "a");
}

TEST(Vocabulary, TokenRangeChecked) {
  dx::Vocabulary v;
  EXPECT_THROW(v.token(99), desmine::PreconditionError);
  EXPECT_THROW(v.token(-1), desmine::PreconditionError);
}

// ----------------------------------------------------------- BLEU ----------

TEST(Bleu, PerfectTranslationScores100) {
  const dx::Sentence s = {"a", "b", "c", "d", "e"};
  const auto b = dx::sentence_bleu(s, s);
  EXPECT_NEAR(b.score, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(b.brevity_penalty, 1.0);
  for (double p : b.precisions) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(Bleu, CompletelyWrongScoresNearZero) {
  const dx::Sentence cand = {"x", "y", "z", "w"};
  const dx::Sentence ref = {"a", "b", "c", "d"};
  dx::BleuOptions opts;
  opts.smooth = false;
  EXPECT_DOUBLE_EQ(dx::sentence_bleu(cand, ref, opts).score, 0.0);
  // Smoothed score is small but positive.
  opts.smooth = true;
  const double s = dx::sentence_bleu(cand, ref, opts).score;
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 40.0);  // +1 smoothing floors short sentences around 30
}

TEST(Bleu, BrevityPenaltyAppliedForShortCandidates) {
  const dx::Sentence ref = {"a", "b", "c", "d", "e", "f"};
  const dx::Sentence cand = {"a", "b", "c"};
  const auto b = dx::sentence_bleu(cand, ref);
  EXPECT_LT(b.brevity_penalty, 1.0);
  EXPECT_NEAR(b.brevity_penalty, std::exp(1.0 - 6.0 / 3.0), 1e-12);
}

TEST(Bleu, NoBrevityPenaltyForLongCandidates) {
  const dx::Sentence ref = {"a", "b", "c"};
  const dx::Sentence cand = {"a", "b", "c", "d", "e"};
  EXPECT_DOUBLE_EQ(dx::sentence_bleu(cand, ref).brevity_penalty, 1.0);
}

TEST(Bleu, ModifiedPrecisionClipsRepeats) {
  // Candidate repeating a reference word must not inflate precision
  // (the classic "the the the" example from the BLEU paper).
  const dx::Sentence cand = {"the", "the", "the", "the"};
  const dx::Sentence ref = {"the", "cat", "sat", "there"};
  dx::BleuOptions opts;
  opts.max_order = 1;
  opts.smooth = false;
  const auto b = dx::sentence_bleu(cand, ref, opts);
  EXPECT_NEAR(b.precisions[0], 0.25, 1e-12);  // clipped to 1 occurrence
}

TEST(Bleu, CorpusLevelAggregatesOverSentences) {
  const dx::Corpus cands = {{"a", "b", "c", "d"}, {"x", "x", "x", "x"}};
  const dx::Corpus refs = {{"a", "b", "c", "d"}, {"a", "b", "c", "d"}};
  const auto whole = dx::corpus_bleu(cands, refs);
  const auto perfect = dx::corpus_bleu({cands[0]}, {refs[0]});
  EXPECT_LT(whole.score, perfect.score);
  EXPECT_GT(whole.score, 0.0);
}

TEST(Bleu, EmptyCorpusScoresZero) {
  const auto b = dx::corpus_bleu({}, {});
  EXPECT_DOUBLE_EQ(b.score, 0.0);
}

TEST(Bleu, MisalignedCorporaThrow) {
  EXPECT_THROW(dx::corpus_bleu({{"a"}}, {}), desmine::PreconditionError);
}

TEST(Bleu, MoreOverlapScoresHigher) {
  const dx::Sentence ref = {"a", "b", "c", "d", "e", "f", "g", "h"};
  const dx::Sentence close = {"a", "b", "c", "d", "e", "f", "x", "y"};
  const dx::Sentence far = {"a", "x", "c", "y", "e", "z", "g", "w"};
  EXPECT_GT(dx::sentence_bleu(close, ref).score,
            dx::sentence_bleu(far, ref).score);
}

TEST(Bleu, ScoreIsBounded) {
  desmine::util::Rng rng(9);
  const std::vector<std::string> alphabet = {"a", "b", "c"};
  for (int trial = 0; trial < 50; ++trial) {
    dx::Sentence cand, ref;
    const std::size_t cl = 1 + rng.index(10);
    const std::size_t rl = 1 + rng.index(10);
    for (std::size_t i = 0; i < cl; ++i) cand.push_back(alphabet[rng.index(3)]);
    for (std::size_t i = 0; i < rl; ++i) ref.push_back(alphabet[rng.index(3)]);
    const auto b = dx::sentence_bleu(cand, ref);
    EXPECT_GE(b.score, 0.0);
    EXPECT_LE(b.score, 100.0 + 1e-9);
  }
}

TEST(Bleu, ShortSentencesBelowMaxOrderStillScore) {
  // 2-token sentences have no 3-/4-grams; smoothing must keep the geometric
  // mean finite (this is the sensor-language case with tiny sentences).
  const dx::Sentence s = {"a", "b"};
  const auto b = dx::sentence_bleu(s, s);
  EXPECT_GT(b.score, 50.0);
  EXPECT_LE(b.score, 100.0);
}

TEST(Bleu, OutOfVocabularyReferenceWordNeverMatches) {
  dx::Vocabulary v = dx::Vocabulary::build({{"a", "b"}});
  const dx::Sentence ref = {"a", "zz", "qq", "b"};
  const std::vector<std::int32_t> ref_ids = v.encode(ref, dx::Vocabulary::kNoMatch);
  EXPECT_EQ(ref_ids, (std::vector<std::int32_t>{v.id("a"), dx::Vocabulary::kNoMatch,
                                                dx::Vocabulary::kNoMatch, v.id("b")}));
  // The model emitted <unk> where the reference holds unseen words: as
  // strings "<unk>" equals neither, and as ids kUnk equals neither.
  const std::vector<std::int32_t> cand = {v.id("a"), dx::Vocabulary::kUnk,
                                          dx::Vocabulary::kUnk, v.id("b")};
  dx::BleuOptions opts;
  opts.max_order = 2;
  opts.smooth = false;
  const auto by_ids = dx::sentence_bleu(cand, ref_ids, opts);
  EXPECT_DOUBLE_EQ(by_ids.precisions[0], 0.5);  // a and b only
  EXPECT_DOUBLE_EQ(by_ids.precisions[1], 0.0);
  const auto by_words = dx::sentence_bleu(v.decode(cand), ref, opts);
  EXPECT_EQ(bits(by_ids.precisions[0]), bits(by_words.precisions[0]));
  EXPECT_EQ(bits(by_ids.score), bits(by_words.score));
  // Plain encode() maps both unseen words to <unk> and would score the
  // emitted <unk>s as matches.
  EXPECT_DOUBLE_EQ(dx::sentence_bleu(cand, v.encode(ref), opts).score, 100.0);
}

TEST(Bleu, IdAndStringPathsCountLikeTheNaiveMapAtAnyOrderAndLength) {
  desmine::util::Rng rng(2024);
  const std::vector<std::string> words = {"w0", "w1", "w2", "w3", "w4", "w5"};
  const dx::Vocabulary vocab = dx::Vocabulary::build({{"w0", "w1", "w2", "w3"}});
  const auto random_sentence = [&](std::size_t length) {
    dx::Sentence s;
    // Few distinct words, so long n-grams repeat and clip.
    for (std::size_t i = 0; i < length; ++i) s.push_back(words[rng.index(i % 3 ? 2 : 6)]);
    return s;
  };
  // Lengths past 512 tokens and orders past 4 included.
  for (const std::size_t length : {0u, 1u, 3u, 20u, 300u, 700u}) {
    for (const std::size_t order : {1u, 4u, 5u, 7u}) {
      for (const bool smooth : {true, false}) {
        const dx::Sentence ref = random_sentence(length);
        dx::Sentence cand = random_sentence(length + rng.index(3));
        // Candidates are decodes: in-vocabulary words or <unk>.
        for (std::string& w : cand) {
          if (!vocab.contains(w)) w = "<unk>";
        }
        dx::BleuOptions opts;
        opts.max_order = order;
        opts.smooth = smooth;
        const auto by_words = dx::sentence_bleu(cand, ref, opts);
        const auto by_ids =
            dx::sentence_bleu(vocab.encode(cand), vocab.encode(ref, dx::Vocabulary::kNoMatch), opts);
        const auto corpus = dx::corpus_bleu({cand, ref}, {ref, cand}, opts);
        EXPECT_EQ(bits(by_ids.score), bits(by_words.score)) << length << "/" << order;
        for (std::size_t n = 1; n <= order; ++n) {
          const auto [matched, total] = naive_counts(cand, ref, n);
          const auto [m2, t2] = naive_counts(ref, cand, n);
          double num = static_cast<double>(matched), den = static_cast<double>(total);
          if (smooth && (num == 0.0 || den == 0.0)) num += 1.0, den += 1.0;
          if (by_words.score == 0.0 && !smooth) break;  // precisions stop at a zero order
          EXPECT_EQ(bits(by_words.precisions[n - 1]), bits(den == 0.0 ? 0.0 : num / den))
              << length << "/" << order << "/" << n;
          EXPECT_EQ(bits(by_ids.precisions[n - 1]), bits(by_words.precisions[n - 1]));
          double cnum = static_cast<double>(matched + m2), cden = static_cast<double>(total + t2);
          if (smooth && (cnum == 0.0 || cden == 0.0)) cnum += 1.0, cden += 1.0;
          if (corpus.score == 0.0 && !smooth) break;
          EXPECT_EQ(bits(corpus.precisions[n - 1]), bits(cden == 0.0 ? 0.0 : cnum / cden));
        }
      }
    }
  }
}
