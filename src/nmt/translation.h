// High-level translation artifact: vocabularies + trained Seq2SeqModel.
//
// This is the directional pairwise model g(i, j) of Algorithm 1. Training
// happens on aligned sentence corpora from the source and target sensors;
// scoring translates a corpus greedily and reports corpus BLEU against the
// reference — the paper's s(i, j) during training and f(i, j) during testing.
#pragma once

#include <memory>
#include <vector>

#include "nmt/seq2seq.h"
#include "nmt/trainer.h"
#include "text/bleu.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace desmine::nmt {

struct TranslationConfig {
  Seq2SeqConfig model{};
  TrainerConfig trainer{};
  text::BleuOptions bleu{};
};

class TranslationModel {
 public:
  /// Rows per translate_batch() pass in translate_corpus().
  static constexpr std::size_t kCorpusDecodeRows = 16;

  TranslationModel(text::Vocabulary src_vocab, text::Vocabulary tgt_vocab,
                   std::unique_ptr<Seq2SeqModel> model);

  /// Translate one sentence (token strings in, token strings out). Unknown
  /// source tokens map to <unk>, matching the paper's reserved symbol. The
  /// sequential reference decoder: no production path calls it; the
  /// batch-parity tests compare translate_batch() against it.
  text::Sentence translate(const text::Sentence& source);

  /// Corpus BLEU (0..100) of greedy translations of `source` against
  /// `reference` (decoded by translate_corpus()). Corpora must be aligned
  /// sentence-by-sentence.
  text::BleuBreakdown score(const text::Corpus& source,
                            const text::Corpus& reference,
                            const text::BleuOptions& options = {});

  /// Translate a batch of sentences in one stacked greedy decode
  /// (decode_ids()), bit-identical per sentence to translate().
  std::vector<text::Sentence> translate_batch(
      const std::vector<const text::Sentence*>& sources);

  /// Greedy-decode source ids (src_vocab().encode()) in one stacked pass of
  /// Seq2SeqModel::translate_batch and return each output's ids with the
  /// markup decode() drops removed: ready for id BLEU against a reference
  /// encoded with Vocabulary::kNoMatch. Duplicate sources — the common case for
  /// periodic discrete event streams — are decoded once and fanned back out.
  std::vector<std::vector<std::int32_t>> decode_ids(
      const std::vector<const std::vector<std::int32_t>*>& sources);

  /// Translate any number of sentences, none included, through
  /// translate_batch() in passes of at most kCorpusDecodeRows. The model's
  /// workspace keeps its high-water mark, so one pass over a whole corpus
  /// would pin memory proportional to the corpus in every model that ever
  /// decoded one. Element i is bit-identical to translate(*sources[i]).
  std::vector<text::Sentence> translate_corpus(
      const std::vector<const text::Sentence*>& sources);

  const text::Vocabulary& src_vocab() const { return src_vocab_; }
  const text::Vocabulary& tgt_vocab() const { return tgt_vocab_; }
  Seq2SeqModel& model() { return *model_; }

  /// Keep `pin` alive as long as this model: a mapped model's weights are
  /// views into an io::ArtifactMap's pages, so the map must outlive every
  /// reader (DESIGN.md §15). Idempotent per pin; owned models never call it.
  void pin_storage(std::shared_ptr<const void> pin) {
    storage_pin_ = std::move(pin);
  }

 private:
  text::Vocabulary src_vocab_;
  text::Vocabulary tgt_vocab_;
  std::unique_ptr<Seq2SeqModel> model_;
  std::shared_ptr<const void> storage_pin_;
};

/// Encode aligned string corpora into id pairs with the given vocabularies.
std::vector<EncodedPair> encode_pairs(const text::Vocabulary& src_vocab,
                                      const text::Vocabulary& tgt_vocab,
                                      const text::Corpus& source,
                                      const text::Corpus& target);

/// Algorithm 1, one edge: build vocabularies from the training corpora,
/// train a Seq2SeqModel on the aligned pairs, and return the artifact.
/// When `history` is non-null, the training history (per-step losses, steps
/// run) is copied out for telemetry. `workspace`, if given, backs the
/// model's hot path (e.g. the miner's per-thread arena, reused across
/// pairs); the model must remain its only concurrent user.
TranslationModel train_translation_model(const text::Corpus& train_source,
                                         const text::Corpus& train_target,
                                         const TranslationConfig& config,
                                         std::uint64_t seed,
                                         TrainingHistory* history = nullptr,
                                         tensor::Workspace* workspace = nullptr);

}  // namespace desmine::nmt
