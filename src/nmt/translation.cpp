#include "nmt/translation.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/trace.h"
#include "util/error.h"

namespace desmine::nmt {

TranslationModel::TranslationModel(text::Vocabulary src_vocab,
                                   text::Vocabulary tgt_vocab,
                                   std::unique_ptr<Seq2SeqModel> model)
    : src_vocab_(std::move(src_vocab)),
      tgt_vocab_(std::move(tgt_vocab)),
      model_(std::move(model)) {
  DESMINE_EXPECTS(model_ != nullptr, "translation model must be non-null");
}

text::Sentence TranslationModel::translate(const text::Sentence& source) {
  const std::vector<std::int32_t> ids = src_vocab_.encode(source);
  return tgt_vocab_.decode(model_->translate(ids));
}

text::BleuBreakdown TranslationModel::score(const text::Corpus& source,
                                            const text::Corpus& reference,
                                            const text::BleuOptions& options) {
  DESMINE_EXPECTS(source.size() == reference.size(),
                  "source/reference corpora must align");
  std::vector<const text::Sentence*> sources;
  sources.reserve(source.size());
  for (const text::Sentence& s : source) sources.push_back(&s);
  return text::corpus_bleu(translate_corpus(sources), reference, options);
}

std::vector<text::Sentence> TranslationModel::translate_batch(
    const std::vector<const text::Sentence*>& sources) {
  std::vector<std::vector<std::int32_t>> encoded;
  encoded.reserve(sources.size());
  for (const text::Sentence* source : sources) {
    DESMINE_EXPECTS(source != nullptr, "null source sentence");
    encoded.push_back(src_vocab_.encode(*source));
  }
  std::vector<const std::vector<std::int32_t>*> ids;
  for (const auto& e : encoded) ids.push_back(&e);
  std::vector<text::Sentence> out;
  out.reserve(sources.size());
  for (const auto& d : decode_ids(ids)) out.push_back(tgt_vocab_.decode(d));
  return out;
}

std::vector<std::vector<std::int32_t>> TranslationModel::decode_ids(
    const std::vector<const std::vector<std::int32_t>*>& sources) {
  DESMINE_EXPECTS(!sources.empty(), "cannot translate an empty batch");
  // Greedy decoding is a pure function of the source ids, so one decode
  // serves every occurrence and the fan-out stays bit-identical.
  const auto deref_less = [](const std::vector<std::int32_t>* a,
                             const std::vector<std::int32_t>* b) {
    return *a < *b;
  };
  std::map<const std::vector<std::int32_t>*, std::size_t,
           decltype(deref_less)>
      seen(deref_less);
  std::vector<const std::vector<std::int32_t>*> unique;
  std::vector<std::size_t> slot(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    DESMINE_EXPECTS(sources[i] != nullptr, "null source sentence");
    const auto [it, inserted] = seen.emplace(sources[i], unique.size());
    if (inserted) unique.push_back(sources[i]);
    slot[i] = it->second;
  }
  std::vector<std::vector<std::int32_t>> decoded =
      model_->translate_batch(unique);
  for (auto& ids : decoded) std::erase_if(ids, text::Vocabulary::is_markup);
  if (unique.size() == sources.size()) return decoded;
  std::vector<std::vector<std::int32_t>> out;
  out.reserve(sources.size());
  for (const std::size_t k : slot) out.push_back(decoded[k]);
  return out;
}

std::vector<text::Sentence> TranslationModel::translate_corpus(
    const std::vector<const text::Sentence*>& sources) {
  std::vector<text::Sentence> out;
  out.reserve(sources.size());
  for (auto first = sources.begin(); first != sources.end();) {
    const auto last = first + std::min<std::ptrdiff_t>(
                                  sources.end() - first, kCorpusDecodeRows);
    const std::vector<const text::Sentence*> pass(first, last);
    for (text::Sentence& s : translate_batch(pass)) out.push_back(std::move(s));
    first = last;
  }
  return out;
}

std::vector<EncodedPair> encode_pairs(const text::Vocabulary& src_vocab,
                                      const text::Vocabulary& tgt_vocab,
                                      const text::Corpus& source,
                                      const text::Corpus& target) {
  DESMINE_EXPECTS(source.size() == target.size(),
                  "parallel corpora must align");
  std::vector<EncodedPair> pairs;
  pairs.reserve(source.size());
  for (std::size_t s = 0; s < source.size(); ++s) {
    pairs.push_back({src_vocab.encode(source[s]), tgt_vocab.encode(target[s])});
  }
  return pairs;
}

TranslationModel train_translation_model(const text::Corpus& train_source,
                                         const text::Corpus& train_target,
                                         const TranslationConfig& config,
                                         std::uint64_t seed,
                                         TrainingHistory* history,
                                         tensor::Workspace* workspace) {
  DESMINE_EXPECTS(!train_source.empty(), "training corpus must be non-empty");
  text::Vocabulary src_vocab = text::Vocabulary::build(train_source);
  text::Vocabulary tgt_vocab = text::Vocabulary::build(train_target);

  util::Rng rng(seed);
  auto model = std::make_unique<Seq2SeqModel>(
      src_vocab.size(), tgt_vocab.size(), config.model, rng.fork(1),
      workspace);
  const std::vector<EncodedPair> pairs =
      encode_pairs(src_vocab, tgt_vocab, train_source, train_target);
  {
    obs::Span span("train");
    TrainingHistory h = train(*model, pairs, config.trainer, rng.fork(2));
    span.annotate(obs::kv("steps", h.steps_run));
    span.annotate(obs::kv("final_loss", h.final_loss));
    if (history) *history = std::move(h);
  }

  return TranslationModel(std::move(src_vocab), std::move(tgt_vocab),
                          std::move(model));
}

}  // namespace desmine::nmt
