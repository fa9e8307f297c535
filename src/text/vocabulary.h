// Token vocabulary with the special symbols the seq2seq model needs.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace desmine::text {

/// A sentence is an ordered list of word tokens.
using Sentence = std::vector<std::string>;
using Corpus = std::vector<Sentence>;

/// Bidirectional token<->id map. Ids 0..3 are reserved:
///   <pad>=0 (padding), <unk>=1 (unseen state, §II-A1 of the paper),
///   <s>=2 (decoder start), </s>=3 (decoder stop).
class Vocabulary {
 public:
  static constexpr std::int32_t kPad = 0;
  static constexpr std::int32_t kUnk = 1;
  static constexpr std::int32_t kBos = 2;
  static constexpr std::int32_t kEos = 3;
  /// The id to encode a BLEU reference's unknown words with: no model
  /// outputs it, so such a word matches no candidate token, as its string
  /// matches no decoded word. Against a decode's ids less markup, the
  /// reference then scores exactly as its words against decode()'s words.
  static constexpr std::int32_t kNoMatch = -1;

  /// True for <pad>, <s> and </s>, the ids decode() skips (<unk> is kept:
  /// it stands for an unseen state).
  static constexpr bool is_markup(std::int32_t id) {
    return id == kPad || id == kBos || id == kEos;
  }

  Vocabulary();

  /// Build from a corpus: every distinct word becomes an id (insertion order
  /// after the specials, so construction is deterministic).
  static Vocabulary build(const Corpus& corpus);

  /// Id for a token; kUnk when the token is unknown.
  std::int32_t id(const std::string& token) const;

  /// Token for an id; throws on out-of-range ids.
  const std::string& token(std::int32_t id) const;

  bool contains(const std::string& token) const;

  /// Total entries including the four specials.
  std::size_t size() const { return tokens_.size(); }

  /// Encode a sentence to ids; an unknown word becomes `unknown`.
  std::vector<std::int32_t> encode(const Sentence& sentence,
                                   std::int32_t unknown = kUnk) const;

  /// Decode ids to tokens, skipping pad/bos/eos.
  Sentence decode(const std::vector<std::int32_t>& ids) const;

 private:
  void add(const std::string& token);

  std::unordered_map<std::string, std::int32_t> index_;
  std::vector<std::string> tokens_;
};

}  // namespace desmine::text
