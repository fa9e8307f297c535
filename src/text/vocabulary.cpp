#include "text/vocabulary.h"

#include "util/error.h"

namespace desmine::text {

Vocabulary::Vocabulary() {
  add("<pad>");
  add("<unk>");
  add("<s>");
  add("</s>");
}

Vocabulary Vocabulary::build(const Corpus& corpus) {
  Vocabulary v;
  for (const Sentence& sentence : corpus) {
    for (const std::string& word : sentence) {
      if (!v.contains(word)) v.add(word);
    }
  }
  return v;
}

void Vocabulary::add(const std::string& token) {
  index_.emplace(token, static_cast<std::int32_t>(tokens_.size()));
  tokens_.push_back(token);
}

std::int32_t Vocabulary::id(const std::string& token) const {
  const auto it = index_.find(token);
  return it == index_.end() ? kUnk : it->second;
}

const std::string& Vocabulary::token(std::int32_t id) const {
  DESMINE_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < tokens_.size(),
                  "token id out of range");
  return tokens_[static_cast<std::size_t>(id)];
}

bool Vocabulary::contains(const std::string& token) const {
  return index_.count(token) > 0;
}

std::vector<std::int32_t> Vocabulary::encode(const Sentence& sentence,
                                             std::int32_t unknown) const {
  std::vector<std::int32_t> out;
  out.reserve(sentence.size());
  for (const std::string& word : sentence) {
    const auto it = index_.find(word);
    out.push_back(it == index_.end() ? unknown : it->second);
  }
  return out;
}

Sentence Vocabulary::decode(const std::vector<std::int32_t>& ids) const {
  Sentence out;
  out.reserve(ids.size());
  for (std::int32_t id : ids) {
    if (!is_markup(id)) out.push_back(token(id));
  }
  return out;
}

}  // namespace desmine::text
