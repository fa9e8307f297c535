// BLEU — BiLingual Evaluation Understudy (Papineni et al., ACL 2002).
//
// The paper uses corpus BLEU on a 0–100 scale as the pairwise relationship
// metric s(i,j) between sensor languages (§II-A3). This implementation is
// the standard formulation: geometric mean of modified n-gram precisions up
// to max_order, times a brevity penalty, with optional +1 smoothing
// (Lin & Och) so short sensor sentences with a missing n-gram order do not
// collapse the score to zero.
//
// Every entry point counts n-grams over token ids: the id overload scores a
// decode's ids directly (serving), and the string overloads first give each
// distinct token one id. Two tokens match exactly when their ids are equal,
// so the counts, and the scores, are those of comparing the strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "text/vocabulary.h"

namespace desmine::text {

struct BleuOptions {
  std::size_t max_order = 4;
  bool smooth = true;  ///< add-one smoothing on zero precision counts
};

struct BleuBreakdown {
  double score = 0.0;  ///< 0..100
  double brevity_penalty = 1.0;
  std::vector<double> precisions;  ///< per n-gram order, 0..1
  std::size_t candidate_length = 0;
  std::size_t reference_length = 0;
};

/// Corpus-level BLEU between aligned candidate/reference sentence lists.
/// Requires equal list sizes; empty corpora score 0.
BleuBreakdown corpus_bleu(const Corpus& candidates, const Corpus& references,
                          const BleuOptions& options = {});

/// Sentence-level BLEU (a corpus of one).
BleuBreakdown sentence_bleu(const Sentence& candidate,
                            const Sentence& reference,
                            const BleuOptions& options = {});

/// Sentence-level BLEU over token ids, for any order and length. A decode's
/// ids less markup against its reference encoded with Vocabulary::kNoMatch
/// score as the decoded words against the reference words.
BleuBreakdown sentence_bleu(std::span<const std::int32_t> candidate,
                            std::span<const std::int32_t> reference,
                            const BleuOptions& options = {});

}  // namespace desmine::text
