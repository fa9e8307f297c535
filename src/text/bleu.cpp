#include "text/bleu.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "util/error.h"

namespace desmine::text {

namespace {

using Ids = std::span<const std::int32_t>;

/// Clipped n-gram matches and candidate n-gram totals, per order, summed
/// over the sentence pairs of a corpus.
struct Counts {
  explicit Counts(std::size_t max_order)
      : matched(max_order, 0), total(max_order, 0) {}
  std::vector<std::size_t> matched, total;
  std::size_t candidate_length = 0, reference_length = 0;

  /// One distinct n-gram of the current order (open addressing).
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t rank = 0, in_cand = 0, in_ref = 0;
    bool used = false;
  };
  std::vector<Slot> table;
  std::vector<std::size_t> distinct;  ///< used slots, in rank order
  std::vector<std::uint32_t> rank;    ///< per position, candidate first

  /// Count one pair, order by order. An n-gram's key packs the rank of its
  /// (n-1)-gram prefix among both sentences' (n-1)-grams over its last id,
  /// so equal keys mean equal n-grams, at any order and length. Each
  /// distinct n-gram's candidate count, clipped by its reference count, is
  /// its match (modified precision).
  void add(Ids cand, Ids ref) {
    candidate_length += cand.size();
    reference_length += ref.size();
    const std::size_t nc = cand.size();
    rank.assign(nc + ref.size(), 0);
    std::size_t bits = 1;
    while ((std::size_t{1} << bits) < 2 * rank.size()) ++bits;
    table.assign(std::size_t{1} << bits, Slot{});
    distinct.clear();
    for (std::size_t n = 1; n <= matched.size(); ++n) {
      for (const std::size_t h : distinct) table[h] = Slot{};
      distinct.clear();
      const auto count = [&](Ids s, std::size_t offset, bool is_cand) {
        for (std::size_t i = 0; i + n <= s.size(); ++i) {
          std::uint32_t& r = rank[offset + i];
          const std::uint64_t key =
              std::uint64_t{r} << 32 | static_cast<std::uint32_t>(s[i + n - 1]);
          std::size_t h = (key * 0x9E3779B97F4A7C15ull) >> (64 - bits);
          while (table[h].used && table[h].key != key) {
            h = (h + 1) & (table.size() - 1);
          }
          Slot& slot = table[h];
          if (!slot.used) {
            slot = {key, static_cast<std::uint32_t>(distinct.size()), 0, 0,
                    true};
            distinct.push_back(h);
          }
          ++(is_cand ? slot.in_cand : slot.in_ref);
          r = slot.rank;
        }
      };
      count(cand, 0, true);
      count(ref, nc, false);
      for (const std::size_t h : distinct) {
        total[n - 1] += table[h].in_cand;
        matched[n - 1] += std::min(table[h].in_cand, table[h].in_ref);
      }
    }
  }
};

/// Each distinct token's id, in first-seen order; views the scored strings.
using TokenIds = std::unordered_map<std::string_view, std::int32_t>;

Ids to_ids(const Sentence& sentence, TokenIds& ids,
           std::vector<std::int32_t>& out) {
  out.clear();
  for (const std::string& token : sentence) {
    out.push_back(
        ids.try_emplace(token, static_cast<std::int32_t>(ids.size())).first->second);
  }
  return out;
}

/// Turn the summed counts into the smoothed geometric-mean BLEU. Identical
/// arithmetic for every entry point.
BleuBreakdown finalize(const Counts& counts, const BleuOptions& options) {
  BleuBreakdown out;
  out.precisions.assign(options.max_order, 0.0);
  out.candidate_length = counts.candidate_length;
  out.reference_length = counts.reference_length;

  double log_precision_sum = 0.0;
  for (std::size_t order = 0; order < options.max_order; ++order) {
    double num = static_cast<double>(counts.matched[order]);
    double den = static_cast<double>(counts.total[order]);
    if (options.smooth && (num == 0.0 || den == 0.0)) {
      num += 1.0;
      den += 1.0;
    }
    if (num == 0.0 || den == 0.0) {
      // Unsmoothed zero precision: BLEU is exactly 0.
      out.precisions[order] = 0.0;
      out.score = 0.0;
      out.brevity_penalty =
          out.candidate_length >= out.reference_length
              ? 1.0
              : std::exp(1.0 - static_cast<double>(out.reference_length) /
                                   std::max<double>(1.0, static_cast<double>(
                                                             out.candidate_length)));
      return out;
    }
    out.precisions[order] = num / den;
    log_precision_sum += std::log(num / den);
  }

  const double geo_mean =
      std::exp(log_precision_sum / static_cast<double>(options.max_order));

  if (out.candidate_length >= out.reference_length) {
    out.brevity_penalty = 1.0;
  } else if (out.candidate_length == 0) {
    out.brevity_penalty = 0.0;
  } else {
    out.brevity_penalty =
        std::exp(1.0 - static_cast<double>(out.reference_length) /
                           static_cast<double>(out.candidate_length));
  }

  out.score = 100.0 * geo_mean * out.brevity_penalty;
  return out;
}

}  // namespace

BleuBreakdown corpus_bleu(const Corpus& candidates, const Corpus& references,
                          const BleuOptions& options) {
  DESMINE_EXPECTS(candidates.size() == references.size(),
                  "candidate/reference corpora must align");
  DESMINE_EXPECTS(options.max_order >= 1, "max_order >= 1");

  if (candidates.empty()) {
    BleuBreakdown out;
    out.precisions.assign(options.max_order, 0.0);
    return out;
  }

  Counts counts(options.max_order);
  TokenIds ids;
  std::vector<std::int32_t> cand, ref;
  for (std::size_t s = 0; s < candidates.size(); ++s) {
    counts.add(to_ids(candidates[s], ids, cand), to_ids(references[s], ids, ref));
  }
  return finalize(counts, options);
}

BleuBreakdown sentence_bleu(const Sentence& candidate,
                            const Sentence& reference,
                            const BleuOptions& options) {
  TokenIds ids;
  std::vector<std::int32_t> cand, ref;
  return sentence_bleu(to_ids(candidate, ids, cand), to_ids(reference, ids, ref),
                       options);
}

BleuBreakdown sentence_bleu(Ids candidate, Ids reference,
                            const BleuOptions& options) {
  DESMINE_EXPECTS(options.max_order >= 1, "max_order >= 1");
  Counts counts(options.max_order);
  counts.add(candidate, reference);
  return finalize(counts, options);
}

}  // namespace desmine::text
