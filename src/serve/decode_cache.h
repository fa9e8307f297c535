// One edge's decode memo for serving: source ids -> BLEU candidate ids.
//
// Greedy decoding is a pure function of the source ids, so a hit is
// bit-identical to a fresh decode. At most `capacity` entries are held, and
// a full cache evicts one entry per insert by CLOCK: a hit marks its entry,
// and the hand walks the slots in insertion order, unmarking, up to the
// first unmarked entry, which it replaces. An entry is at most
// sentence_length + max_decode_length ids, so the bound is also one in bytes
// (DESIGN.md §11). Not thread-safe: one worker uses an edge's cache at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace desmine::serve {

class DecodeCache {
 public:
  using Ids = std::vector<std::int32_t>;

  /// `capacity` 0 disables caching: find() always misses.
  explicit DecodeCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// The candidate cached for `source` (valid until the next insert), or
  /// nullptr.
  const Ids* find(const Ids& source) {
    const auto it = map_.find(source);
    if (it == map_.end()) return nullptr;
    it->second.referenced = true;
    return &it->second.candidate;
  }

  /// Cache `candidate` for `source` unless present. True when an entry was
  /// evicted to make room.
  bool insert(const Ids& source, Ids candidate) {
    if (capacity_ == 0 || map_.count(source) != 0) return false;
    const bool full = ring_.size() == capacity_;
    if (full) {
      for (; ring_[hand_]->second.referenced; hand_ = (hand_ + 1) % capacity_) {
        ring_[hand_]->second.referenced = false;
      }
      map_.erase(map_.find(ring_[hand_]->first));
    } else {
      ring_.emplace_back();
      hand_ = ring_.size() - 1;
    }
    ring_[hand_] = &*map_.emplace(source, Entry{std::move(candidate)}).first;
    hand_ = (hand_ + 1) % capacity_;
    return full;
  }

  std::size_t size() const { return map_.size(); }

 private:
  struct Entry {
    Ids candidate;
    bool referenced = false;  ///< hit since the hand last passed
  };
  struct IdsHash {
    std::size_t operator()(const Ids& ids) const noexcept {
      return std::hash<std::string_view>{}(
          {reinterpret_cast<const char*>(ids.data()),
           ids.size() * sizeof(std::int32_t)});
    }
  };
  using Map = std::unordered_map<Ids, Entry, IdsHash>;

  std::size_t capacity_;
  Map map_;
  std::vector<Map::value_type*> ring_;  ///< entry per slot; rehash-stable
  std::size_t hand_ = 0;
};

}  // namespace desmine::serve
