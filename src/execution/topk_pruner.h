// TopKPruner: the per-user bounded top-k of the exact Recommend path
// (DESIGN.md §13). A bounded accumulator over (score desc, rank asc) —
// `rank` is the caller's tie-break domain (item position for Recommend) —
// that keeps the k best offers and drains them best-first.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace recdb {

class TopKPruner {
 public:
  struct Entry {
    double score = 0;
    int64_t rank = 0;    // tie-break key, ascending = better
    int64_t item_id = 0; // payload: external item id
  };

  explicit TopKPruner(size_t k) : k_(k) {}

  void Offer(double score, int64_t rank, int64_t item_id) {
    if (heap_.size() < k_) {
      heap_.push_back({score, rank, item_id});
      std::push_heap(heap_.begin(), heap_.end(), BetterEntry);
      return;
    }
    if (!Better(score, rank, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), BetterEntry);
    heap_.back() = {score, rank, item_id};
    std::push_heap(heap_.begin(), heap_.end(), BetterEntry);
  }

  /// Destructive drain, best-first: (score desc, rank asc).
  std::vector<Entry> DrainBestFirst() {
    std::vector<Entry> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.rank < b.rank;
    });
    return out;
  }

 private:
  /// (score, rank) strictly beats entry e.
  static bool Better(double score, int64_t rank, const Entry& e) {
    if (score != e.score) return score > e.score;
    return rank < e.rank;
  }
  /// Heap comparator: treat "better" as "less" so the front is the worst
  /// retained entry — the displacement target.
  static bool BetterEntry(const Entry& a, const Entry& b) {
    return Better(a.score, a.rank, b);
  }

  size_t k_;
  std::vector<Entry> heap_;  // worst at front
};

}  // namespace recdb
