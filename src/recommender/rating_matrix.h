// RatingMatrix: the in-memory user/item ratings store a model is built
// from (paper input: users U, items I, ratings R).
//
// External ids are arbitrary int64 (as stored in the ratings table); they are
// mapped to dense indices. Both user-major and item-major views are kept so
// item-item and user-user algorithms each get their natural access pattern.
//
// Freeze contract: Freeze() builds a flat-CSR base for both orientations.
// After that, Add/Remove no longer invalidate the frozen state; instead they
// maintain a *delta overlay* — per-orientation side rows (full merged copies
// of every touched row, in SoA form) and an append-only op log. CsrRow
// access becomes a merge view: rows with delta entries resolve to their side
// row, untouched rows to the base CSR, so batch kernels see exactly what a
// rebuilt CSR would contain, byte for byte (a removal simply leaves its pair
// out of the side row). A re-freeze (BuildMergedCsr, then CommitRefreeze)
// installs a base merged from ops [0, n) and keeps ops [n, m) — writes that
// landed in between — as the new overlay over it.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace recdb {

/// One (item, rating) pair inside a user vector, or (user, rating) inside an
/// item vector. `idx` is a dense index, not an external id.
struct RatingEntry {
  int32_t idx = 0;
  double rating = 0;
};

/// Frozen flat-CSR form of one orientation: row r's entries live at
/// [offsets[r], offsets[r+1]) in the parallel `idx`/`rating` arrays, sorted
/// by idx. One contiguous allocation per array — batch scoring kernels walk
/// rows without chasing a pointer per row.
struct FlatCsr {
  std::vector<int64_t> offsets;  // size = rows + 1
  std::vector<int32_t> idx;
  std::vector<double> rating;

  size_t ApproxBytes() const {
    return sizeof(FlatCsr) + offsets.capacity() * sizeof(int64_t) +
           idx.capacity() * sizeof(int32_t) +
           rating.capacity() * sizeof(double);
  }
};

/// A view of one CSR row: `n` entries, idx-ascending, contiguous.
struct CsrRow {
  const int32_t* idx = nullptr;
  const double* rating = nullptr;
  size_t n = 0;
};

/// What Add() actually did — callers use this to keep maintenance pressure
/// and the paper's GlobalMean bookkeeping honest.
enum class RatingChange {
  kInserted,     // a new (user, item) pair
  kOverwritten,  // existing pair, different value
  kUnchanged,    // existing pair, same value: a complete no-op
};

/// One entry of the delta op log kept while the matrix is frozen. Indices
/// are dense (valid against the merged matrix); the log is what incremental
/// model maintenance scopes its touched-row sets from.
struct DeltaOp {
  enum class Kind : uint8_t { kAdd, kOverwrite, kRemove };
  Kind kind = Kind::kAdd;
  int32_t user_idx = 0;
  int32_t item_idx = 0;
};

class RatingMatrix {
 public:
  RatingMatrix() = default;

  /// Add one rating. A repeated (user, item) pair overwrites the old rating;
  /// overwriting with the *same* value is a complete no-op (no delta op, no sum adjustment — see RatingChange). While frozen, the
  /// mutation lands in the delta overlay instead of invalidating the CSR.
  RatingChange Add(int64_t user_id, int64_t item_id, double rating);

  /// Remove a rating; returns false if it was not present. Interned ids
  /// remain (a user/item with no ratings keeps an empty vector). While
  /// frozen, the removal lands in the overlay (side rows + op log).
  bool Remove(int64_t user_id, int64_t item_id);

  /// One op of a multi-row statement fed to ApplyBatch.
  struct BatchRatingOp {
    bool remove = false;
    int64_t user_id = 0;
    int64_t item_id = 0;
    double rating = 0;
  };

  /// Outcome of ApplyBatch: per-kind effective-op counts plus a flag per
  /// input op (1 when it changed the matrix), aligned with the input order.
  struct BatchResult {
    size_t inserted = 0;
    size_t overwritten = 0;
    size_t removed = 0;
    size_t noops = 0;
    std::vector<uint8_t> effective;

    size_t effective_ops() const { return inserted + overwritten + removed; }
  };

  /// Apply one statement's rating mutations as a single delta batch: ops
  /// land in order (each still logs its own DeltaOp, so model maintenance
  /// sees every mutation), but each touched overlay side row is re-copied
  /// once per batch instead of once per row — the batched path a multi-row
  /// INSERT/UPDATE/DELETE takes. Equivalent to the per-op loop in everything
  /// but work done.
  BatchResult ApplyBatch(const std::vector<BatchRatingOp>& ops);

  size_t NumUsers() const { return user_ids_.size(); }
  size_t NumItems() const { return item_ids_.size(); }
  size_t NumRatings() const { return num_ratings_; }

  /// Dense index of an external id, if known.
  std::optional<int32_t> UserIndex(int64_t user_id) const;
  std::optional<int32_t> ItemIndex(int64_t item_id) const;

  int64_t UserIdAt(int32_t idx) const { return user_ids_[idx]; }
  int64_t ItemIdAt(int32_t idx) const { return item_ids_[idx]; }

  /// A user's ratings, sorted by item index (the paper's UserVector row).
  /// Always authoritative — includes delta entries while frozen.
  const std::vector<RatingEntry>& UserVector(int32_t user_idx) const {
    return by_user_[user_idx];
  }
  /// An item's ratings, sorted by user index (the paper's ItemVector row).
  const std::vector<RatingEntry>& ItemVector(int32_t item_idx) const {
    return by_item_[item_idx];
  }

  /// Rating of (user, item) by dense index, if present.
  std::optional<double> GetByIndex(int32_t user_idx, int32_t item_idx) const;

  /// Rating of (user, item) by external id, if present.
  std::optional<double> Get(int64_t user_id, int64_t item_id) const;

  /// Mean of all ratings (0 when empty).
  double GlobalMean() const;

  /// Mean of one user's / item's ratings (0 when empty).
  double UserMean(int32_t user_idx) const;
  double ItemMean(int32_t item_idx) const;

  /// All external item ids (for operators that enumerate candidates).
  const std::vector<int64_t>& item_ids() const { return item_ids_; }
  const std::vector<int64_t>& user_ids() const { return user_ids_; }

  /// Build the flat-CSR form of both orientations. First call freezes the
  /// matrix; on an already-frozen matrix with a pending delta this merges
  /// the whole overlay into a fresh base (CommitRefreeze with n =
  /// delta_size()), and with no delta it is a no-op. Model factories call
  /// this at build time so batch kernels can assume flat storage.
  void Freeze();
  bool frozen() const { return frozen_; }

  // --- delta overlay -------------------------------------------------------

  /// True when the overlay holds mutations the base does not.
  bool has_delta() const { return !delta_ops_.empty(); }
  /// Number of ops in the delta log: effective mutations not in the base.
  size_t delta_size() const { return delta_ops_.size(); }
  /// The op log itself (model maintenance scopes touched rows from it).
  const std::vector<DeltaOp>& delta_ops() const { return delta_ops_; }

  /// Number of bases installed so far (the first Freeze included). A
  /// refresh plan compares it at commit time to tell whether another
  /// refresh or build replaced the base it was prepared against.
  uint64_t refreezes() const { return refreezes_; }

  /// A re-freeze candidate: both orientations rebuilt from the merged rows
  /// as they stand at delta op delta_size(). Const — safe to run under a
  /// shared lock while readers score through the overlay.
  struct MergedCsr {
    FlatCsr user;
    FlatCsr item;
  };
  MergedCsr BuildMergedCsr() const;

  /// Install `merged`, built when the log held `n` ops, as the new base.
  /// Ops [0, n) are dropped; ops [n, delta_size()), which landed after the
  /// build, stay behind as the new delta over that base, keeping the side
  /// rows they touched. The result is the overlay state of "re-freeze after
  /// op n, then apply the rest live", so the commit cannot conflict. The
  /// caller guarantees no other re-freeze ran since the build.
  void CommitRefreeze(MergedCsr&& merged, size_t n);

  /// CSR row views — the merge view. Rows touched by the delta overlay
  /// resolve to their side row (a full merged copy, byte-identical to what
  /// a rebuilt CSR would hold); untouched rows resolve to the frozen base.
  /// The guard is a real check: when the matrix is not frozen (or the row is
  /// unknown to base and overlay) the row reads as empty instead of as
  /// out-of-bounds garbage.
  CsrRow UserCsrRow(int32_t user_idx) const {
    if (!frozen_ || user_idx < 0) return {};
    if (overlay_active_) {
      auto it = user_side_.find(user_idx);
      if (it != user_side_.end()) {
        obs::Count(obs::Counter::kIngestDeltaRowHits);
        return {it->second.idx.data(), it->second.rating.data(),
                it->second.idx.size()};
      }
      obs::Count(obs::Counter::kIngestDeltaRowMisses);
    }
    if (static_cast<size_t>(user_idx) + 1 >= user_csr_.offsets.size()) {
      return {};
    }
    int64_t b = user_csr_.offsets[user_idx];
    return {user_csr_.idx.data() + b, user_csr_.rating.data() + b,
            static_cast<size_t>(user_csr_.offsets[user_idx + 1] - b)};
  }
  CsrRow ItemCsrRow(int32_t item_idx) const {
    if (!frozen_ || item_idx < 0) return {};
    if (overlay_active_) {
      auto it = item_side_.find(item_idx);
      if (it != item_side_.end()) {
        obs::Count(obs::Counter::kIngestDeltaRowHits);
        return {it->second.idx.data(), it->second.rating.data(),
                it->second.idx.size()};
      }
      obs::Count(obs::Counter::kIngestDeltaRowMisses);
    }
    if (static_cast<size_t>(item_idx) + 1 >= item_csr_.offsets.size()) {
      return {};
    }
    int64_t b = item_csr_.offsets[item_idx];
    return {item_csr_.idx.data() + b, item_csr_.rating.data() + b,
            static_cast<size_t>(item_csr_.offsets[item_idx + 1] - b)};
  }

  /// Footprint of the frozen CSR arrays plus the delta overlay (0 when not
  /// frozen) — model ApproxBytes implementations add this so memory
  /// accounting sees the flat storage.
  size_t CsrApproxBytes() const;

 private:
  /// One overlay side row: a full merged copy of a touched row, SoA like
  /// the CSR arrays so the CsrRow view is layout-identical.
  struct SideRow {
    std::vector<int32_t> idx;
    std::vector<double> rating;
  };

  int32_t InternUser(int64_t user_id);
  int32_t InternItem(int64_t item_id);
  static void Upsert(std::vector<RatingEntry>* vec, int32_t idx,
                     double rating, bool* was_new);
  /// Mutation cores shared by the per-row and batched paths: everything an
  /// Add/Remove does except the side-row refresh, which the caller performs
  /// once (per op, or per batch).
  RatingChange DoAdd(int64_t user_id, int64_t item_id, double rating,
                     int32_t* out_u, int32_t* out_i);
  bool DoRemove(int64_t user_id, int64_t item_id, int32_t* out_u,
                int32_t* out_i);
  /// Copy the merged rows of (user_idx, item_idx) into the overlay side
  /// rows (both orientations) after a frozen-state mutation.
  void RefreshSideRows(int32_t user_idx, int32_t item_idx);
  void RefreshUserSideRow(int32_t user_idx);
  void RefreshItemSideRow(int32_t item_idx);

  std::vector<int64_t> user_ids_;
  std::vector<int64_t> item_ids_;
  std::unordered_map<int64_t, int32_t> user_index_;
  std::unordered_map<int64_t, int32_t> item_index_;
  std::vector<std::vector<RatingEntry>> by_user_;
  std::vector<std::vector<RatingEntry>> by_item_;
  size_t num_ratings_ = 0;
  double rating_sum_ = 0;
  bool frozen_ = false;
  FlatCsr user_csr_;
  FlatCsr item_csr_;

  // Delta overlay state (meaningful only while frozen_).
  bool overlay_active_ = false;
  std::unordered_map<int32_t, SideRow> user_side_;
  std::unordered_map<int32_t, SideRow> item_side_;
  std::vector<DeltaOp> delta_ops_;
  uint64_t refreezes_ = 0;
};

}  // namespace recdb
