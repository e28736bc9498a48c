#include "recommender/rating_matrix.h"

#include <algorithm>
#include <utility>

namespace recdb {

int32_t RatingMatrix::InternUser(int64_t user_id) {
  auto it = user_index_.find(user_id);
  if (it != user_index_.end()) return it->second;
  int32_t idx = static_cast<int32_t>(user_ids_.size());
  user_ids_.push_back(user_id);
  user_index_[user_id] = idx;
  by_user_.emplace_back();
  return idx;
}

int32_t RatingMatrix::InternItem(int64_t item_id) {
  auto it = item_index_.find(item_id);
  if (it != item_index_.end()) return it->second;
  int32_t idx = static_cast<int32_t>(item_ids_.size());
  item_ids_.push_back(item_id);
  item_index_[item_id] = idx;
  by_item_.emplace_back();
  return idx;
}

void RatingMatrix::Upsert(std::vector<RatingEntry>* vec, int32_t idx,
                          double rating, bool* was_new) {
  auto it = std::lower_bound(
      vec->begin(), vec->end(), idx,
      [](const RatingEntry& e, int32_t i) { return e.idx < i; });
  if (it != vec->end() && it->idx == idx) {
    it->rating = rating;
    *was_new = false;
    return;
  }
  vec->insert(it, RatingEntry{idx, rating});
  *was_new = true;
}

namespace {

FlatCsr BuildCsr(const std::vector<std::vector<RatingEntry>>& rows) {
  FlatCsr csr;
  size_t nnz = 0;
  for (const auto& row : rows) nnz += row.size();
  csr.offsets.reserve(rows.size() + 1);
  csr.idx.reserve(nnz);
  csr.rating.reserve(nnz);
  csr.offsets.push_back(0);
  for (const auto& row : rows) {
    for (const auto& e : row) {
      csr.idx.push_back(e.idx);
      csr.rating.push_back(e.rating);
    }
    csr.offsets.push_back(static_cast<int64_t>(csr.idx.size()));
  }
  return csr;
}

}  // namespace

void RatingMatrix::Freeze() {
  // Full rebuilds call Freeze first so they always train over flat merged
  // state; a frozen matrix without a delta has nothing to merge.
  if (frozen_ && !has_delta()) return;
  CommitRefreeze(BuildMergedCsr(), delta_size());
}

RatingMatrix::MergedCsr RatingMatrix::BuildMergedCsr() const {
  MergedCsr merged;
  merged.user = BuildCsr(by_user_);
  merged.item = BuildCsr(by_item_);
  obs::Count(obs::Counter::kIngestCsrBuilds);
  return merged;
}

void RatingMatrix::CommitRefreeze(MergedCsr&& merged, size_t n) {
  RECDB_DCHECK(n <= delta_ops_.size());
  user_csr_ = std::move(merged.user);
  item_csr_ = std::move(merged.item);
  frozen_ = true;
  ++refreezes_;
  delta_ops_.erase(delta_ops_.begin(),
                   delta_ops_.begin() + static_cast<ptrdiff_t>(n));
  // Side rows are full copies of the current rows, so the ones a kept op
  // touched are already right over the new base; every other row reads the
  // same from the base as from its side row.
  std::unordered_map<int32_t, SideRow> user_side, item_side;
  for (const DeltaOp& op : delta_ops_) {
    if (auto it = user_side_.find(op.user_idx); it != user_side_.end()) {
      user_side.insert(user_side_.extract(it));
    }
    if (auto it = item_side_.find(op.item_idx); it != item_side_.end()) {
      item_side.insert(item_side_.extract(it));
    }
  }
  user_side_ = std::move(user_side);
  item_side_ = std::move(item_side);
  overlay_active_ = !delta_ops_.empty();
}

void RatingMatrix::RefreshUserSideRow(int32_t user_idx) {
  overlay_active_ = true;
  SideRow& ur = user_side_[user_idx];
  const auto& uvec = by_user_[user_idx];
  ur.idx.resize(uvec.size());
  ur.rating.resize(uvec.size());
  for (size_t k = 0; k < uvec.size(); ++k) {
    ur.idx[k] = uvec[k].idx;
    ur.rating[k] = uvec[k].rating;
  }
}

void RatingMatrix::RefreshItemSideRow(int32_t item_idx) {
  overlay_active_ = true;
  SideRow& ir = item_side_[item_idx];
  const auto& ivec = by_item_[item_idx];
  ir.idx.resize(ivec.size());
  ir.rating.resize(ivec.size());
  for (size_t k = 0; k < ivec.size(); ++k) {
    ir.idx[k] = ivec[k].idx;
    ir.rating[k] = ivec[k].rating;
  }
}

void RatingMatrix::RefreshSideRows(int32_t user_idx, int32_t item_idx) {
  RefreshUserSideRow(user_idx);
  RefreshItemSideRow(item_idx);
}

RatingChange RatingMatrix::DoAdd(int64_t user_id, int64_t item_id,
                                 double rating, int32_t* out_u,
                                 int32_t* out_i) {
  int32_t u = InternUser(user_id);
  int32_t i = InternItem(item_id);
  *out_u = u;
  *out_i = i;
  auto existing = GetByIndex(u, i);
  if (existing && *existing == rating) {
    // Same-value overwrite: a complete no-op. Critically this must not
    // invalidate frozen state, and must not touch rating_sum_ — in IEEE
    // arithmetic (sum - old) + new can differ from sum even when old == new,
    // so "adjusting by zero" would silently drift GlobalMean().
    return RatingChange::kUnchanged;
  }
  bool new_in_user = false, new_in_item = false;
  Upsert(&by_user_[u], i, rating, &new_in_user);
  Upsert(&by_item_[i], u, rating, &new_in_item);
  RECDB_DCHECK(new_in_user == new_in_item);
  if (new_in_user) {
    ++num_ratings_;
    rating_sum_ += rating;
  } else {
    // Overwrite with a different value: subtract old, add new.
    rating_sum_ += rating - *existing;
  }
  if (frozen_) {
    delta_ops_.push_back(DeltaOp{new_in_user ? DeltaOp::Kind::kAdd
                                             : DeltaOp::Kind::kOverwrite,
                                 u, i});
  }
  return new_in_user ? RatingChange::kInserted : RatingChange::kOverwritten;
}

RatingChange RatingMatrix::Add(int64_t user_id, int64_t item_id,
                               double rating) {
  int32_t u = -1, i = -1;
  RatingChange change = DoAdd(user_id, item_id, rating, &u, &i);
  if (change == RatingChange::kUnchanged) return change;
  if (frozen_) RefreshSideRows(u, i);
  return change;
}

bool RatingMatrix::DoRemove(int64_t user_id, int64_t item_id, int32_t* out_u,
                            int32_t* out_i) {
  // A Remove of an absent pair mutates nothing: the frozen state stays
  // valid and no delta op is logged.
  auto u = UserIndex(user_id);
  auto i = ItemIndex(item_id);
  if (!u || !i) return false;
  *out_u = *u;
  *out_i = *i;
  auto erase_from = [](std::vector<RatingEntry>* vec, int32_t idx) {
    auto it = std::lower_bound(
        vec->begin(), vec->end(), idx,
        [](const RatingEntry& e, int32_t v) { return e.idx < v; });
    if (it == vec->end() || it->idx != idx) return false;
    vec->erase(it);
    return true;
  };
  auto existing = GetByIndex(*u, *i);
  if (!existing) return false;
  bool a = erase_from(&by_user_[*u], *i);
  bool b = erase_from(&by_item_[*i], *u);
  RECDB_DCHECK(a && b);
  --num_ratings_;
  rating_sum_ -= *existing;
  if (frozen_) {
    delta_ops_.push_back(DeltaOp{DeltaOp::Kind::kRemove, *u, *i});
  }
  return true;
}

bool RatingMatrix::Remove(int64_t user_id, int64_t item_id) {
  int32_t u = -1, i = -1;
  if (!DoRemove(user_id, item_id, &u, &i)) return false;
  if (frozen_) RefreshSideRows(u, i);
  return true;
}

RatingMatrix::BatchResult RatingMatrix::ApplyBatch(
    const std::vector<BatchRatingOp>& ops) {
  BatchResult res;
  res.effective.assign(ops.size(), 0);
  std::vector<int32_t> users, items;
  for (size_t k = 0; k < ops.size(); ++k) {
    const BatchRatingOp& op = ops[k];
    int32_t u = -1, i = -1;
    bool effective = false;
    if (op.remove) {
      effective = DoRemove(op.user_id, op.item_id, &u, &i);
      if (effective) ++res.removed;
    } else {
      switch (DoAdd(op.user_id, op.item_id, op.rating, &u, &i)) {
        case RatingChange::kInserted:
          ++res.inserted;
          effective = true;
          break;
        case RatingChange::kOverwritten:
          ++res.overwritten;
          effective = true;
          break;
        case RatingChange::kUnchanged:
          break;
      }
    }
    if (!effective) {
      ++res.noops;
      continue;
    }
    res.effective[k] = 1;
    users.push_back(u);
    items.push_back(i);
  }
  if (res.effective_ops() == 0) return res;
  // One side-row copy per touched row for the whole statement — the point
  // of the batched path. Side rows are full merged copies, so refreshing
  // them once against the final state is identical to refreshing after
  // every op.
  if (frozen_) {
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    for (int32_t u : users) RefreshUserSideRow(u);
    for (int32_t i : items) RefreshItemSideRow(i);
  }
  return res;
}

std::optional<int32_t> RatingMatrix::UserIndex(int64_t user_id) const {
  auto it = user_index_.find(user_id);
  if (it == user_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<int32_t> RatingMatrix::ItemIndex(int64_t item_id) const {
  auto it = item_index_.find(item_id);
  if (it == item_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> RatingMatrix::GetByIndex(int32_t user_idx,
                                               int32_t item_idx) const {
  const auto& vec = by_user_[user_idx];
  auto it = std::lower_bound(
      vec.begin(), vec.end(), item_idx,
      [](const RatingEntry& e, int32_t i) { return e.idx < i; });
  if (it != vec.end() && it->idx == item_idx) return it->rating;
  return std::nullopt;
}

std::optional<double> RatingMatrix::Get(int64_t user_id,
                                        int64_t item_id) const {
  auto u = UserIndex(user_id);
  auto i = ItemIndex(item_id);
  if (!u || !i) return std::nullopt;
  return GetByIndex(*u, *i);
}

double RatingMatrix::GlobalMean() const {
  if (num_ratings_ == 0) return 0;
  return rating_sum_ / static_cast<double>(num_ratings_);
}

double RatingMatrix::UserMean(int32_t user_idx) const {
  const auto& vec = by_user_[user_idx];
  if (vec.empty()) return 0;
  double s = 0;
  for (const auto& e : vec) s += e.rating;
  return s / static_cast<double>(vec.size());
}

double RatingMatrix::ItemMean(int32_t item_idx) const {
  const auto& vec = by_item_[item_idx];
  if (vec.empty()) return 0;
  double s = 0;
  for (const auto& e : vec) s += e.rating;
  return s / static_cast<double>(vec.size());
}

size_t RatingMatrix::CsrApproxBytes() const {
  if (!frozen_) return 0;
  size_t total = user_csr_.ApproxBytes() + item_csr_.ApproxBytes();
  for (const auto& [idx, row] : user_side_) {
    total += sizeof(int32_t) + row.idx.capacity() * sizeof(int32_t) +
             row.rating.capacity() * sizeof(double);
  }
  for (const auto& [idx, row] : item_side_) {
    total += sizeof(int32_t) + row.idx.capacity() * sizeof(int32_t) +
             row.rating.capacity() * sizeof(double);
  }
  total += delta_ops_.capacity() * sizeof(DeltaOp);
  return total;
}

}  // namespace recdb
