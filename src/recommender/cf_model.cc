#include "recommender/cf_model.h"

#include <algorithm>
#include <cmath>

namespace recdb {

namespace {

size_t NeighborhoodBytes(const std::vector<std::vector<Neighbor>>& nb) {
  size_t total = 0;
  for (const auto& row : nb) {
    total += sizeof(std::vector<Neighbor>) + row.capacity() * sizeof(Neighbor);
  }
  return total;
}

size_t NeighborhoodEntries(const std::vector<std::vector<Neighbor>>& nb) {
  size_t total = 0;
  for (const auto& row : nb) total += row.size();
  return total;
}

/// Binary search of an idx-ordered neighborhood row.
double SimilarityLookup(const std::vector<std::vector<Neighbor>>& nb,
                        int32_t a, int32_t b) {
  if (static_cast<size_t>(a) >= nb.size()) return 0;
  const auto& row = nb[a];
  auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const Neighbor& n, int32_t i) { return n.idx < i; });
  if (it != row.end() && it->idx == b) return it->sim;
  return 0;
}

/// Dense scatter target reused across PredictBatch calls on one thread.
/// Epoch stamps make Reset O(1): a slot is live only when its stamp matches
/// the current epoch, so no per-call clearing of the value array.
struct DenseScratch {
  std::vector<double> val;
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;

  void Reset(size_t n) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      val.resize(n, 0);
    }
    if (++epoch == 0) {  // wrapped: stamps from 2^32 calls ago could alias
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }
  void Set(int32_t i, double v) {
    val[i] = v;
    stamp[i] = epoch;
  }
  bool Get(int32_t i, double* v) const {
    if (stamp[i] != epoch) return false;
    *v = val[i];
    return true;
  }
};

DenseScratch& TlsScratch() {
  thread_local DenseScratch scratch;
  return scratch;
}

/// ItemCF kernel scratch, reused across PredictBatch calls on one thread.
/// `val`/`mask` stay all-zero between calls (each call clears the slots it
/// set); `num`/`den` are zeroed by the scatter loop that uses them.
struct ItemCFScratch {
  std::vector<int32_t> cand;  // resolved candidate idx, -1 = scores 0
  std::vector<double> val;    // gather: r_uj at rated j, else 0
  std::vector<double> mask;   // gather: 1 at rated j, else 0
  std::vector<double> num;    // scatter: Σ s·r_uj per item
  std::vector<double> den;    // scatter: Σ |s| per item

  void Reserve(size_t n) {
    if (val.size() < n) {
      val.resize(n, 0.0);
      mask.resize(n, 0.0);
      num.resize(n, 0.0);
      den.resize(n, 0.0);
    }
  }
};

ItemCFScratch& TlsItemCFScratch() {
  thread_local ItemCFScratch scratch;
  return scratch;
}

/// Item rows a delta op set can reach: for each op (u, i) that is item i
/// itself, every item sharing a rater with i (i's norm — and for Pearson
/// its mean — changed, which moves sim(i, j) for every pair with nonzero
/// dot), and every item rated by u (their dot with i gained or lost the
/// shared dimension; after a remove u may no longer appear in i's merged
/// rater list, so u is unioned in explicitly). Computed on the merged
/// matrix; an over-approximation is always safe, a miss never is.
std::vector<int32_t> TouchedItemRows(const RatingMatrix& m,
                                     const std::vector<DeltaOp>& ops) {
  std::vector<char> touched(m.NumItems(), 0);
  std::vector<char> user_done(m.NumUsers(), 0);
  auto mark_items_of = [&](int32_t v) {
    if (v < 0 || static_cast<size_t>(v) >= user_done.size() || user_done[v]) {
      return;
    }
    user_done[v] = 1;
    for (const auto& e : m.UserVector(v)) touched[e.idx] = 1;
  };
  for (const auto& op : ops) {
    if (op.item_idx >= 0 &&
        static_cast<size_t>(op.item_idx) < touched.size()) {
      touched[op.item_idx] = 1;
      for (const auto& e : m.ItemVector(op.item_idx)) mark_items_of(e.idx);
    }
    mark_items_of(op.user_idx);
  }
  std::vector<int32_t> rows;
  for (size_t i = 0; i < touched.size(); ++i) {
    if (touched[i]) rows.push_back(static_cast<int32_t>(i));
  }
  return rows;
}

/// User-side mirror of TouchedItemRows.
std::vector<int32_t> TouchedUserRows(const RatingMatrix& m,
                                     const std::vector<DeltaOp>& ops) {
  std::vector<char> touched(m.NumUsers(), 0);
  std::vector<char> item_done(m.NumItems(), 0);
  auto mark_raters_of = [&](int32_t j) {
    if (j < 0 || static_cast<size_t>(j) >= item_done.size() || item_done[j]) {
      return;
    }
    item_done[j] = 1;
    for (const auto& e : m.ItemVector(j)) touched[e.idx] = 1;
  };
  for (const auto& op : ops) {
    if (op.user_idx >= 0 &&
        static_cast<size_t>(op.user_idx) < touched.size()) {
      touched[op.user_idx] = 1;
      for (const auto& e : m.UserVector(op.user_idx)) mark_raters_of(e.idx);
    }
    mark_raters_of(op.item_idx);
  }
  std::vector<int32_t> rows;
  for (size_t u = 0; u < touched.size(); ++u) {
    if (touched[u]) rows.push_back(static_cast<int32_t>(u));
  }
  return rows;
}

/// Install recomputed rows (already idx-ordered) into the table, growing
/// it for entities interned since the model was built.
void InstallNeighborRows(std::vector<std::vector<Neighbor>>* nb,
                         ModelUpdate&& update) {
  if (update.num_rows > nb->size()) nb->resize(update.num_rows);
  size_t installed = 0;
  for (auto& [idx, row] : update.rows) {
    if (idx < 0 || static_cast<size_t>(idx) >= nb->size()) continue;
    (*nb)[idx] = std::move(row);
    ++installed;
  }
  obs::Count(obs::Counter::kIngestRowUpdates, installed);
}

}  // namespace

ItemCFModel::ItemCFModel(std::shared_ptr<const RatingMatrix> ratings,
                         bool centered, const SimilarityOptions& opts,
                         std::vector<std::vector<Neighbor>> neighborhoods)
    : RecModel(std::move(ratings)),
      centered_(centered),
      opts_(opts),
      neighbors_(std::move(neighborhoods)) {}

std::unique_ptr<ItemCFModel> ItemCFModel::Build(
    std::shared_ptr<RatingMatrix> ratings, bool centered,
    const SimilarityOptions& opts) {
  SimilarityOptions o = opts;
  o.centered = centered;
  ratings->Freeze();
  auto neighborhoods = BuildItemNeighborhoods(*ratings, o);
  return std::unique_ptr<ItemCFModel>(new ItemCFModel(
      std::move(ratings), centered, o, std::move(neighborhoods)));
}

void ItemCFModel::DoPredictBatch(int64_t user_id, std::span<const int64_t> items,
                               std::span<double> out) const {
  RECDB_DCHECK(items.size() == out.size());
  auto u = ratings_->UserIndex(user_id);
  if (!u) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // The user's rated row, idx-ascending. Build froze the matrix, and the
  // merge view includes every rating added or removed since.
  const CsrRow rated = ratings_->UserCsrRow(*u);

  // Resolve the candidates once. An unknown candidate, an item interned
  // after the table was built (no row yet) or a user with nothing rated
  // scores 0 (Algorithm 1, line 14).
  ItemCFScratch& scratch = TlsItemCFScratch();
  const size_t table = neighbors_.size();
  scratch.cand.resize(items.size());
  size_t gather_cost = 0;
  for (size_t c = 0; c < items.size(); ++c) {
    auto i = ratings_->ItemIndex(items[c]);
    const bool scored =
        i && rated.n > 0 && static_cast<size_t>(*i) < table;
    scratch.cand[c] = scored ? *i : -1;
    if (scored) gather_cost += neighbors_[*i].size();
  }
  const size_t n = ratings_->NumItems();
  scratch.Reserve(n);

  // Both loops add each candidate's terms s·r_uj in ascending j, so they
  // give the same bits whenever the table is symmetric (top_k == 0; see
  // similarity.h). Scatter costs a clear of the catalog plus the user's
  // rated rows; gather costs the candidates' rows. DESIGN.md §10.
  size_t scatter_cost = n;
  if (opts_.top_k == 0) {
    for (size_t k = 0; k < rated.n && scatter_cost < gather_cost; ++k) {
      const int32_t j = rated.idx[k];
      if (static_cast<size_t>(j) < table) scatter_cost += neighbors_[j].size();
    }
  }
  if (opts_.top_k == 0 && scatter_cost < gather_cost) {
    // Lucene-CF scatter: walk R(u) in ascending j, pushing s·r_uj and |s|
    // into every neighbor i of j.
    double* num = scratch.num.data();
    double* den = scratch.den.data();
    std::fill(num, num + n, 0.0);
    std::fill(den, den + n, 0.0);
    for (size_t k = 0; k < rated.n; ++k) {
      const int32_t j = rated.idx[k];
      if (static_cast<size_t>(j) >= table) continue;
      const double r = rated.rating[k];
      for (const Neighbor& nb : neighbors_[j]) {
        const double s = static_cast<double>(nb.sim);
        num[nb.idx] += s * r;
        den[nb.idx] += std::fabs(s);
      }
    }
    for (size_t c = 0; c < items.size(); ++c) {
      const int32_t i = scratch.cand[c];
      out[c] = (i < 0 || den[i] == 0) ? 0 : num[i] / den[i];
    }
    return;
  }

  // Gather, branch-free over N(i) ∩ R(u) (Algorithm 1, line 10): the
  // user's ratings sit in a dense value array beside a 0/1 mask, so an
  // unrated neighbor adds an exact ±0.0 to num and +0.0 to den.
  double* val = scratch.val.data();
  double* mask = scratch.mask.data();
  for (size_t k = 0; k < rated.n; ++k) {
    val[rated.idx[k]] = rated.rating[k];
    mask[rated.idx[k]] = 1.0;
  }
  for (size_t c = 0; c < items.size(); ++c) {
    const int32_t i = scratch.cand[c];
    if (i < 0) {
      out[c] = 0;
      continue;
    }
    double num = 0, den = 0;
    for (const Neighbor& nb : neighbors_[i]) {
      const double s = static_cast<double>(nb.sim);
      num += s * val[nb.idx];
      den += std::fabs(s) * mask[nb.idx];
    }
    out[c] = den == 0 ? 0 : num / den;
  }
  for (size_t k = 0; k < rated.n; ++k) {
    val[rated.idx[k]] = 0.0;
    mask[rated.idx[k]] = 0.0;
  }
}

double ItemCFModel::Similarity(int64_t item_a, int64_t item_b) const {
  auto a = ratings_->ItemIndex(item_a);
  auto b = ratings_->ItemIndex(item_b);
  if (!a || !b) return 0;
  return SimilarityLookup(neighbors_, *a, *b);
}

size_t ItemCFModel::ApproxBytes() const {
  return NeighborhoodBytes(neighbors_) + ratings_->CsrApproxBytes();
}

size_t ItemCFModel::NumNeighborEntries() const {
  return NeighborhoodEntries(neighbors_);
}

Result<ModelUpdate> ItemCFModel::PrepareDeltaUpdate(
    const std::vector<DeltaOp>& ops) const {
  ModelUpdate update;
  update.num_rows = ratings_->NumItems();
  if (ops.empty()) return update;
  std::vector<int32_t> rows = TouchedItemRows(*ratings_, ops);
  update.rows = RecomputeItemNeighborhoodRows(*ratings_, opts_, rows);
  update.stale_items.reserve(update.rows.size());
  for (const auto& [idx, row] : update.rows) {
    update.stale_items.push_back(ratings_->ItemIdAt(idx));
  }
  return update;
}

void ItemCFModel::ApplyDeltaUpdate(ModelUpdate&& update) {
  InstallNeighborRows(&neighbors_, std::move(update));
}

UserCFModel::UserCFModel(std::shared_ptr<const RatingMatrix> ratings,
                         bool centered, const SimilarityOptions& opts,
                         std::vector<std::vector<Neighbor>> neighborhoods)
    : RecModel(std::move(ratings)),
      centered_(centered),
      opts_(opts),
      neighbors_(std::move(neighborhoods)) {}

std::unique_ptr<UserCFModel> UserCFModel::Build(
    std::shared_ptr<RatingMatrix> ratings, bool centered,
    const SimilarityOptions& opts) {
  SimilarityOptions o = opts;
  o.centered = centered;
  ratings->Freeze();
  auto neighborhoods = BuildUserNeighborhoods(*ratings, o);
  return std::unique_ptr<UserCFModel>(new UserCFModel(
      std::move(ratings), centered, o, std::move(neighborhoods)));
}

void UserCFModel::DoPredictBatch(int64_t user_id, std::span<const int64_t> items,
                               std::span<double> out) const {
  RECDB_DCHECK(items.size() == out.size());
  auto u = ratings_->UserIndex(user_id);
  if (!u) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // Symmetric to ItemCF: the user's neighbor similarities are scattered
  // once, then each candidate item's contiguous rater row is gathered.
  // Addition order per candidate is the item's rater order (user-idx
  // ascending) — fixed per candidate, so independent of batch composition.
  if (static_cast<size_t>(*u) >= neighbors_.size()) {
    // A user interned after this model was built has no neighborhood yet.
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const auto& neighbors = neighbors_[*u];
  DenseScratch& scratch = TlsScratch();
  scratch.Reset(ratings_->NumUsers());
  for (const auto& nb : neighbors) {
    scratch.Set(nb.idx, static_cast<double>(nb.sim));
  }
  for (size_t c = 0; c < items.size(); ++c) {
    auto i = ratings_->ItemIndex(items[c]);
    if (!i) {
      out[c] = 0;
      continue;
    }
    double num = 0, den = 0;
    const CsrRow raters = ratings_->ItemCsrRow(*i);
    for (size_t k = 0; k < raters.n; ++k) {
      double sim;
      if (!scratch.Get(raters.idx[k], &sim)) continue;
      num += sim * raters.rating[k];
      den += std::fabs(sim);
    }
    out[c] = den == 0 ? 0 : num / den;
  }
}

double UserCFModel::Similarity(int64_t user_a, int64_t user_b) const {
  auto a = ratings_->UserIndex(user_a);
  auto b = ratings_->UserIndex(user_b);
  if (!a || !b) return 0;
  return SimilarityLookup(neighbors_, *a, *b);
}

size_t UserCFModel::ApproxBytes() const {
  return NeighborhoodBytes(neighbors_) + ratings_->CsrApproxBytes();
}

size_t UserCFModel::NumNeighborEntries() const {
  return NeighborhoodEntries(neighbors_);
}

Result<ModelUpdate> UserCFModel::PrepareDeltaUpdate(
    const std::vector<DeltaOp>& ops) const {
  ModelUpdate update;
  update.num_rows = ratings_->NumUsers();
  if (ops.empty()) return update;
  std::vector<int32_t> rows = TouchedUserRows(*ratings_, ops);
  update.rows = RecomputeUserNeighborhoodRows(*ratings_, opts_, rows);
  update.stale_users.reserve(update.rows.size());
  for (const auto& [idx, row] : update.rows) {
    update.stale_users.push_back(ratings_->UserIdAt(idx));
  }
  return update;
}

void UserCFModel::ApplyDeltaUpdate(ModelUpdate&& update) {
  InstallNeighborRows(&neighbors_, std::move(update));
}

}  // namespace recdb
