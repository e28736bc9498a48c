#include "execution/recommend_executors.h"

#include <algorithm>
#include <atomic>

#include "common/task_scheduler.h"
#include "obs/metrics.h"

namespace recdb {

namespace {

/// Tuple shaped like the ratings table: user id, item id and score at their
/// column positions, NULL for any other ratings-table column.
Tuple MakeRecTuple(const ExecSchema& schema, size_t user_idx, size_t item_idx,
                   size_t rating_idx, int64_t user_id, int64_t item_id,
                   double score) {
  std::vector<Value> vals(schema.NumColumns(), Value::Null());
  vals[user_idx] = Value::Int(user_id);
  vals[item_idx] = Value::Int(item_id);
  vals[rating_idx] = Value::Double(score);
  return Tuple(std::move(vals));
}

/// Resolve the candidate user list: pushed-down ids filtered to users the
/// model knows, or every user in the snapshot.
std::vector<int64_t> ResolveUsers(
    const RatingMatrix& snapshot,
    const std::optional<std::vector<int64_t>>& pushed) {
  if (!pushed.has_value()) return snapshot.user_ids();
  std::vector<int64_t> out;
  out.reserve(pushed->size());
  for (int64_t id : *pushed) {
    if (snapshot.UserIndex(id).has_value()) out.push_back(id);
  }
  return out;
}

std::vector<int64_t> ResolveItems(
    const RatingMatrix& snapshot,
    const std::optional<std::vector<int64_t>>& pushed) {
  if (!pushed.has_value()) return snapshot.item_ids();
  std::vector<int64_t> out;
  out.reserve(pushed->size());
  for (int64_t id : *pushed) {
    if (snapshot.ItemIndex(id).has_value()) out.push_back(id);
  }
  return out;
}

/// Below this many candidate pairs a parallel fan-out costs more than it
/// saves; stay on the streaming serial path.
constexpr size_t kMinPairsForParallel = 256;

/// Outer tuples batched per JoinRecommend probe window. Bounds both the
/// emission latency (tuples are held until the window is scored) and the
/// per-window score matrix (|users| × window doubles).
constexpr size_t kJoinProbeWindow = 64;

/// Score one user over items[begin, end): rated items keep their stored
/// rating (and set the rated flag), the rest go through one PredictBatch.
void ScoreUserRange(const RecModel* model, const RatingMatrix& snapshot,
                    int64_t user_id, const std::vector<int64_t>& items,
                    size_t begin, size_t end, UserRowScores* out) {
  const size_t n = end - begin;
  out->score.assign(n, 0.0);
  out->rated.assign(n, 0);
  out->predicted = 0;
  out->batches = 0;
  std::vector<int64_t> cand;
  std::vector<size_t> cand_pos;
  cand.reserve(n);
  cand_pos.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    auto rated = snapshot.Get(user_id, items[begin + k]);
    if (rated.has_value()) {
      out->score[k] = *rated;  // Algorithm 1 line 8
      out->rated[k] = 1;
    } else {
      cand.push_back(items[begin + k]);
      cand_pos.push_back(k);
    }
  }
  if (cand.empty()) return;
  std::vector<double> pred(cand.size(), 0.0);
  model->PredictBatch(user_id, cand, pred);
  for (size_t k = 0; k < cand.size(); ++k) out->score[cand_pos[k]] = pred[k];
  out->predicted = cand.size();
  out->batches = 1;
}

}  // namespace

// -------------------------------------------------- Recommend / FilterRec

Status RecommendExecutor::Init() {
  if (plan_.rec->model() == nullptr) {
    return Status::ExecutionError("recommender " + plan_.rec->name() +
                                  " has no built model");
  }
  const RatingMatrix& snapshot = plan_.rec->model()->ratings();
  users_ = ResolveUsers(snapshot, plan_.user_ids);
  items_ = ResolveItems(snapshot, plan_.item_ids);
  user_pos_ = 0;
  item_pos_ = 0;
  row_ready_ = false;
  buffered_ = false;
  buffer_.clear();
  buffer_pos_ = 0;
  if (plan_.prune_limit > 0) {
    RECDB_RETURN_NOT_OK(ScoreUserTopK());
    buffered_ = true;
    return Status::OK();
  }
  if (TaskScheduler::Global().num_threads() > 1 &&
      users_.size() * items_.size() >= kMinPairsForParallel) {
    RECDB_RETURN_NOT_OK(ScoreAllParallel());
    buffered_ = true;
  }
  return Status::OK();
}

Status RecommendExecutor::ScoreUserTopK() {
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  const size_t k = plan_.prune_limit;
  std::vector<std::vector<Tuple>> per_user(users_.size());
  std::atomic<uint64_t> preds{0}, batches{0};
  auto score_range = [&](size_t begin, size_t end) {
    UserRowScores row;
    uint64_t local_preds = 0, local_batches = 0;
    for (size_t ui = begin; ui < end; ++ui) {
      // Score the whole row, keep the k best of what the unbounded path
      // would emit, under the same (score desc, item position asc) order
      // the parent TopN applies within one user.
      ScoreUserRange(model, snapshot, users_[ui], items_, 0, items_.size(),
                     &row);
      local_preds += row.predicted;
      local_batches += row.batches;
      TopKPruner pruner(k);
      for (size_t p = 0; p < items_.size(); ++p) {
        if (row.rated[p] && !plan_.include_rated) continue;
        pruner.Offer(row.score[p], static_cast<int64_t>(p), items_[p]);
      }
      std::vector<TopKPruner::Entry> entries = pruner.DrainBestFirst();
      // Within a user, emit survivors in item-position order — the
      // unbounded emission order restricted to the surviving subset, so
      // the parent TopN's arrival tie-break sees an order-preserving
      // subsequence.
      std::sort(entries.begin(), entries.end(),
                [](const TopKPruner::Entry& a, const TopKPruner::Entry& b) {
                  return a.rank < b.rank;
                });
      std::vector<Tuple>& out = per_user[ui];
      out.reserve(entries.size());
      for (const TopKPruner::Entry& e : entries) {
        out.push_back(MakeRecTuple(plan_.schema, plan_.user_col_idx,
                                   plan_.item_col_idx, plan_.rating_col_idx,
                                   users_[ui], e.item_id, e.score));
      }
    }
    preds.fetch_add(local_preds, std::memory_order_relaxed);
    batches.fetch_add(local_batches, std::memory_order_relaxed);
  };
  TaskScheduler& sched = TaskScheduler::Global();
  if (sched.num_threads() > 1 && users_.size() > 1) {
    const size_t morsel = std::clamp<size_t>(
        users_.size() / (sched.num_threads() * 4), 1, 1024);
    TaskRunStats run = sched.ParallelFor(users_.size(), morsel, score_range);
    ctx_->stats.tasks_spawned += run.tasks_spawned;
    ctx_->stats.worker_time_ms += run.worker_time_ms;
  } else {
    score_range(0, users_.size());
  }
  size_t total = 0;
  for (const auto& s : per_user) total += s.size();
  buffer_.reserve(total);
  for (auto& s : per_user) {
    for (auto& t : s) buffer_.push_back(std::move(t));
  }
  ctx_->stats.predictions += preds.load(std::memory_order_relaxed);
  ctx_->stats.predict_batches += batches.load(std::memory_order_relaxed);
  return Status::OK();
}

Status RecommendExecutor::ScoreAllParallel() {
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  TaskScheduler& sched = TaskScheduler::Global();
  const size_t num_items = items_.size();
  const size_t num_pairs = users_.size() * num_items;
  // Morsel size balances claim overhead against tail imbalance; correctness
  // does not depend on it (per-pair output is order-preserving and each
  // score depends only on its own pair, not on how the batch was cut).
  const size_t morsel = std::clamp<size_t>(
      num_pairs / (sched.num_threads() * 8), 64, 8192);
  const size_t num_slots = (num_pairs + morsel - 1) / morsel;
  std::vector<std::vector<Tuple>> slots(num_slots);
  std::atomic<uint64_t> predictions{0};
  std::atomic<uint64_t> batches{0};
  TaskRunStats run = sched.ParallelFor(
      num_pairs, morsel, [&](size_t begin, size_t end) {
        std::vector<Tuple>& out = slots[begin / morsel];
        uint64_t local_predictions = 0;
        uint64_t local_batches = 0;
        UserRowScores row;
        // A morsel spans one or more per-user runs of contiguous items;
        // each run is scored with one PredictBatch.
        size_t p = begin;
        while (p < end) {
          const size_t u = p / num_items;
          const size_t run_end = std::min(end, (u + 1) * num_items);
          const int64_t user_id = users_[u];
          ScoreUserRange(model, snapshot, user_id, items_, p % num_items,
                         p % num_items + (run_end - p), &row);
          local_predictions += row.predicted;
          local_batches += row.batches;
          for (size_t k = 0; k < run_end - p; ++k) {
            if (row.rated[k] && !plan_.include_rated) continue;
            out.push_back(MakeRecTuple(
                plan_.schema, plan_.user_col_idx, plan_.item_col_idx,
                plan_.rating_col_idx, user_id, items_[p % num_items + k],
                row.score[k]));
          }
          p = run_end;
        }
        predictions.fetch_add(local_predictions, std::memory_order_relaxed);
        batches.fetch_add(local_batches, std::memory_order_relaxed);
      });
  size_t total = 0;
  for (const auto& s : slots) total += s.size();
  buffer_.reserve(total);
  // Slot order == ascending pair order == the serial emission order.
  for (auto& s : slots) {
    for (auto& t : s) buffer_.push_back(std::move(t));
  }
  const uint64_t predicted = predictions.load(std::memory_order_relaxed);
  ctx_->stats.predictions += predicted;
  ctx_->stats.predict_batches += batches.load(std::memory_order_relaxed);
  ctx_->stats.tasks_spawned += run.tasks_spawned;
  ctx_->stats.worker_time_ms += run.worker_time_ms;
  return Status::OK();
}

Result<std::optional<Tuple>> RecommendExecutor::NextImpl() {
  if (buffered_) {
    if (buffer_pos_ >= buffer_.size()) return std::optional<Tuple>{};
    return std::make_optional(std::move(buffer_[buffer_pos_++]));
  }
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  while (user_pos_ < users_.size()) {
    if (!row_ready_) {
      // Batch-score the whole item list for this user up front; Next()
      // then streams out of the precomputed row.
      ScoreUserRange(model, snapshot, users_[user_pos_], items_, 0,
                     items_.size(), &row_);
      ctx_->stats.predictions += row_.predicted;
      ctx_->stats.predict_batches += row_.batches;
      row_ready_ = true;
      item_pos_ = 0;
    }
    while (item_pos_ < items_.size()) {
      const size_t k = item_pos_++;
      if (row_.rated[k] && !plan_.include_rated) continue;  // unseen only
      return std::make_optional(
          MakeRecTuple(plan_.schema, plan_.user_col_idx, plan_.item_col_idx,
                       plan_.rating_col_idx, users_[user_pos_], items_[k],
                       row_.score[k]));
    }
    ++user_pos_;
    row_ready_ = false;
  }
  return std::optional<Tuple>{};
}

// -------------------------------------------------------- JoinRecommend

Status JoinRecommendExecutor::Init() {
  if (plan_.rec->model() == nullptr) {
    return Status::ExecutionError("recommender " + plan_.rec->name() +
                                  " has no built model");
  }
  RECDB_RETURN_NOT_OK(outer_->Init());
  const RatingMatrix& snapshot = plan_.rec->model()->ratings();
  valid_users_.clear();
  valid_users_.reserve(plan_.user_ids.size());
  for (int64_t id : plan_.user_ids) {
    if (snapshot.UserIndex(id).has_value()) valid_users_.push_back(id);
  }
  outer_done_ = false;
  window_.clear();
  window_slot_ = 0;
  window_user_ = 0;
  return Status::OK();
}

Status JoinRecommendExecutor::FillWindow() {
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  window_.clear();
  window_items_.clear();
  window_known_.clear();
  window_scores_.clear();
  window_skip_.clear();
  window_slot_ = 0;
  window_user_ = 0;
  // Stats and window state are committed only once the fill completes: an
  // outer error mid-fill must leave neither a partial window (whose score/
  // skip arrays still have the previous window's size — a retrying caller
  // would emit garbage or read out of bounds) nor already-counted probes
  // (a re-Init re-run sharing this ExecContext would double-count them).
  uint64_t probes = 0;
  while (window_.size() < kJoinProbeWindow) {
    auto next = outer_->Next();
    if (!next.ok()) {
      window_.clear();
      window_items_.clear();
      window_known_.clear();
      return next.status();
    }
    if (!next.value().has_value()) {
      outer_done_ = true;
      break;
    }
    ++probes;
    const Value& item_val = next.value()->At(plan_.outer_item_col);
    int64_t item_id = 0;
    bool known = false;
    if (!item_val.is_null() && item_val.type() == TypeId::kInt64) {
      item_id = item_val.AsInt();
      known = snapshot.ItemIndex(item_id).has_value();
    }
    window_.push_back(std::move(*next.value()));
    window_items_.push_back(item_id);
    window_known_.push_back(known ? 1 : 0);
  }
  ctx_->stats.join_probes += probes;
  const size_t w = window_.size();
  window_scores_.assign(valid_users_.size() * w, 0.0);
  window_skip_.assign(valid_users_.size() * w, 0);
  if (w == 0) return Status::OK();
  // One PredictBatch per user across the window's unrated known items —
  // the probe-batch amortization: the user context is resolved once for
  // up to kJoinProbeWindow probes instead of once per (probe, user) pair.
  std::vector<int64_t> cand;
  std::vector<size_t> cand_slot;
  std::vector<double> pred;
  for (size_t u = 0; u < valid_users_.size(); ++u) {
    const int64_t user_id = valid_users_[u];
    cand.clear();
    cand_slot.clear();
    for (size_t s = 0; s < w; ++s) {
      if (!window_known_[s]) {
        window_skip_[u * w + s] = 1;  // unknown item: no score, no tuple
        continue;
      }
      auto rated = snapshot.Get(user_id, window_items_[s]);
      if (rated.has_value()) {
        if (plan_.include_rated) {
          window_scores_[u * w + s] = *rated;
        } else {
          window_skip_[u * w + s] = 1;
        }
      } else {
        cand.push_back(window_items_[s]);
        cand_slot.push_back(s);
      }
    }
    if (cand.empty()) continue;
    pred.assign(cand.size(), 0.0);
    model->PredictBatch(user_id, cand, pred);
    for (size_t k = 0; k < cand.size(); ++k) {
      window_scores_[u * w + cand_slot[k]] = pred[k];
    }
    ctx_->stats.predictions += cand.size();
    ++ctx_->stats.predict_batches;
  }
  return Status::OK();
}

Result<std::optional<Tuple>> JoinRecommendExecutor::NextImpl() {
  while (true) {
    if (window_slot_ >= window_.size()) {
      if (outer_done_) return std::optional<Tuple>{};
      RECDB_RETURN_NOT_OK(FillWindow());
      if (window_.empty()) return std::optional<Tuple>{};
      continue;
    }
    const size_t w = window_.size();
    const size_t s = window_slot_;
    while (window_user_ < valid_users_.size()) {
      const size_t u = window_user_++;
      if (window_skip_[u * w + s]) continue;
      // 〈recommend columns〉 ++ 〈outer tuple〉 (paper: tup concatenated).
      Tuple rec_part = MakeRecTuple(
          plan_.schema, plan_.user_col_idx, plan_.item_col_idx,
          plan_.rating_col_idx, valid_users_[u], window_items_[s],
          window_scores_[u * w + s]);
      // rec_part currently has the full output width; overwrite the tail
      // with the outer tuple's values.
      const Tuple& outer_tuple = window_[s];
      size_t outer_start =
          plan_.schema.NumColumns() - outer_tuple.NumValues();
      for (size_t i = 0; i < outer_tuple.NumValues(); ++i) {
        rec_part.values()[outer_start + i] = outer_tuple.At(i);
      }
      return std::make_optional(std::move(rec_part));
    }
    ++window_slot_;
    window_user_ = 0;
  }
}

// ------------------------------------------------------- IndexRecommend

Status IndexRecommendExecutor::Init() {
  if (plan_.rec->model() == nullptr) {
    return Status::ExecutionError("recommender " + plan_.rec->name() +
                                  " has no built model");
  }
  const RatingMatrix& snapshot = plan_.rec->model()->ratings();
  if (plan_.user_ids.empty()) {
    users_ = snapshot.user_ids();
  } else {
    users_.clear();
    for (int64_t id : plan_.user_ids) {
      if (snapshot.UserIndex(id).has_value()) users_.push_back(id);
    }
  }
  // Hash the pushed-down item ids once (the per-candidate std::find was
  // O(|items|^2) across a user's scan) and keep a deduplicated list so a
  // duplicated IN-list entry cannot emit the same tuple twice on the
  // cache-miss path.
  item_filter_.reset();
  item_list_.clear();
  if (plan_.item_ids.has_value()) {
    item_filter_.emplace();
    item_filter_->reserve(plan_.item_ids->size());
    for (int64_t id : *plan_.item_ids) {
      if (item_filter_->insert(id).second) item_list_.push_back(id);
    }
  }
  user_pos_ = 0;
  current_.clear();
  current_pos_ = 0;
  loaded_ = false;
  return Status::OK();
}

Status IndexRecommendExecutor::LoadCurrentUser() {
  current_.clear();
  current_pos_ = 0;
  loaded_ = true;
  int64_t user_id = users_[user_pos_];
  const RecScoreIndex& index = *plan_.rec->score_index();

  auto item_ok = [&](int64_t item) {
    return !item_filter_.has_value() || item_filter_->count(item) > 0;
  };

  if (index.HasUser(user_id)) {
    // Phase II/III of Algorithm 3: walk the user's RecTree best-first,
    // stopping at the rating bound; filter items; cap at the limit.
    ++ctx_->stats.index_hits;
    obs::Count(obs::Counter::kRecIndexUserHits);
    index.Scan(user_id, plan_.min_score, [&](int64_t item, double score) {
      if (item_ok(item)) current_.emplace_back(item, score);
      return plan_.per_user_limit == 0 ||
             current_.size() < plan_.per_user_limit;
    });
    return Status::OK();
  }

  // Cache miss: fall back to the model — collect the user's unseen
  // candidates, score them in one batch, then sort and cap.
  ++ctx_->stats.index_misses;
  obs::Count(obs::Counter::kRecIndexUserMisses);
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  const std::vector<int64_t>& items =
      item_filter_.has_value() ? item_list_ : snapshot.item_ids();
  std::vector<int64_t> cand;
  cand.reserve(items.size());
  for (int64_t item : items) {
    if (!snapshot.ItemIndex(item).has_value()) continue;
    if (snapshot.Get(user_id, item).has_value()) continue;  // unseen only
    cand.push_back(item);
  }
  if (!cand.empty()) {
    std::vector<double> pred(cand.size(), 0.0);
    model->PredictBatch(user_id, cand, pred);
    ctx_->stats.predictions += cand.size();
    ++ctx_->stats.predict_batches;
    for (size_t k = 0; k < cand.size(); ++k) {
      if (pred[k] >= plan_.min_score) current_.emplace_back(cand[k], pred[k]);
    }
  }
  std::sort(current_.begin(), current_.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (plan_.per_user_limit > 0 && current_.size() > plan_.per_user_limit) {
    current_.resize(plan_.per_user_limit);
  }
  return Status::OK();
}

Result<std::optional<Tuple>> IndexRecommendExecutor::NextImpl() {
  while (user_pos_ < users_.size()) {
    if (!loaded_) {
      RECDB_RETURN_NOT_OK(LoadCurrentUser());
    }
    if (current_pos_ < current_.size()) {
      const auto& [item, score] = current_[current_pos_++];
      return std::make_optional(
          MakeRecTuple(plan_.schema, plan_.user_col_idx, plan_.item_col_idx,
                       plan_.rating_col_idx, users_[user_pos_], item, score));
    }
    ++user_pos_;
    loaded_ = false;
  }
  return std::optional<Tuple>{};
}

}  // namespace recdb
