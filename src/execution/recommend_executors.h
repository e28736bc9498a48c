// Recommendation-aware executors (paper Section IV):
//   RecommendExecutor       — RECOMMEND / FILTERRECOMMEND (Algorithms 1 & 2;
//                             pushed-down user/item predicates prune scoring)
//   JoinRecommendExecutor   — JOINRECOMMEND (outer relation drives scoring)
//   IndexRecommendExecutor  — INDEXRECOMMEND (Algorithm 3 over RecScoreIndex,
//                             with model fallback on cache miss)
//
// All scoring goes through RecModel::PredictBatch: each executor resolves a
// user's candidate set first, scores the unrated candidates in one batch
// call, and only then emits tuples — per-candidate model->Predict() calls
// do not appear on any hot path.
#pragma once

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "execution/executor.h"
#include "execution/topk_pruner.h"

namespace recdb {

/// One user's scores over a positional range of candidate items: rated
/// positions carry the stored rating, the rest the PredictBatch result.
struct UserRowScores {
  std::vector<double> score;   // per position
  std::vector<uint8_t> rated;  // per position: 1 = user already rated it
  uint64_t predicted = 0;      // candidates that went through the model
  uint64_t batches = 0;        // PredictBatch calls issued (0 or 1)
};

class RecommendExecutor : public Executor {
 public:
  RecommendExecutor(const RecommendPlan& plan, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), ctx_(ctx) {}
  Status Init() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  /// Morsel-parallel scoring over the flattened (user, item) candidate
  /// space: workers claim pair ranges, batch-score each user run inside
  /// the range, emit into per-morsel slots, and the slots are concatenated
  /// in range order — bit-identical to the serial emission order under any
  /// thread count.
  Status ScoreAllParallel();
  /// Per-user bound under a parent TopN (prune_limit > 0): each user's
  /// top-prune_limit by (score desc, item position asc), morsel-parallel
  /// over users. Each user's whole row is scored and the k best kept in a
  /// TopKPruner. Survivors are emitted in item-position order — the
  /// unbounded emission order restricted to the surviving subset, so the
  /// parent TopN's result is bit-identical.
  Status ScoreUserTopK();

  const RecommendPlan& plan_;
  ExecContext* ctx_;
  // Candidate id lists resolved at Init (filters applied).
  std::vector<int64_t> users_;
  std::vector<int64_t> items_;
  size_t user_pos_ = 0;
  size_t item_pos_ = 0;
  // Serial mode: the current user's batched row of scores.
  UserRowScores row_;
  bool row_ready_ = false;
  // Parallel mode: results materialized at Init, drained by Next.
  bool buffered_ = false;
  std::vector<Tuple> buffer_;
  size_t buffer_pos_ = 0;
};

class JoinRecommendExecutor : public Executor {
 public:
  JoinRecommendExecutor(const JoinRecommendPlan& plan, ExecutorPtr outer,
                        ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), outer_(std::move(outer)), ctx_(ctx) {}
  Status Init() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  /// Pull the next window of outer tuples and batch-score it: one
  /// PredictBatch per user over the window's valid unrated items, instead
  /// of one scalar Predict per (outer tuple, user) probe.
  Status FillWindow();

  const JoinRecommendPlan& plan_;
  ExecutorPtr outer_;
  ExecContext* ctx_;
  // Pushed-down users known to the model, in plan order (resolved once).
  std::vector<int64_t> valid_users_;
  bool outer_done_ = false;
  // Current probe window. Scores/skip flags are flattened [user][slot].
  std::vector<Tuple> window_;
  std::vector<int64_t> window_items_;
  std::vector<uint8_t> window_known_;  // item id valid & known to the model
  std::vector<double> window_scores_;
  std::vector<uint8_t> window_skip_;
  size_t window_slot_ = 0;  // emission cursor: outer tuple within window
  size_t window_user_ = 0;  // emission cursor: user within slot
};

class IndexRecommendExecutor : public Executor {
 public:
  IndexRecommendExecutor(const IndexRecommendPlan& plan, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), ctx_(ctx) {}
  Status Init() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  /// Load the (item, score) list for users_[user_pos_], from the index when
  /// materialized (hit) or by batch-scoring through the model (miss).
  Status LoadCurrentUser();

  const IndexRecommendPlan& plan_;
  ExecContext* ctx_;
  // Pushed-down item ids as a hash set (O(1) membership instead of a per-
  // candidate std::find) plus a deduplicated list for the cache-miss scan,
  // so duplicated IN-list entries cannot emit duplicate tuples.
  std::optional<std::unordered_set<int64_t>> item_filter_;
  std::vector<int64_t> item_list_;
  std::vector<int64_t> users_;
  size_t user_pos_ = 0;
  std::vector<std::pair<int64_t, double>> current_;  // best-first
  size_t current_pos_ = 0;
  bool loaded_ = false;
};

}  // namespace recdb
