// RecModel: a built recommendation model (paper Step I output), queried by
// the RECOMMEND operators to produce RecScore(u, i) (paper Step II).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "recommender/algorithm.h"
#include "recommender/rating_matrix.h"
#include "recommender/similarity.h"

namespace recdb {

/// Incremental model maintenance payload: the rows a model must replace to
/// become equivalent to a full rebuild over the matrix's merged contents.
/// Produced by PrepareDeltaUpdate (read-only, runs off the writer lock) and
/// installed by ApplyDeltaUpdate (cheap, runs under the writer lock).
struct ModelUpdate {
  /// CF: recomputed neighborhood rows as (row index, fresh neighbor list).
  std::vector<std::pair<int32_t, std::vector<Neighbor>>> rows;
  /// CF: total row count after the update (covers newly interned entities).
  size_t num_rows = 0;
  /// SVD: folded-in factor rows for users/items new since the last train.
  std::vector<std::pair<int32_t, std::vector<float>>> user_rows;
  std::vector<std::pair<int32_t, std::vector<float>>> item_rows;
  size_t num_users = 0;
  size_t num_items = 0;
  /// External ids whose cached scores the commit must invalidate: for
  /// item-based CF every user gains/loses neighbors through these items;
  /// for user-based CF these users' whole prediction rows changed.
  std::vector<int64_t> stale_users;
  std::vector<int64_t> stale_items;
  /// Set by models with no incremental form: the commit must rebuild the
  /// model from scratch over the whole current matrix — ops that landed
  /// after the prepare included, so it leaves no delta behind — and
  /// invalidate the whole score index instead of patching rows. Without
  /// this a base-class model would silently stay stale until the next full
  /// retrain.
  bool full_rebuild = false;

  bool empty() const {
    return rows.empty() && user_rows.empty() && item_rows.empty() &&
           !full_rebuild;
  }
};

class RecModel {
 public:
  explicit RecModel(std::shared_ptr<const RatingMatrix> ratings)
      : ratings_(std::move(ratings)) {}
  virtual ~RecModel() = default;

  virtual RecAlgorithm algorithm() const = 0;

  /// RecScore(u, i) for a batch of candidate items of one user. The user
  /// context (id resolution, rated-vector scatter, factor row) is resolved
  /// once for the whole batch; out[k] is the score of items[k]. Unknown
  /// user/item or empty candidate overlap yields 0 (paper Algorithm 1).
  /// Each out[k] depends only on (user_id, items[k]) — never on the other
  /// batch members — so any batching of the same pairs is bit-identical.
  /// Thread-safe: const read of the model with thread-local scratch.
  ///
  /// Non-virtual choke point: every scoring path in the engine (executors,
  /// cache admission, materialization, evaluation, OnTop baseline) funnels
  /// through here, so this is where model.predict_calls/predict_batches are
  /// counted. Implementations override DoPredictBatch.
  void PredictBatch(int64_t user_id, std::span<const int64_t> items,
                    std::span<double> out) const {
    obs::Count(obs::Counter::kModelPredictCalls, items.size());
    obs::Count(obs::Counter::kModelPredictBatches);
    DoPredictBatch(user_id, items, out);
  }

  /// RecScore(u, i) for external ids: a thin wrapper over a batch of one.
  double Predict(int64_t user_id, int64_t item_id) const {
    double out = 0;
    PredictBatch(user_id, std::span<const int64_t>(&item_id, 1),
                 std::span<double>(&out, 1));
    return out;
  }

  /// Rough model footprint in bytes (scalability ablations).
  virtual size_t ApproxBytes() const = 0;

  /// True when the model can patch itself row-by-row via
  /// PrepareDeltaUpdate/ApplyDeltaUpdate. Models without an incremental
  /// form (the base fallback) answer false, which makes the maintenance
  /// policy refresh them immediately on the first delta op — a write must
  /// never be silently unreflected until a threshold trips.
  virtual bool SupportsIncrementalUpdate() const { return false; }

  /// Compute the row replacements needed to bring this model in sync with
  /// the matrix's merged contents given the delta ops accumulated since it
  /// was built. Read-only with respect to the model (safe under a shared
  /// lock); the result commits via ApplyDeltaUpdate. The base model has no
  /// incremental form: it requests a full rebuild at commit time instead of
  /// returning an empty (and therefore silently stale) update.
  virtual Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const {
    ModelUpdate update;
    update.full_rebuild = !ops.empty();
    return update;
  }

  /// Install rows prepared by PrepareDeltaUpdate. Must run under the writer
  /// lock (mutates model state readers consult).
  virtual void ApplyDeltaUpdate(ModelUpdate&& update) { (void)update; }

  /// The snapshot the model was built from.
  const RatingMatrix& ratings() const { return *ratings_; }
  std::shared_ptr<const RatingMatrix> ratings_ptr() const { return ratings_; }

 protected:
  virtual void DoPredictBatch(int64_t user_id, std::span<const int64_t> items,
                              std::span<double> out) const = 0;

  std::shared_ptr<const RatingMatrix> ratings_;
};

}  // namespace recdb
