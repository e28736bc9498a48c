// Recommender: a named, registered recommender (paper CREATE RECOMMENDER).
//
// Owns one RatingMatrix (frozen base + delta overlay), the built RecModel,
// the pre-computation index (RecScoreIndex) and the maintenance policy.
// Lifecycle: ingest lands in the matrix's delta overlay without
// invalidating the frozen CSR, scoring reads the merge view, and
// maintenance is *incremental* — a two-phase refresh (PrepareRefresh off
// the writer lock, CommitRefresh under it) merges delta ops [0, n) into a
// fresh base and patches only the model rows they touched. Ops that land
// between the two phases stay behind as the next delta, so a commit never
// conflicts with writers. A full retrain happens only at Build() time
// (CREATE RECOMMENDER / recovery), never in response to a statement.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/rec_score_index.h"
#include "recommender/cf_model.h"
#include "recommender/svd_model.h"

namespace recdb {

struct RecommenderConfig {
  std::string name;
  std::string ratings_table;
  std::string user_col;
  std::string item_col;
  std::string rating_col;
  RecAlgorithm algorithm = kDefaultAlgorithm;
  /// Maintain when pending updates / base model size >= this ratio
  /// (the paper's N% system parameter). Since PR 7 reaching it triggers an
  /// incremental refresh, not a retrain.
  double rebuild_threshold = 0.10;
  SimilarityOptions sim_opts;
  SvdOptions svd_opts;
  /// Background re-freeze trigger: refresh once the delta log reaches
  /// max(min_refresh_ops, refresh_threshold * base ratings). Tuning knobs
  /// only — intentionally not part of the persisted catalog record, so
  /// database files written before PR 7 load unchanged.
  double refresh_threshold = 0.05;
  size_t min_refresh_ops = 32;
};

class Recommender {
 public:
  /// (user, item) pairs whose cached scores a mutation invalidated —
  /// handed to the invalidation listener (CacheManager) for lazy
  /// re-materialization.
  using InvalidatedPairs = std::vector<std::pair<int64_t, int64_t>>;

  explicit Recommender(RecommenderConfig config)
      : config_(std::move(config)),
        matrix_(std::make_shared<RatingMatrix>()) {}

  const RecommenderConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  RecAlgorithm algorithm() const { return config_.algorithm; }

  /// Ingest one rating (does NOT rebuild the model). On a frozen matrix the
  /// mutation lands in the delta overlay and stale score-index entries for
  /// the affected predictions are evicted (scoped per algorithm family).
  void AddRating(int64_t user_id, int64_t item_id, double rating);

  /// Remove a rating (SQL DELETE on the ratings table); counts toward the
  /// maintenance threshold like an insert.
  void RemoveRating(int64_t user_id, int64_t item_id);

  /// Batched ingest: apply one statement's rating mutations as a single
  /// delta batch (RatingMatrix::ApplyBatch), with one delta-
  /// pending gauge adjustment and one invalidation-listener callback for
  /// the whole statement. Per-op DeltaOps and maintenance pressure are
  /// identical to the per-row loop.
  void ApplyRatingBatch(const std::vector<RatingMatrix::BatchRatingOp>& ops);

  /// Recommender Initialization: merge any pending delta and train the
  /// model from scratch for the configured algorithm. Returns the build
  /// wall time. The only full-retrain entry point.
  Result<double> Build();

  /// True when pending updates have reached the paper's N% maintenance
  /// threshold (or no model exists yet).
  bool NeedsRebuild() const {
    if (model_ == nullptr) return true;
    if (base_size_ == 0) return pending_updates() > 0;
    return static_cast<double>(pending_updates()) >=
           config_.rebuild_threshold * static_cast<double>(base_size_);
  }

  /// True when the delta log has reached the background re-freeze trigger.
  /// A model with no incremental form cannot absorb delta rows at all, so
  /// any pending op triggers immediately — a write must never sit silently
  /// unreflected until a threshold trips.
  bool NeedsRefresh() const {
    if (model_ == nullptr || !matrix_->has_delta()) return false;
    if (!model_->SupportsIncrementalUpdate()) return true;
    double by_ratio = config_.refresh_threshold *
                      static_cast<double>(base_size_);
    double trigger = std::max(static_cast<double>(config_.min_refresh_ops),
                              by_ratio);
    return static_cast<double>(matrix_->delta_size()) >= trigger;
  }

  /// Maintain if the paper's N% policy calls for it; returns whether any
  /// maintenance happened. With a built model this is an incremental
  /// Refresh() (bit-identical to a retrain for CF; fold-in for SVD) —
  /// statements never trigger a full retrain.
  Result<bool> MaintainIfNeeded() {
    if (!NeedsRebuild()) return false;
    if (model_ == nullptr) {
      RECDB_RETURN_NOT_OK(Build().status());
      return true;
    }
    return Refresh();
  }

  // --- two-phase incremental refresh ---------------------------------------

  /// Everything a re-freeze needs, prepared against delta ops [0, ops) of
  /// one base: the merged CSR candidate and the model row updates. Building
  /// it only reads, so it can run off the writer lock while readers score
  /// through the overlay.
  struct RefreshPlan {
    /// The matrix and base the plan was prepared against. Holding the
    /// pointer keeps a dropped recommender's matrix alive, so a re-created
    /// one can never match it.
    std::shared_ptr<const RatingMatrix> matrix;
    uint64_t refreezes = 0;
    RatingMatrix::MergedCsr csr;
    ModelUpdate update;
    size_t ops = 0;
    /// Ratings count at op `ops`: the model size the N% policy measures.
    size_t base_size = 0;

    /// False when there was nothing to do (no model or no delta).
    bool valid() const { return matrix != nullptr; }
  };

  /// Prepare a refresh plan (shared lock is enough).
  Result<RefreshPlan> PrepareRefresh() const;

  /// Install a prepared plan (writer lock required). Ops that landed after
  /// the prepare stay pending as the new delta. Returns false, changing
  /// nothing, for an invalid plan or one whose base another refresh or
  /// build has since replaced (counted in ingest.refresh_conflicts).
  bool CommitRefresh(RefreshPlan&& plan);

  /// One-step refresh under the writer lock: prepare + commit. Returns
  /// whether a merge happened.
  Result<bool> Refresh();

  /// Dedup guard for the background scheduler: returns true if this call
  /// claimed the pending-refresh slot (no job was in flight).
  bool TryMarkRefreshScheduled() {
    bool expected = false;
    return refresh_scheduled_.compare_exchange_strong(expected, true);
  }
  void ClearRefreshScheduled() { refresh_scheduled_.store(false); }

  /// Recovery aid: adopt a pre-loaded (typically already frozen) matrix
  /// instead of re-ingesting the ratings table row by row. Must be called
  /// before Build().
  void SeedMatrix(std::shared_ptr<RatingMatrix> matrix) {
    matrix_ = std::move(matrix);
  }

  /// CacheManager hook: invoked with the (user, item) pairs each mutation
  /// or refresh commit evicted from the score index.
  void SetInvalidationListener(
      std::function<void(const InvalidatedPairs&)> listener) {
    invalidation_listener_ = std::move(listener);
  }

  /// Built model; null before the first Build().
  const RecModel* model() const { return model_.get(); }
  RecModel* mutable_model() { return model_.get(); }

  /// Test seam: install a model that did not come from Build() (e.g. a
  /// stub without incremental support). Resets maintenance pressure as a
  /// real build would.
  void AdoptModelForTest(std::unique_ptr<RecModel> model) {
    matrix_->Freeze();
    model_ = std::move(model);
    base_size_ = matrix_->NumRatings();
  }

  /// The matrix scoring reads (frozen base + overlay merge view). The
  /// historical live/snapshot split collapsed into one matrix in PR 7;
  /// both accessors remain for call sites.
  std::shared_ptr<const RatingMatrix> snapshot() const { return matrix_; }
  const RatingMatrix& live() const { return *matrix_; }
  RatingMatrix* mutable_matrix() { return matrix_.get(); }

  /// Effective rating ops not yet merged into the model's base: the delta
  /// log, including ops kept behind by a refresh commit.
  size_t pending_updates() const { return matrix_->delta_size(); }
  size_t base_size() const { return base_size_; }

  /// Pre-computed score store (paper Section IV-C); populated by the cache
  /// manager or by full materialization.
  RecScoreIndex* score_index() { return &score_index_; }
  const RecScoreIndex& score_index() const { return score_index_; }

  /// Materialize predicted scores for every (user, unseen item) pair —
  /// HOTNESS-THRESHOLD = 0 behaviour. Expensive; benchmarks and tests use it
  /// to study the pre-computation upper bound.
  Status MaterializeAll();

  /// Materialize one user's scores for all unseen items (what the cache
  /// manager does for a hot user).
  Status MaterializeUser(int64_t user_id);

 private:
  /// Evict score-index entries staled by a mutation of (user, item),
  /// scoped to what the algorithm family can actually change, then notify
  /// the invalidation listener.
  void InvalidateForIngest(int64_t user_id, int64_t item_id);
  void CollectIngestInvalidations(int64_t user_id, int64_t item_id,
                                  InvalidatedPairs* out);
  void NotifyInvalidated(InvalidatedPairs&& pairs);

  RecommenderConfig config_;
  std::shared_ptr<RatingMatrix> matrix_;
  std::unique_ptr<RecModel> model_;
  size_t base_size_ = 0;
  std::atomic<bool> refresh_scheduled_{false};
  std::function<void(const InvalidatedPairs&)> invalidation_listener_;
  RecScoreIndex score_index_;
};

}  // namespace recdb
