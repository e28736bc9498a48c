// Neighborhood-based collaborative filtering models.
//
// ItemCFModel keeps the paper's Item Neighborhood Table (per-item similarity
// lists); prediction follows Eq. (2): similarity-weighted average of the
// user's ratings over the intersection of the item's neighborhood and the
// user's rated items, normalized by Σ|sim|. UserCFModel is the symmetric
// user-user variant (paper Section IV-A.2). Each model holds one table,
// every row in ascending neighbor idx (similarity.h).
#pragma once

#include <memory>
#include <vector>

#include "recommender/model.h"
#include "recommender/similarity.h"

namespace recdb {

class ItemCFModel : public RecModel {
 public:
  /// Build from a ratings snapshot (frozen to flat CSR as a side effect).
  /// `centered` selects Pearson (ItemPearCF) vs plain cosine (ItemCosCF).
  static std::unique_ptr<ItemCFModel> Build(
      std::shared_ptr<RatingMatrix> ratings, bool centered,
      const SimilarityOptions& opts = {});

  RecAlgorithm algorithm() const override {
    return centered_ ? RecAlgorithm::kItemPearCF : RecAlgorithm::kItemCosCF;
  }

  /// Eq. (2) for every candidate, by whichever of two loops does less work
  /// (DESIGN.md §10). Gather walks each candidate's row N(i) against the
  /// user's ratings in a dense value/mask pair: Σ_c |N(i_c)| steps. Scatter
  /// (Lucene-CF) walks the user's rated items j and pushes s·r_uj into the
  /// dense sums of every i in N(j): NumItems + Σ_{j∈R(u)} |N(j)| steps. Both
  /// add a candidate's terms in ascending j, so on a symmetric table
  /// (top_k == 0) they are bit-identical; a top-k table only gathers.
  void DoPredictBatch(int64_t user_id, std::span<const int64_t> items,
                      std::span<double> out) const override;

  /// Similarity of two items by external id (0 when either is unknown or
  /// the pair is not in the neighborhood list): a binary search of the row.
  double Similarity(int64_t item_a, int64_t item_b) const;

  /// The neighborhood list of an item (dense indices, ascending),
  /// test/inspection aid.
  const std::vector<Neighbor>& NeighborhoodAt(int32_t item_idx) const {
    return neighbors_[item_idx];
  }

  size_t ApproxBytes() const override;

  /// Total neighbor entries across all lists (model-size ablations).
  size_t NumNeighborEntries() const;

  /// Incremental maintenance: recompute only the neighborhood rows whose
  /// similarity terms a delta op can reach — the op's item, every item
  /// sharing a rater with it (its norm changed, so every nonzero pair did),
  /// and the op user's rated items (their dot products gained/lost the
  /// shared dimension). Rows come back bit-identical to a full rebuild.
  bool SupportsIncrementalUpdate() const override { return true; }
  Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const override;
  void ApplyDeltaUpdate(ModelUpdate&& update) override;

 private:
  ItemCFModel(std::shared_ptr<const RatingMatrix> ratings, bool centered,
              const SimilarityOptions& opts,
              std::vector<std::vector<Neighbor>> neighborhoods);

  bool centered_;
  SimilarityOptions opts_;  // as resolved at build time (centered included)
  std::vector<std::vector<Neighbor>> neighbors_;  // [item_idx], idx-ascending
};

class UserCFModel : public RecModel {
 public:
  static std::unique_ptr<UserCFModel> Build(
      std::shared_ptr<RatingMatrix> ratings, bool centered,
      const SimilarityOptions& opts = {});

  RecAlgorithm algorithm() const override {
    return centered_ ? RecAlgorithm::kUserPearCF : RecAlgorithm::kUserCosCF;
  }

  /// Symmetric to ItemCF over the user side: the user's neighbor sims are
  /// scattered once into a dense accumulator, then each candidate item's
  /// contiguous rater row (flat CSR) is gathered against it.
  void DoPredictBatch(int64_t user_id, std::span<const int64_t> items,
                      std::span<double> out) const override;

  double Similarity(int64_t user_a, int64_t user_b) const;

  const std::vector<Neighbor>& NeighborhoodAt(int32_t user_idx) const {
    return neighbors_[user_idx];
  }

  size_t ApproxBytes() const override;
  size_t NumNeighborEntries() const;

  /// User-side counterpart of ItemCFModel::PrepareDeltaUpdate.
  bool SupportsIncrementalUpdate() const override { return true; }
  Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const override;
  void ApplyDeltaUpdate(ModelUpdate&& update) override;

 private:
  UserCFModel(std::shared_ptr<const RatingMatrix> ratings, bool centered,
              const SimilarityOptions& opts,
              std::vector<std::vector<Neighbor>> neighborhoods);

  bool centered_;
  SimilarityOptions opts_;  // as resolved at build time (centered included)
  std::vector<std::vector<Neighbor>> neighbors_;  // [user_idx], idx-ascending
};

}  // namespace recdb
