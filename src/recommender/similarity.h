// Neighborhood (similarity-list) computation for collaborative filtering.
//
// Cosine similarity follows paper Eq. (1): dot product over co-rated
// dimensions, normalized by the full vector norms. Pearson correlation is
// realized as mean-centered cosine (each vector centered by its own mean
// before Eq. (1)) — the "adjusted cosine" formulation used by LensKit and
// the common in-practice Pearson variant; see DESIGN.md.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "recommender/rating_matrix.h"

namespace recdb {

/// One neighbor in a similarity list: (neighbor dense index, SimScore).
struct Neighbor {
  int32_t idx = 0;
  float sim = 0;
};

struct SimilarityOptions {
  /// Center vectors by their own mean first (Pearson / adjusted cosine).
  bool centered = false;
  /// Keep only the top-k most similar neighbors per vector (by |sim|);
  /// 0 keeps the full similarity list, as the paper's model tables do.
  int32_t top_k = 0;
  /// Drop pairs with fewer co-rated dimensions than this (noise control).
  int32_t min_overlap = 1;
};

/// Compute per-item similarity lists (paper Item Neighborhood Table).
///
/// Row-order contract (every builder and recompute below): result[i] holds
/// item i's neighbors in strictly ascending neighbor idx, never i itself.
/// With `top_k == 0` the table is symmetric — j is in row i exactly when i
/// is in row j, with the same float sim — because both ends of a pair read
/// one dot-product cell and norms[p]*norms[q] commutes. ItemCF's scatter
/// kernel relies on that (DESIGN.md §10); a top-k trim breaks it.
std::vector<std::vector<Neighbor>> BuildItemNeighborhoods(
    const RatingMatrix& ratings, const SimilarityOptions& opts);

/// Compute per-user similarity lists (paper User Neighborhood Table).
std::vector<std::vector<Neighbor>> BuildUserNeighborhoods(
    const RatingMatrix& ratings, const SimilarityOptions& opts);

/// Recompute a subset of item-neighborhood rows against the matrix's
/// current (merged) contents. Each returned pair is (item row index,
/// fresh neighbor list), bit-identical to the same row of a full
/// BuildItemNeighborhoods over the same matrix: products are accumulated
/// in the same ascending-dimension float order and the selection/top-k
/// logic is shared code. Row indices may exceed the caller's current
/// neighborhood table size (new items); out-of-range indices are ignored.
std::vector<std::pair<int32_t, std::vector<Neighbor>>>
RecomputeItemNeighborhoodRows(const RatingMatrix& ratings,
                              const SimilarityOptions& opts,
                              const std::vector<int32_t>& rows);

/// User-based counterpart of RecomputeItemNeighborhoodRows.
std::vector<std::pair<int32_t, std::vector<Neighbor>>>
RecomputeUserNeighborhoodRows(const RatingMatrix& ratings,
                              const SimilarityOptions& opts,
                              const std::vector<int32_t>& rows);

/// Pairwise similarity of two sparse vectors (sorted by idx), per Eq. (1).
/// Exposed for direct testing against hand-computed fixtures.
double PairwiseCosine(const std::vector<RatingEntry>& a,
                      const std::vector<RatingEntry>& b);

}  // namespace recdb
