// Synthetic dataset generators standing in for the paper's evaluation data
// (MovieLens 100K, LDOS-CoMoDa, Yelp challenge subset — see DESIGN.md's
// substitution table).
//
// Each generator reproduces the real dataset's cardinalities and gives the
// rating matrix the two properties query cost depends on: Zipf-skewed item
// popularity / user activity, and a planted low-rank preference structure so
// collaborative filtering has real signal. Yelp-style datasets additionally
// get POI locations and city polygons for the Section V case study.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/recdb.h"

namespace recdb::datagen {

struct DatasetSpec {
  /// Table-name prefix, e.g. "ml" -> ml_users / ml_items / ml_ratings.
  std::string prefix;
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_ratings = 0;
  /// Zipf exponents for item popularity and user activity.
  double item_skew = 0.8;
  double user_skew = 0.7;
  /// Ratings are drawn on [1, 5] in 0.5 steps around a planted 2-factor
  /// preference structure.
  uint64_t seed = 42;
  /// Generate POI locations (items get a GEOMETRY point in [0,100]^2) and a
  /// <prefix>_cities table with polygonal districts.
  bool with_locations = false;

  /// The paper's three datasets (Section VI).
  static DatasetSpec MovieLens100K();
  static DatasetSpec LdosComoda();
  static DatasetSpec Yelp();

  /// Proportionally shrunken variant (for fast unit tests): user/item
  /// counts scaled by `factor`, ratings by `factor`^2 (preserving matrix
  /// density); minimums 10/10/30.
  DatasetSpec Scaled(double factor) const;
};

struct GeneratedDataset {
  std::string users_table;
  std::string items_table;
  std::string ratings_table;
  std::string cities_table;  // empty unless with_locations
  int64_t num_ratings = 0;   // actual distinct (user, item) pairs loaded
};

/// Create the tables and load the synthetic data into `db`. Deterministic
/// for a given spec (including seed).
Result<GeneratedDataset> LoadDataset(RecDB* db, const DatasetSpec& spec);

}  // namespace recdb::datagen
