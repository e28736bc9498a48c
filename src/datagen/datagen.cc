#include "datagen/datagen.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"
#include "common/string_util.h"
#include "spatial/geometry.h"

namespace recdb::datagen {

DatasetSpec DatasetSpec::MovieLens100K() {
  DatasetSpec s;
  s.prefix = "ml";
  s.num_users = 943;
  s.num_items = 1682;
  s.num_ratings = 100000;
  s.seed = 101;
  return s;
}

DatasetSpec DatasetSpec::LdosComoda() {
  DatasetSpec s;
  s.prefix = "ldos";
  s.num_users = 185;
  s.num_items = 785;
  s.num_ratings = 2297;
  s.seed = 202;
  return s;
}

DatasetSpec DatasetSpec::Yelp() {
  DatasetSpec s;
  s.prefix = "yelp";
  s.num_users = 3403;
  s.num_items = 1446;
  s.num_ratings = 126747;
  s.seed = 303;
  s.with_locations = true;
  return s;
}

DatasetSpec DatasetSpec::Scaled(double factor) const {
  DatasetSpec s = *this;
  s.num_users = std::max<int64_t>(10, static_cast<int64_t>(num_users * factor));
  s.num_items = std::max<int64_t>(10, static_cast<int64_t>(num_items * factor));
  // Ratings scale with factor^2: user and item counts both shrink by
  // `factor`, so keeping the same matrix *density* requires quadratic
  // scaling of the rating count.
  s.num_ratings = std::max<int64_t>(
      30, static_cast<int64_t>(num_ratings * factor * factor));
  return s;
}

namespace {

const char* kGenres[] = {"Action",  "Drama",   "Sci-Fi", "Comedy",
                         "Romance", "Horror",  "Crime",  "Suspense"};
const char* kCities[] = {"Minneapolis", "Austin", "San Diego", "Tempe",
                         "Seattle"};

/// Planted preference: each user/item carries a 2-factor latent vector;
/// rating = 3 + u·i + noise, snapped to the 1..5 half-star grid.
double PlantedRating(const std::vector<double>& uf,
                     const std::vector<double>& itf, Rng& rng) {
  double dot = uf[0] * itf[0] + uf[1] * itf[1];
  double raw = 3.0 + 1.1 * dot + rng.Gaussian(0, 0.45);
  double snapped = std::round(raw * 2.0) / 2.0;
  return std::clamp(snapped, 1.0, 5.0);
}

}  // namespace

Result<GeneratedDataset> LoadDataset(RecDB* db, const DatasetSpec& spec) {
  if (spec.num_users <= 0 || spec.num_items <= 0 || spec.num_ratings <= 0) {
    return Status::InvalidArgument("dataset spec cardinalities must be > 0");
  }
  Rng rng(spec.seed);
  GeneratedDataset out;
  out.users_table = spec.prefix + "_users";
  out.items_table = spec.prefix + "_items";
  out.ratings_table = spec.prefix + "_ratings";

  RECDB_RETURN_NOT_OK(
      db->Execute(StringFormat(
                      "CREATE TABLE %s (uid INT, name TEXT, city TEXT, age INT)",
                      out.users_table.c_str()))
          .status());
  if (spec.with_locations) {
    RECDB_RETURN_NOT_OK(
        db->Execute(StringFormat("CREATE TABLE %s (iid INT, name TEXT, "
                                 "genre TEXT, director TEXT, geom GEOMETRY)",
                                 out.items_table.c_str()))
            .status());
  } else {
    RECDB_RETURN_NOT_OK(
        db->Execute(StringFormat("CREATE TABLE %s (iid INT, name TEXT, "
                                 "genre TEXT, director TEXT)",
                                 out.items_table.c_str()))
            .status());
  }
  RECDB_RETURN_NOT_OK(
      db->Execute(StringFormat(
                      "CREATE TABLE %s (uid INT, iid INT, ratingval DOUBLE)",
                      out.ratings_table.c_str()))
          .status());

  // Latent factors drive both the rating values and mild genre clustering.
  std::vector<std::vector<double>> user_f(spec.num_users),
      item_f(spec.num_items);
  for (auto& f : user_f) f = {rng.Gaussian(0, 1), rng.Gaussian(0, 1)};
  for (auto& f : item_f) f = {rng.Gaussian(0, 1), rng.Gaussian(0, 1)};

  // Users.
  {
    std::vector<std::vector<Value>> rows;
    rows.reserve(spec.num_users);
    for (int64_t u = 0; u < spec.num_users; ++u) {
      rows.push_back({Value::Int(u + 1),
                      Value::String("user_" + std::to_string(u + 1)),
                      Value::String(kCities[u % 5]),
                      Value::Int(rng.UniformInt(18, 70))});
    }
    RECDB_RETURN_NOT_OK(db->BulkInsert(out.users_table, rows));
  }

  // Items (+ POI locations for Yelp-style datasets).
  {
    std::vector<std::vector<Value>> rows;
    rows.reserve(spec.num_items);
    for (int64_t i = 0; i < spec.num_items; ++i) {
      std::vector<Value> row = {
          Value::Int(i + 1),
          Value::String(spec.prefix + "_item_" + std::to_string(i + 1)),
          Value::String(kGenres[rng.UniformInt(0, 7)]),
          Value::String("director_" + std::to_string(i % 53))};
      if (spec.with_locations) {
        row.push_back(Value::Geometry(spatial::Geometry::MakePoint(
            rng.UniformDouble(0, 100), rng.UniformDouble(0, 100))));
      }
      rows.push_back(std::move(row));
    }
    RECDB_RETURN_NOT_OK(db->BulkInsert(out.items_table, rows));
  }

  if (spec.with_locations) {
    out.cities_table = spec.prefix + "_cities";
    RECDB_RETURN_NOT_OK(
        db->Execute(StringFormat(
                        "CREATE TABLE %s (cid INT, name TEXT, geom GEOMETRY)",
                        out.cities_table.c_str()))
            .status());
    // Four quadrant districts plus a central downtown polygon.
    std::vector<std::vector<Value>> rows = {
        {Value::Int(1), Value::String("Northwest"),
         Value::Geometry(spatial::Geometry::MakePolygon(
             {{0, 50}, {50, 50}, {50, 100}, {0, 100}}))},
        {Value::Int(2), Value::String("Northeast"),
         Value::Geometry(spatial::Geometry::MakePolygon(
             {{50, 50}, {100, 50}, {100, 100}, {50, 100}}))},
        {Value::Int(3), Value::String("Southwest"),
         Value::Geometry(spatial::Geometry::MakePolygon(
             {{0, 0}, {50, 0}, {50, 50}, {0, 50}}))},
        {Value::Int(4), Value::String("Southeast"),
         Value::Geometry(spatial::Geometry::MakePolygon(
             {{50, 0}, {100, 0}, {100, 50}, {50, 50}}))},
        {Value::Int(5), Value::String("Downtown"),
         Value::Geometry(spatial::Geometry::MakePolygon(
             {{35, 35}, {65, 35}, {65, 65}, {35, 65}}))},
    };
    RECDB_RETURN_NOT_OK(db->BulkInsert(out.cities_table, rows));
  }

  // Ratings: Zipf-skewed (user, item) draws, deduplicated, planted values.
  ZipfSampler user_sampler(spec.num_users, spec.user_skew);
  ZipfSampler item_sampler(spec.num_items, spec.item_skew);
  std::unordered_set<int64_t> seen;
  seen.reserve(spec.num_ratings * 2);
  std::vector<std::vector<Value>> rows;
  rows.reserve(4096);
  int64_t loaded = 0;
  int64_t max_attempts = spec.num_ratings * 30;
  const int64_t max_pairs = spec.num_users * spec.num_items;
  const int64_t target = std::min(spec.num_ratings, max_pairs);
  for (int64_t attempt = 0; loaded < target && attempt < max_attempts;
       ++attempt) {
    int64_t u = user_sampler.Sample(rng);
    int64_t i = item_sampler.Sample(rng);
    int64_t key = u * spec.num_items + i;
    if (!seen.insert(key).second) continue;
    double rating = PlantedRating(user_f[u], item_f[i], rng);
    rows.push_back(
        {Value::Int(u + 1), Value::Int(i + 1), Value::Double(rating)});
    ++loaded;
    if (rows.size() >= 4096) {
      RECDB_RETURN_NOT_OK(db->BulkInsert(out.ratings_table, rows));
      rows.clear();
    }
  }
  if (!rows.empty()) {
    RECDB_RETURN_NOT_OK(db->BulkInsert(out.ratings_table, rows));
  }
  out.num_ratings = loaded;
  return out;
}

}  // namespace recdb::datagen
