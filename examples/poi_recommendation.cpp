// Location-aware POI recommendation — the paper's Section V case study.
//
// Loads the Yelp-shaped dataset (businesses carry planar coordinates;
// city districts are polygons), creates POI recommenders, and runs the three
// scenarios:
//   Query 6 — hotels inside an urban area          (ST_Contains)
//   Query 7 — restaurants within a radius          (ST_DWithin)
//   Query 8 — rank by combined rating + proximity  (CScore + ST_Distance)
//
// Run: ./build/examples/poi_recommendation
#include <cstdio>

#include "api/recdb.h"
#include "datagen/datagen.h"

using recdb::RecDB;
using recdb::ResultSet;

namespace {

ResultSet Run(RecDB& db, const std::string& sql) {
  auto r = db.Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n  sql: %s\n",
                 r.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace

int main() {
  RecDB db;

  std::printf("Loading synthetic Yelp (3403 users x 1446 POIs)...\n");
  auto ds =
      recdb::datagen::LoadDataset(&db, recdb::datagen::DatasetSpec::Yelp());
  if (!ds.ok()) {
    std::fprintf(stderr, "load failed: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %lld reviews\n\n",
              static_cast<long long>(ds.value().num_ratings));

  // Paper Recommenders 2 & 3: one ItemCosCF and one SVD POI recommender.
  std::printf("%s\n",
              Run(db,
                  "CREATE RECOMMENDER PoiItemRec ON yelp_ratings "
                  "USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval "
                  "USING ItemCosCF")
                  .message.c_str());
  std::printf("%s\n\n",
              Run(db,
                  "CREATE RECOMMENDER PoiSvdRec ON yelp_ratings "
                  "USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval "
                  "USING SVD")
                  .message.c_str());

  // Scenario 1 / Query 6: POIs liked by similar users, inside Downtown.
  auto q6 = Run(db,
                "SELECT I.name, R.ratingval "
                "FROM yelp_ratings AS R, yelp_items AS I, yelp_cities AS C "
                "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
                "WHERE R.uid = 1 AND R.iid = I.iid AND C.name = 'Downtown' "
                "AND ST_Contains(C.geom, I.geom) "
                "ORDER BY R.ratingval DESC LIMIT 5");
  std::printf("Query 6 — top POIs inside Downtown for user 1 (%.2f ms):\n%s\n",
              q6.elapsed_seconds * 1e3, q6.ToString().c_str());

  // Scenario 2 / Query 7: POIs within distance 15 of the user at (50, 50).
  auto q7 = Run(db,
                "SELECT I.name, R.ratingval "
                "FROM yelp_ratings AS R, yelp_items AS I "
                "RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD "
                "WHERE R.uid = 1 AND R.iid = I.iid "
                "AND ST_DWithin(ST_Point(50.0, 50.0), I.geom, 15.0) "
                "ORDER BY R.ratingval DESC LIMIT 10");
  std::printf("Query 7 — top POIs within radius 15 of (50,50) (%.2f ms):\n%s\n",
              q7.elapsed_seconds * 1e3, q7.ToString().c_str());

  // Query 8: combined score — high predicted rating AND close by win.
  auto q8 = Run(db,
                "SELECT I.name, "
                "CScore(R.ratingval, ST_Distance(I.geom, ST_Point(50.0, 50.0)))"
                " AS combined "
                "FROM yelp_ratings AS R, yelp_items AS I "
                "RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD "
                "WHERE R.uid = 1 AND R.iid = I.iid "
                "ORDER BY CScore(R.ratingval, "
                "ST_Distance(I.geom, ST_Point(50.0, 50.0))) DESC LIMIT 3");
  std::printf("Query 8 — combined rating/proximity ranking (%.2f ms):\n%s\n",
              q8.elapsed_seconds * 1e3, q8.ToString().c_str());
  return 0;
}
