// Spatial tests: geometry predicates against hand-built fixtures, WKT round
// trips, and the paper's Section V location-aware queries through SQL
// (ST_Contains / ST_DWithin / CScore).
#include <gtest/gtest.h>

#include "api/recdb.h"
#include "common/rng.h"
#include "spatial/geometry.h"

namespace recdb {
namespace {

using spatial::Geometry;
using spatial::Point;
using spatial::STContains;
using spatial::STDistance;
using spatial::STDWithin;

Geometry UnitSquare() {
  return Geometry::MakePolygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

TEST(GeometryTest, PointInConvexPolygon) {
  auto sq = UnitSquare();
  EXPECT_TRUE(STContains(sq, Geometry::MakePoint(0.5, 0.5)));
  EXPECT_TRUE(STContains(sq, Geometry::MakePoint(0.0, 0.5)));  // boundary
  EXPECT_TRUE(STContains(sq, Geometry::MakePoint(1.0, 1.0)));  // corner
  EXPECT_FALSE(STContains(sq, Geometry::MakePoint(1.5, 0.5)));
  EXPECT_FALSE(STContains(sq, Geometry::MakePoint(-0.1, 0.5)));
}

TEST(GeometryTest, PointInConcavePolygon) {
  // A "U" shape: the notch (0.5, 0.8) is outside.
  auto u = Geometry::MakePolygon(
      {{0, 0}, {1, 0}, {1, 1}, {0.7, 1}, {0.7, 0.3}, {0.3, 0.3}, {0.3, 1},
       {0, 1}});
  EXPECT_TRUE(STContains(u, Geometry::MakePoint(0.1, 0.9)));
  EXPECT_TRUE(STContains(u, Geometry::MakePoint(0.5, 0.1)));
  EXPECT_FALSE(STContains(u, Geometry::MakePoint(0.5, 0.8)));  // in the notch
}

TEST(GeometryTest, PolygonContainsPolygon) {
  auto big = Geometry::MakePolygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  auto small = Geometry::MakePolygon({{2, 2}, {4, 2}, {4, 4}, {2, 4}});
  EXPECT_TRUE(STContains(big, small));
  EXPECT_FALSE(STContains(small, big));
}

TEST(GeometryTest, Distances) {
  EXPECT_DOUBLE_EQ(
      STDistance(Geometry::MakePoint(0, 0), Geometry::MakePoint(3, 4)), 5.0);
  auto sq = UnitSquare();
  EXPECT_DOUBLE_EQ(STDistance(Geometry::MakePoint(0.5, 0.5), sq), 0.0);
  EXPECT_DOUBLE_EQ(STDistance(Geometry::MakePoint(2, 0.5), sq), 1.0);
  EXPECT_DOUBLE_EQ(STDistance(sq, Geometry::MakePoint(2, 0.5)), 1.0);
}

TEST(GeometryTest, DWithin) {
  auto a = Geometry::MakePoint(0, 0);
  auto b = Geometry::MakePoint(3, 4);
  EXPECT_TRUE(STDWithin(a, b, 5.0));
  EXPECT_TRUE(STDWithin(a, b, 5.0001));
  EXPECT_FALSE(STDWithin(a, b, 4.9999));
}

TEST(GeometryTest, WktRoundTrip) {
  auto p = Geometry::MakePoint(1.25, -3.5);
  auto parsed = Geometry::FromString(p.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), p);

  auto poly = Geometry::MakePolygon({{0, 0}, {2.5, 0}, {1, 3.75}});
  auto parsed2 = Geometry::FromString(poly.ToString());
  ASSERT_TRUE(parsed2.ok());
  EXPECT_EQ(parsed2.value(), poly);

  EXPECT_FALSE(Geometry::FromString("CIRCLE(1 2 3)").ok());
  EXPECT_FALSE(Geometry::FromString("POINT(1)").ok());
  EXPECT_FALSE(Geometry::FromString("POLYGON((0 0, 1 1))").ok());
}

// ------------------------- Section V case study through SQL ---------------

class PoiSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<RecDB>();
    Exec("CREATE TABLE Hotels (vid INT, name TEXT, geom GEOMETRY)");
    Exec("CREATE TABLE City (cid INT, name TEXT, geom GEOMETRY)");
    Exec("CREATE TABLE HotelRatings (uid INT, iid INT, ratingval DOUBLE)");

    // 20 hotels on a line; "San Diego" covers x in [0, 9.5].
    std::vector<std::vector<Value>> hotels;
    for (int h = 1; h <= 20; ++h) {
      hotels.push_back(
          {Value::Int(h), Value::String("hotel" + std::to_string(h)),
           Value::Geometry(Geometry::MakePoint(h - 1.0, 0.0))});
    }
    ASSERT_TRUE(db_->BulkInsert("Hotels", hotels).ok());
    Exec("INSERT INTO City VALUES (1, 'San Diego', "
         "'POLYGON((-0.5 -1, 9.5 -1, 9.5 1, -0.5 1))')");

    Rng rng(9);
    std::vector<std::vector<Value>> ratings;
    for (int u = 1; u <= 12; ++u) {
      for (int k = 0; k < 8; ++k) {
        ratings.push_back({Value::Int(u),
                           Value::Int(rng.UniformInt(1, 20)),
                           Value::Double(rng.UniformInt(1, 5))});
      }
    }
    ASSERT_TRUE(db_->BulkInsert("HotelRatings", ratings).ok());
    Exec(
        "CREATE RECOMMENDER PoiRec ON HotelRatings USERS FROM uid "
        "ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF");
  }

  ResultSet Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    if (!r.ok()) return ResultSet{};
    return std::move(r).value();
  }

  std::unique_ptr<RecDB> db_;
};

TEST_F(PoiSqlTest, Query6ContainsFiltersToCity) {
  // Paper Query 6: hotels within the 'San Diego' polygon only.
  auto rs = Exec(
      "SELECT H.name, H.vid, R.ratingval "
      "FROM HotelRatings AS R, Hotels AS H, City AS C "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 AND R.iid = H.vid AND C.name = 'San Diego' "
      "AND ST_Contains(C.geom, H.geom)");
  ASSERT_FALSE(rs.rows.empty());
  for (const auto& row : rs.rows) {
    EXPECT_LE(row.At(1).AsInt(), 10) << "hotel outside the city polygon";
  }
}

TEST_F(PoiSqlTest, Query7DWithinRadius) {
  // Paper Query 7 shape: POIs within distance 3.2 of the user at (5, 0).
  auto rs = Exec(
      "SELECT H.name, H.vid FROM HotelRatings AS R, Hotels AS H "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 2 AND R.iid = H.vid "
      "AND ST_DWithin(ST_Point(5.0, 0.0), H.geom, 3.2) "
      "ORDER BY R.ratingval DESC LIMIT 10");
  for (const auto& row : rs.rows) {
    int64_t vid = row.At(1).AsInt();
    double x = static_cast<double>(vid - 1);
    EXPECT_LE(std::fabs(x - 5.0), 3.2);
  }
}

TEST_F(PoiSqlTest, Query8CScoreCombinedRanking) {
  // Paper Query 8: rank by combined rating/proximity score.
  auto rs = Exec(
      "SELECT H.name, CScore(R.ratingval, ST_Distance(H.geom, "
      "ST_Point(5.0, 0.0))) AS cs "
      "FROM HotelRatings AS R, Hotels AS H "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3 AND R.iid = H.vid "
      "ORDER BY CScore(R.ratingval, ST_Distance(H.geom, ST_Point(5.0, 0.0))) "
      "DESC LIMIT 3");
  ASSERT_LE(rs.NumRows(), 3u);
  ASSERT_FALSE(rs.rows.empty());
  for (size_t i = 1; i < rs.NumRows(); ++i) {
    EXPECT_GE(rs.At(i - 1, 1).AsDouble(), rs.At(i, 1).AsDouble());
  }
}

}  // namespace
}  // namespace recdb
