// Independent CF oracle: a naive scorer written straight from the paper's
// formulas, checked against SQL RECOMMEND for the four CF recommenders.
//
//   Eq. (1)  sim(a, b) = Σ_d a_d·b_d / (‖a‖·‖b‖), the dot over co-rated
//            dimensions and the norms over the full vectors. Pearson is the
//            same after shifting each vector by its own mean (DESIGN.md §3).
//   Eq. (2)  ItemCF: score(u, i) = Σ_{j∈R(u)} sim(i, j)·r_uj / Σ |sim(i, j)|
//            UserCF: score(u, i) = Σ_{v∈R(i)} sim(u, v)·r_vi / Σ |sim(u, v)|
//            and 0 when the denominator is 0.
//
// The oracle works in double over std::map, shares no code with the engine
// and visits terms in whatever order the maps give. While a delta overlay is
// pending, the kernels read the edited ratings but the similarities of the
// last build (DESIGN.md §12); the oracle scores the same way, from two maps. The engine stores sims
// as float, so scores agree within 1e-6·max|r| (ratings are integers in
// 1..5, which keeps the cosine dot exact in float; see kTol). Top-k answers
// agree wherever the gap to the k-th score exceeds that.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/recdb.h"
#include "common/rng.h"
#include "common/task_scheduler.h"

namespace recdb {
namespace {

using Vec = std::map<int64_t, double>;  // dimension id -> rating
using RatingMap = std::map<std::pair<int64_t, int64_t>, double>;

constexpr double kMaxRating = 5.0;
constexpr double kTol = 1e-6 * kMaxRating;

struct ParallelismGuard {
  ~ParallelismGuard() { TaskScheduler::SetGlobalParallelism(1); }
};

double Mean(const Vec& v) {
  double sum = 0;
  for (const auto& [d, r] : v) sum += r;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Eq. (1), optionally mean-centered.
double OracleSim(const Vec& a, const Vec& b, bool centered) {
  const double ma = centered ? Mean(a) : 0;
  const double mb = centered ? Mean(b) : 0;
  double dot = 0, na = 0, nb = 0;
  for (const auto& [d, r] : a) {
    na += (r - ma) * (r - ma);
    auto it = b.find(d);
    if (it != b.end()) dot += (r - ma) * (it->second - mb);
  }
  for (const auto& [d, r] : b) nb += (r - mb) * (r - mb);
  const double denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0 ? dot / denom : 0;
}

class Oracle {
 public:
  /// `ratings` is what the kernels read; `sim_ratings` is what the
  /// similarities were built from.
  Oracle(const RatingMap& ratings, const RatingMap& sim_ratings,
         bool item_based, bool centered)
      : item_based_(item_based), centered_(centered) {
    for (const auto& [key, r] : ratings) {
      by_user_[key.first][key.second] = r;
      by_item_[key.second][key.first] = r;
    }
    for (const auto& [key, r] : sim_ratings) {
      sim_by_user_[key.first][key.second] = r;
      sim_by_item_[key.second][key.first] = r;
    }
  }

  /// Eq. (2) for (u, i).
  double Score(int64_t u, int64_t i) const {
    double num = 0, den = 0;
    if (item_based_) {
      const Vec& target = Row(sim_by_item_, i);
      for (const auto& [j, r] : by_user_.at(u)) {
        if (j == i) continue;
        const double s = OracleSim(target, Row(sim_by_item_, j), centered_);
        num += s * r;
        den += std::fabs(s);
      }
    } else {
      const Vec& me = Row(sim_by_user_, u);
      for (const auto& [v, r] : by_item_.at(i)) {
        if (v == u) continue;
        const double s = OracleSim(me, Row(sim_by_user_, v), centered_);
        num += s * r;
        den += std::fabs(s);
      }
    }
    return den == 0 ? 0 : num / den;
  }

  bool Rated(int64_t u, int64_t i) const {
    return by_user_.at(u).count(i) > 0;
  }
  const std::map<int64_t, Vec>& users() const { return by_user_; }
  const std::map<int64_t, Vec>& items() const { return by_item_; }

 private:
  /// An entity the similarities never saw has an empty vector: every
  /// similarity with it is 0.
  static const Vec& Row(const std::map<int64_t, Vec>& rows, int64_t id) {
    static const Vec kEmpty;
    auto it = rows.find(id);
    return it == rows.end() ? kEmpty : it->second;
  }

  bool item_based_;
  bool centered_;
  std::map<int64_t, Vec> by_user_;
  std::map<int64_t, Vec> by_item_;
  std::map<int64_t, Vec> sim_by_user_;
  std::map<int64_t, Vec> sim_by_item_;
};

/// Seeded random small data: 40 users x 90 items, 4-9 integer ratings per
/// user. Items 1..90 carry a genre (odd = 1) for the join.
class ReferenceOracleTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    Rng rng(20170419);
    std::vector<std::vector<Value>> rows;
    for (int64_t u = 1; u <= 40; ++u) {
      const int64_t n = rng.UniformInt(4, 9);
      for (int64_t have = 0; have < n;) {
        const int64_t i = rng.UniformInt(1, 90);
        if (ratings_.count({u, i})) continue;
        const double r = static_cast<double>(rng.UniformInt(1, 5));
        ratings_[{u, i}] = r;
        rows.push_back({Value::Int(u), Value::Int(i), Value::Double(r)});
        ++have;
      }
    }
    ASSERT_TRUE(db_.Execute("CREATE TABLE Ratings (uid INT, iid INT, "
                            "ratingval DOUBLE)")
                    .ok());
    ASSERT_TRUE(db_.BulkInsert("Ratings", rows).ok());
    std::vector<std::vector<Value>> items;
    for (int64_t i = 1; i <= 90; ++i) {
      items.push_back({Value::Int(i), Value::Int(i % 2)});
    }
    ASSERT_TRUE(db_.Execute("CREATE TABLE Items (iid INT, genre INT)").ok());
    ASSERT_TRUE(db_.BulkInsert("Items", items).ok());
    algo_ = GetParam();
    ASSERT_TRUE(db_.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                            "ITEMS FROM iid RATINGS FROM ratingval USING " +
                            algo_)
                    .ok());
    ResetOracle(ratings_);
  }

  /// Score from `ratings_` with similarities built from `sim_ratings`.
  void ResetOracle(const RatingMap& sim_ratings) {
    const bool item_based = algo_.rfind("Item", 0) == 0;
    const bool centered = algo_.find("Pear") != std::string::npos;
    oracle_ = std::make_unique<Oracle>(ratings_, sim_ratings, item_based,
                                       centered);
  }

  std::string Base() const {
    return "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
           "RECOMMEND R.iid TO R.uid ON R.ratingval USING " +
           algo_;
  }

  /// Every row's score matches the oracle; returns the (uid, iid) set.
  std::set<std::pair<int64_t, int64_t>> CheckScores(const ResultSet& rs,
                                                    size_t score_col,
                                                    const std::string& what) {
    std::set<std::pair<int64_t, int64_t>> seen;
    for (const Tuple& t : rs.rows) {
      const int64_t u = t.At(0).AsInt();
      const int64_t i = t.At(1).AsInt();
      EXPECT_FALSE(oracle_->Rated(u, i)) << what << " emitted a rated item";
      EXPECT_NEAR(t.At(score_col).AsNumeric(), oracle_->Score(u, i), kTol)
          << what << " user " << u << " item " << i;
      EXPECT_TRUE(seen.insert({u, i}).second) << what << " duplicate row";
    }
    return seen;
  }

  /// A top-k answer for one user: its scores match the oracle, it is
  /// sorted, and its item set agrees with the oracle's top-k wherever the
  /// gap to the k-th score exceeds the tolerance.
  void CheckTopK(const ResultSet& rs, int64_t u, size_t k,
                 const std::string& what) {
    CheckScores(rs, 2, what);
    std::vector<double> oracle_scores;
    for (const auto& [i, vec] : oracle_->items()) {
      if (!oracle_->Rated(u, i)) oracle_scores.push_back(oracle_->Score(u, i));
    }
    std::sort(oracle_scores.rbegin(), oracle_scores.rend());
    ASSERT_EQ(rs.NumRows(), std::min(k, oracle_scores.size())) << what;
    const double kth = oracle_scores[rs.NumRows() - 1];
    std::set<int64_t> got;
    for (size_t r = 0; r < rs.NumRows(); ++r) {
      if (r > 0) {
        EXPECT_GE(rs.At(r - 1, 2).AsNumeric(), rs.At(r, 2).AsNumeric())
            << what;
      }
      got.insert(rs.At(r, 1).AsInt());
      EXPECT_GE(oracle_->Score(u, rs.At(r, 1).AsInt()), kth - 2 * kTol)
          << what << " item " << rs.At(r, 1).AsInt();
    }
    for (const auto& [i, vec] : oracle_->items()) {
      if (oracle_->Rated(u, i)) continue;
      if (oracle_->Score(u, i) > kth + 2 * kTol) {
        EXPECT_TRUE(got.count(i)) << what << " missed item " << i;
      }
    }
  }

  /// Exact whole matrix, IN-list FilterRecommend and JoinRecommend.
  void CheckUnbounded(const std::string& what);
  /// The bounded top-k of each of kTopKUsers (EXPLAIN shows `topk=`).
  void CheckBoundedTopK(const std::string& what);

  RecDB db_;
  std::string algo_;
  RatingMap ratings_;
  std::unique_ptr<Oracle> oracle_;
};

constexpr int64_t kTopKUsers[] = {1, 7, 23, 40};
constexpr size_t kK = 10;

void ReferenceOracleTest::CheckUnbounded(const std::string& what) {
  auto all = db_.Execute(Base());
  ASSERT_TRUE(all.ok());
  size_t unseen = 0;
  for (const auto& [u, vec] : oracle_->users()) {
    unseen += oracle_->items().size() - vec.size();
  }
  EXPECT_EQ(CheckScores(all.value(), 2, what + " exact").size(), unseen);

  auto filtered =
      db_.Execute(Base() +
                  " WHERE R.uid IN (3, 9, 27) AND R.iid IN (2, 5, 11, 30, "
                  "47, 61, 88)");
  ASSERT_TRUE(filtered.ok());
  size_t expect_filtered = 0;
  for (int64_t u : {3, 9, 27}) {
    for (int64_t i : {2, 5, 11, 30, 47, 61, 88}) {
      expect_filtered += !oracle_->Rated(u, i);
    }
  }
  EXPECT_EQ(CheckScores(filtered.value(), 2, what + " filter").size(),
            expect_filtered);

  // JoinRecommend over the odd-genre items (Items holds 1..90 only).
  auto joined = db_.Execute(
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R, Items AS I "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING " +
      algo_ + " WHERE R.uid = 12 AND I.iid = R.iid AND I.genre = 1");
  ASSERT_TRUE(joined.ok());
  size_t expect_joined = 0;
  for (const auto& [i, vec] : oracle_->items()) {
    expect_joined += i <= 90 && i % 2 == 1 && !oracle_->Rated(12, i);
  }
  auto join_rows = CheckScores(joined.value(), 2, what + " join");
  EXPECT_EQ(join_rows.size(), expect_joined);
  for (const auto& [u, i] : join_rows) {
    EXPECT_EQ(i % 2, 1) << what << " join user " << u;
  }
}

void ReferenceOracleTest::CheckBoundedTopK(const std::string& what) {
  for (int64_t u : kTopKUsers) {
    const std::string q = Base() + " WHERE R.uid = " + std::to_string(u) +
                          " ORDER BY R.ratingval DESC LIMIT " +
                          std::to_string(kK);
    auto plan = db_.Explain(q);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan.value().find("topk="), std::string::npos)
        << what << " user " << u << "\n" << plan.value();
    for (int threads : {1, 4}) {
      ASSERT_TRUE(
          db_.Execute("SET parallelism = " + std::to_string(threads)).ok());
      auto rs = db_.Execute(q);
      ASSERT_TRUE(rs.ok());
      CheckTopK(rs.value(), u, kK,
                what + " user " + std::to_string(u) + " at parallelism " +
                    std::to_string(threads));
    }
  }
}

TEST_P(ReferenceOracleTest, SqlRecommendMatchesPaperFormulas) {
  ParallelismGuard guard;
  for (int threads : {1, 4}) {
    ASSERT_TRUE(
        db_.Execute("SET parallelism = " + std::to_string(threads)).ok());
    CheckUnbounded(algo_ + " at parallelism " + std::to_string(threads));
  }
  // Exact + LIMIT (per-user bound), before and after ANALYZE grounds the
  // cost model.
  CheckBoundedTopK(algo_ + " exact+limit");
  ASSERT_TRUE(db_.Execute("ANALYZE Ratings").ok());
  CheckBoundedTopK(algo_ + " exact+limit analyzed");
}

TEST_P(ReferenceOracleTest, LiveDeltaOverlayMatchesPaperFormulas) {
  // INSERT, DELETE and UPDATE through SQL, mirrored into the oracle's map,
  // then every statement shape again before any refresh: the kernels read
  // the overlay's merged rows against the built similarities. After the
  // refresh the similarities catch up with the edits.
  ParallelismGuard guard;
  const RatingMap built = ratings_;
  // A rating of user 7 (a top-k user) on an item someone else also rates,
  // so the item survives the DELETE, and user 23's first rating.
  std::map<int64_t, int> raters;
  for (const auto& [key, r] : built) ++raters[key.second];
  int64_t del_item = 0;
  for (const auto& [key, r] : built) {
    if (key.first == 7 && raters[key.second] > 1) {
      del_item = key.second;
      break;
    }
  }
  ASSERT_NE(del_item, 0);
  const auto upd = built.lower_bound({23, 0});
  ASSERT_EQ(upd->first.first, 23);
  const int64_t upd_item = upd->first.second;
  const double upd_rating = static_cast<double>(
      static_cast<int64_t>(upd->second) % 5 + 1);
  // New pairs: a new user 41, a new item 91 (not in Items), and unseen
  // items for the filter users 3 and 9 and the join user 12.
  std::vector<std::pair<std::pair<int64_t, int64_t>, double>> inserts = {
      {{41, 1}, 5.0}, {{41, 2}, 3.0}, {{3, 91}, 4.0}, {{9, 91}, 2.0}};
  for (int64_t u : {3, 9, 12}) {
    for (int64_t i = 1; i <= 90; i += 2) {
      if (!built.count({u, i})) {
        inserts.push_back({{u, i}, 4.0});
        break;
      }
    }
  }
  std::string values;
  for (const auto& [key, r] : inserts) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(key.first) + ", " +
              std::to_string(key.second) + ", " + std::to_string(r) + ")";
    ratings_[key] = r;
  }
  ASSERT_TRUE(db_.Execute("INSERT INTO Ratings VALUES " + values).ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM Ratings WHERE uid = 7 AND iid = " +
                          std::to_string(del_item))
                  .ok());
  ratings_.erase({7, del_item});
  ASSERT_TRUE(db_.Execute("UPDATE Ratings SET ratingval = " +
                          std::to_string(upd_rating) +
                          " WHERE uid = 23 AND iid = " +
                          std::to_string(upd_item))
                  .ok());
  ratings_[{23, upd_item}] = upd_rating;
  ASSERT_TRUE(db_.GetRecommender("r").value()->live().has_delta());

  ResetOracle(built);
  for (int threads : {1, 4}) {
    ASSERT_TRUE(
        db_.Execute("SET parallelism = " + std::to_string(threads)).ok());
    CheckUnbounded(algo_ + " overlay at parallelism " +
                   std::to_string(threads));
  }
  CheckBoundedTopK(algo_ + " overlay exact+limit");

  auto refreshed = db_.RefreshRecommender("r");
  ASSERT_TRUE(refreshed.ok());
  ASSERT_TRUE(refreshed.value());
  ResetOracle(ratings_);
  for (int threads : {1, 4}) {
    ASSERT_TRUE(
        db_.Execute("SET parallelism = " + std::to_string(threads)).ok());
    CheckUnbounded(algo_ + " refreshed at parallelism " +
                   std::to_string(threads));
  }
  CheckBoundedTopK(algo_ + " refreshed exact+limit");
}

INSTANTIATE_TEST_SUITE_P(CF, ReferenceOracleTest,
                         ::testing::Values("ItemCosCF", "ItemPearCF",
                                           "UserCosCF", "UserPearCF"));

}  // namespace
}  // namespace recdb
