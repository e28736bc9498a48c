// Per-user bounded Top-K: the TopKPruner unit contract, the exact
// Recommend path's per-user bound under a score-ordered TopN (DESIGN.md
// §13), the batched-ingest DML path, and the non-incremental maintenance
// fallback.
//
// The load-bearing invariant: a bounded `ORDER BY score DESC LIMIT k`
// statement returns the *identical* result set — same rows, same scores
// (EXPECT_EQ on the rendered values, no tolerance), same tie-break order —
// as the first k rows of the unbounded statement stable-sorted by score, for
// every algorithm family, any parallelism level, and with or without a
// pending delta overlay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/recdb.h"
#include "common/task_scheduler.h"
#include "execution/topk_pruner.h"
#include "obs/metrics.h"
#include "recommender/model.h"
#include "recommender/rating_matrix.h"
#include "recommender/recommender.h"

namespace recdb {
namespace {

using obs::Counter;
using obs::MetricsRegistry;

/// Restore serial execution when a test body returns.
struct ParallelismGuard {
  ~ParallelismGuard() { TaskScheduler::SetGlobalParallelism(1); }
};

uint64_t CounterValue(Counter c) {
  auto snap = MetricsRegistry::Global().Snapshot();
  return snap.counters[static_cast<size_t>(c)];
}

// ---------------------------------------------------------------- TopKPruner

TEST(TopKPrunerTest, DrainsBestFirstWithArrivalOrderTieBreak) {
  TopKPruner pruner(3);
  // Two entries tie at 5.0; the lower rank (earlier arrival) must win the
  // earlier output slot — the same rule basic_executors' TopN applies.
  pruner.Offer(5.0, /*rank=*/7, /*item_id=*/107);
  pruner.Offer(2.0, 1, 101);
  pruner.Offer(5.0, 3, 103);
  pruner.Offer(4.0, 9, 109);  // evicts the 2.0 entry
  auto out = pruner.DrainBestFirst();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].item_id, 103);  // 5.0, rank 3
  EXPECT_EQ(out[1].item_id, 107);  // 5.0, rank 7
  EXPECT_EQ(out[2].item_id, 109);  // 4.0
}

// ------------------------------------------------ exact-path per-user bound

// Under a TopN ordered by the score, the exact Recommend path keeps only
// each user's k best rows (score desc, item position asc). Oracle: the same
// statement with neither ORDER BY nor LIMIT — the unbounded arrival order —
// stable-sorted by score, first k rows.

// Sparse deterministic workload: 60 users x 200 items, 8 ratings per user
// (4% density).
void LoadSparseRatings(RecDB* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 60; ++u) {
    for (int k = 0; k < 8; ++k) {
      int item = (u * 37 + k * 61) % 200 + 1;
      rows.push_back({Value::Int(u), Value::Int(item),
                      Value::Double((u * 3 + k * 7) % 5 + 1)});
    }
  }
  ASSERT_TRUE(db->BulkInsert("Ratings", rows).ok());
}

std::string RowsToString(const ResultSet& rs) {
  std::string out;
  for (const auto& row : rs.rows) {
    for (const auto& v : row.values()) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

constexpr const char* kAlgoNames[] = {"ItemCosCF", "ItemPearCF", "UserCosCF",
                                      "UserPearCF", "SVD"};

// The delta scenarios the bound must stay exact under: new pair,
// overwrite, remove, new user rating known items, new item rated by known
// users — issued as SQL statements so they travel the batched DML path.
void ApplyDeltaStatements(RecDB* db) {
  ASSERT_TRUE(db->Execute("INSERT INTO Ratings VALUES (1, 199, 5.0), "
                          "(1, 2, 4.0), (77, 1, 5.0), (77, 38, 3.0), "
                          "(2, 995, 4.0), (3, 995, 2.0)")
                  .ok());
  ASSERT_TRUE(db->Execute("DELETE FROM Ratings WHERE uid = 2 AND iid = 74")
                  .ok());
  ASSERT_TRUE(db->Execute("UPDATE Ratings SET ratingval = 1.0 "
                          "WHERE uid = 3 AND iid = 111")
                  .ok());
}

/// Tie-heavy ratings: 60 users x 300 items, 3 ratings per user, so most
/// unseen items share no co-rater with the user and score exactly 0.0.
void LoadTieHeavyRatings(RecDB* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 60; ++u) {
    for (int k = 0; k < 3; ++k) {
      int item = (u * 53 + k * 97) % 300 + 1;
      rows.push_back(
          {Value::Int(u), Value::Int(item), Value::Double((u + k) % 5 + 1)});
    }
  }
  ASSERT_TRUE(db->BulkInsert("Ratings", rows).ok());
}

/// The oracle: the first k rows of `unbounded` stable-sorted by score.
/// `predictions` (optional) receives the unbounded statement's model calls.
std::string FirstKByScore(RecDB* db, const std::string& unbounded, size_t k,
                          uint64_t* predictions = nullptr) {
  auto rs = db->Execute(unbounded);
  EXPECT_TRUE(rs.ok()) << unbounded;
  if (!rs.ok()) return "";
  ResultSet& full = rs.value();
  if (predictions != nullptr) *predictions = full.stats.predictions;
  std::stable_sort(full.rows.begin(), full.rows.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a.At(2).AsNumeric() > b.At(2).AsNumeric();
                   });
  if (full.rows.size() > k) full.rows.resize(k);
  return RowsToString(full);
}

TEST(PerUserBoundTest, ExactTopKEqualsStableSortedFullOutput) {
  // Every algorithm family on sparse and tie-heavy data, in three matrix
  // states — the freshly built base, a pending delta overlay (new user, new
  // item, overwrite, delete) and the refreshed base after the overlay
  // merged — at parallelism 1/2/8.
  ParallelismGuard guard;
  enum class State { kBase, kDelta, kRefreshed };
  for (bool tie_heavy : {false, true}) {
    for (const char* algo : kAlgoNames) {
      RecDB db;
      if (tie_heavy) {
        LoadTieHeavyRatings(&db);
      } else {
        LoadSparseRatings(&db);
      }
      ASSERT_TRUE(db.Execute(std::string("CREATE RECOMMENDER r ON Ratings "
                                         "USERS FROM uid ITEMS FROM iid "
                                         "RATINGS FROM ratingval USING ") +
                             algo)
                      .ok());
      const std::string base =
          std::string("SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
                      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ") +
          algo;
      for (State state : {State::kBase, State::kDelta, State::kRefreshed}) {
        ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
        if (state == State::kDelta) {
          ApplyDeltaStatements(&db);
          ASSERT_TRUE(db.GetRecommender("r").value()->live().has_delta());
        }
        if (state == State::kRefreshed) {
          auto refreshed = db.RefreshRecommender("r");
          ASSERT_TRUE(refreshed.ok()) << algo;
          EXPECT_TRUE(refreshed.value()) << algo;
        }
        const char* state_name = state == State::kBase    ? " base"
                                 : state == State::kDelta ? " delta"
                                                          : " refreshed";
        // Users 2 and 3 carry the delta's delete and overwrite; 77 is new.
        for (const char* where :
             {"", " WHERE R.uid = 7", " WHERE R.uid IN (1, 7, 13, 42, 60)",
              " WHERE R.uid IN (2, 3, 77)"}) {
          // 500 exceeds every user's unseen count (200 or 300 items).
          for (size_t k : {size_t{1}, size_t{10}, size_t{500}}) {
            const std::string what = std::string(algo) + where +
                                     " k=" + std::to_string(k) +
                                     (tie_heavy ? " tie-heavy" : "") +
                                     state_name;
            const std::string bounded = base + where +
                                        " ORDER BY R.ratingval DESC LIMIT " +
                                        std::to_string(k);
            ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
            auto plan = db.Explain(bounded);
            ASSERT_TRUE(plan.ok()) << what;
            EXPECT_NE(plan.value().find("topk=" + std::to_string(k)),
                      std::string::npos)
                << what << "\n" << plan.value();
            uint64_t unbounded_predictions = 0;
            const std::string expected =
                FirstKByScore(&db, base + where, k, &unbounded_predictions);
            ASSERT_FALSE(expected.empty()) << what;
            for (int threads : {1, 2, 8}) {
              ASSERT_TRUE(
                  db.Execute("SET parallelism = " + std::to_string(threads))
                      .ok());
              auto got = db.Execute(bounded);
              ASSERT_TRUE(got.ok()) << what;
              EXPECT_EQ(RowsToString(got.value()), expected)
                  << what << " at parallelism " << threads;
              // The bound changes what is emitted, not what is scored.
              EXPECT_EQ(got.value().stats.predictions, unbounded_predictions)
                  << what << " at parallelism " << threads;
            }
          }
        }
      }
      ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
    }
  }
}

TEST(PerUserBoundTest, IncludeRatedBoundsRatedRowsToo) {
  // Algorithm 1's literal mode emits rated items with their stored rating;
  // the bound ranks them beside the predictions.
  RecDBOptions opts;
  opts.planner.include_rated = true;
  RecDB db(opts);
  LoadSparseRatings(&db);
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING ItemCosCF")
                  .ok());
  const std::string base =
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF";
  for (const char* where :
       {" WHERE R.uid = 7", " WHERE R.uid IN (1, 7, 13, 42, 60)"}) {
    const std::string bounded =
        base + where + " ORDER BY R.ratingval DESC LIMIT 10";
    auto plan = db.Explain(bounded);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan.value().find("topk=10"), std::string::npos)
        << plan.value();
    auto got = db.Execute(bounded);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(RowsToString(got.value()), FirstKByScore(&db, base + where, 10))
        << where;
  }
}

// ---------------------------------------------------------- batched ingest

TEST(BatchIngestTest, MultiRowStatementIsOneDeltaBatch) {
  RecDB db;
  LoadSparseRatings(&db);
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING ItemCosCF")
                  .ok());
  Recommender* rec = db.GetRecommender("r").value();
  const size_t delta0 = rec->live().delta_size();
  const uint64_t batches0 = CounterValue(Counter::kIngestBatches);
  const uint64_t ops0 = CounterValue(Counter::kIngestBatchOps);

  // Five effective rows through one INSERT: one batch.
  ASSERT_TRUE(db.Execute("INSERT INTO Ratings VALUES (1, 190, 5.0), "
                         "(1, 191, 4.0), (2, 190, 3.0), (2, 191, 2.0), "
                         "(3, 190, 1.0)")
                  .ok());
  EXPECT_EQ(rec->live().delta_size(), delta0 + 5);
  EXPECT_EQ(CounterValue(Counter::kIngestBatches), batches0 + 1);
  EXPECT_EQ(CounterValue(Counter::kIngestBatchOps), ops0 + 5);

  // Multi-row DELETE: also a single batch.
  ASSERT_TRUE(db.Execute("DELETE FROM Ratings WHERE iid = 190").ok());
  EXPECT_EQ(CounterValue(Counter::kIngestBatches), batches0 + 2);

  // UPDATE (delete+insert per row, still one statement = one batch).
  ASSERT_TRUE(
      db.Execute("UPDATE Ratings SET ratingval = 5.0 WHERE iid = 191").ok());
  EXPECT_EQ(CounterValue(Counter::kIngestBatches), batches0 + 3);

  // The batched path feeds the same delta the per-op path would: scoring
  // reflects the statements immediately.
  EXPECT_EQ(*rec->live().Get(1, 191), 5.0);
  EXPECT_FALSE(rec->live().Get(1, 190).has_value());
}

// ------------------------------------------------- non-incremental fallback

// Stub without an incremental form: predicts a constant for known pairs.
// Exercises the RecModel base-class maintenance contract.
class StubModel : public RecModel {
 public:
  explicit StubModel(std::shared_ptr<const RatingMatrix> ratings)
      : RecModel(std::move(ratings)) {}
  RecAlgorithm algorithm() const override { return RecAlgorithm::kItemCosCF; }
  size_t ApproxBytes() const override { return 0; }

 protected:
  void DoPredictBatch(int64_t user_id, std::span<const int64_t> items,
                      std::span<double> out) const override {
    (void)user_id;
    for (size_t k = 0; k < items.size(); ++k) out[k] = 1.0;
  }
};

TEST(NonIncrementalModelTest, FirstWriteTriggersRefreshAndFullRebuild) {
  // Regression: the base PrepareDeltaUpdate used to return an *empty*
  // update, so a model without incremental support silently served stale
  // scores until a full retrain happened to run. It must now (a) request a
  // full rebuild and (b) make NeedsRefresh trip on the very first op.
  {
    auto m = std::make_shared<RatingMatrix>();
    m->Add(1, 1, 4.0);
    m->Freeze();
    StubModel stub(m);
    auto update = stub.PrepareDeltaUpdate(
        {DeltaOp{DeltaOp::Kind::kAdd, /*user_idx=*/0, /*item_idx=*/0}});
    ASSERT_TRUE(update.ok());
    EXPECT_TRUE(update.value().full_rebuild);
    EXPECT_FALSE(update.value().empty());
    EXPECT_TRUE(stub.PrepareDeltaUpdate({}).value().empty());
  }

  RecommenderConfig cfg;
  cfg.name = "r";
  cfg.algorithm = RecAlgorithm::kItemCosCF;
  Recommender rec(cfg);
  for (int64_t u = 1; u <= 6; ++u) {
    for (int64_t i = 1; i <= 4; ++i) rec.AddRating(u, i, (u + i) % 5 + 1);
  }
  rec.AdoptModelForTest(std::make_unique<StubModel>(rec.snapshot()));
  ASSERT_FALSE(rec.NeedsRefresh());

  // One write: refresh pressure must be immediate, not threshold-gated.
  rec.AddRating(1, 9, 5.0);
  EXPECT_TRUE(rec.NeedsRefresh());

  auto refreshed = rec.Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed.value());
  EXPECT_FALSE(rec.live().has_delta());
  // The commit rebuilt a real model over the merged matrix — predictions
  // reflect the write instead of the stub's constant.
  ASSERT_NE(rec.model(), nullptr);
  EXPECT_EQ(rec.model()->algorithm(), RecAlgorithm::kItemCosCF);
  EXPECT_NE(rec.model()->Predict(1, 2), 1.0);
  EXPECT_GT(rec.model()->Predict(1, 9), 0.0);
}

}  // namespace
}  // namespace recdb
