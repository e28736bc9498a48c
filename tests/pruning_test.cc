// Sublinear Top-N (PR 9): TopKPruner unit contract, golden equivalence of
// the pruned path against the exact scan, CandidateIndex coherence across
// the freeze -> ingest -> refresh lifecycle, the batched-ingest DML path,
// and the cost model's choose/decline behaviour.
//
// The load-bearing invariant: a pruned Top-N query returns the *identical*
// result set — same rows, same scores (EXPECT_EQ on the rendered values,
// no tolerance), same tie-break order — as the exhaustive exact plan, for
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
#include "index/candidate_index.h"
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

TEST(TopKPrunerTest, CanSkipOnlyWhenFullAndStrictlyBelowThreshold) {
  TopKPruner pruner(2);
  EXPECT_FALSE(pruner.CanSkip(-1e30));  // heap not full: nothing skippable
  pruner.Offer(3.0, 0, 1);
  EXPECT_FALSE(pruner.CanSkip(0.0));
  pruner.Offer(1.0, 1, 2);  // full; threshold = 1.0
  EXPECT_EQ(pruner.Threshold(), 1.0);
  EXPECT_TRUE(pruner.CanSkip(0.5));
  // A bound exactly at the threshold could still displace the worst entry
  // on tie-break (earlier rank wins), so equality must NOT skip.
  EXPECT_FALSE(pruner.CanSkip(1.0));
  EXPECT_FALSE(pruner.CanSkip(2.0));
}

TEST(TopKPrunerTest, FloorRejectsBelowMinScoreAndWouldAcceptIsMonotone) {
  TopKPruner pruner(8, /*floor=*/2.0);
  EXPECT_FALSE(pruner.WouldAccept(1.9, 0));
  EXPECT_TRUE(pruner.CanSkip(1.9));  // below the floor even when not full
  EXPECT_TRUE(pruner.WouldAccept(2.0, 0));
  pruner.Offer(1.0, 0, 1);  // silently rejected by the floor
  EXPECT_EQ(pruner.DrainBestFirst().size(), 0u);

  TopKPruner small(2);
  small.Offer(0.0, 10, 1);
  small.Offer(0.0, 11, 2);
  // Full of rank-10/11 zeros: a later-rank zero loses every tie-break, so
  // the zero-merge loop may stop at the first WouldAccept == false.
  EXPECT_FALSE(small.WouldAccept(0.0, 12));
  EXPECT_TRUE(small.WouldAccept(0.0, 5));
}

// --------------------------------------------------------- golden equivalence

// Sparse deterministic workload: 60 users x 200 items, 8 ratings per user
// (4% density). Sparse enough that the candidate walk reaches well under
// the full catalog, so the grounded cost model picks the pruned plan.
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

// The delta scenarios the walk must stay coherent with: new pair,
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

TEST(PrunedEquivalenceTest, AllAlgorithmsAllParallelismsWithAndWithoutDelta) {
  ParallelismGuard guard;
  for (const char* algo : kAlgoNames) {
    RecDB db;
    LoadSparseRatings(&db);
    ASSERT_TRUE(db.Execute(std::string("CREATE RECOMMENDER r ON Ratings "
                                       "USERS FROM uid ITEMS FROM iid "
                                       "RATINGS FROM ratingval USING ") +
                           algo)
                    .ok());
    ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
    const std::string query =
        std::string("SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
                    "RECOMMEND R.iid TO R.uid ON R.ratingval USING ") +
        algo + " ORDER BY R.ratingval DESC LIMIT 25";

    for (bool with_delta : {false, true}) {
      if (with_delta) ApplyDeltaStatements(&db);
      db.mutable_planner_options()->enable_pruned_topn = false;
      ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
      auto exact = db.Execute(query);
      ASSERT_TRUE(exact.ok()) << algo;
      ASSERT_EQ(exact.value().NumRows(), 25u) << algo;
      EXPECT_EQ(exact.value().stats.candidates_generated, 0u) << algo;
      const std::string expected = RowsToString(exact.value());

      db.mutable_planner_options()->enable_pruned_topn = true;
      auto explained = db.Explain(query);
      ASSERT_TRUE(explained.ok()) << algo;
      EXPECT_NE(explained.value().find("mode=pruned"), std::string::npos)
          << algo << ": cost model did not choose pruning\n"
          << explained.value();
      const bool generates = std::string(algo) != "SVD";
      for (int threads : {1, 2, 8}) {
        ASSERT_TRUE(
            db.Execute("SET parallelism = " + std::to_string(threads)).ok());
        uint64_t topk_before = CounterValue(obs::Counter::kPruneTopkQueries);
        auto pruned = db.Execute(query);
        ASSERT_TRUE(pruned.ok()) << algo;
        EXPECT_EQ(RowsToString(pruned.value()), expected)
            << algo << " diverged at parallelism " << threads
            << (with_delta ? " with delta" : " without delta");
        // The plan must actually have run pruned, not silently fallen back
        // to the exact scan: every user goes through a threshold loop, and
        // the CF families walk generated candidates. (The SVD catalog
        // sweep may legitimately skip nothing when its norm-product bounds
        // never drop below the k-th score on tiny data.)
        EXPECT_GT(CounterValue(obs::Counter::kPruneTopkQueries), topk_before)
            << algo;
        if (generates) {
          EXPECT_GT(pruned.value().stats.candidates_generated, 0u) << algo;
        }
      }
      ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
    }

    // Merge the overlay into a fresh base (rebuilds the CandidateIndex) and
    // re-check: post-refresh pruned results must equal post-refresh exact.
    auto refreshed = db.RefreshRecommender("r");
    ASSERT_TRUE(refreshed.ok()) << algo;
    EXPECT_TRUE(refreshed.value()) << algo;
    db.mutable_planner_options()->enable_pruned_topn = false;
    auto exact = db.Execute(query);
    ASSERT_TRUE(exact.ok()) << algo;
    db.mutable_planner_options()->enable_pruned_topn = true;
    auto pruned = db.Execute(query);
    ASSERT_TRUE(pruned.ok()) << algo;
    EXPECT_EQ(RowsToString(pruned.value()), RowsToString(exact.value()))
        << algo << " diverged after CommitRefresh";
  }
}

TEST(PrunedEquivalenceTest, PerUserFilterRecommendMatchesExact) {
  ParallelismGuard guard;
  RecDB db;
  LoadSparseRatings(&db);
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING ItemCosCF")
                  .ok());
  ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
  const std::string query =
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid IN (1, 7, 13, 42, 60) "
      "ORDER BY R.ratingval DESC LIMIT 10";
  db.mutable_planner_options()->enable_pruned_topn = false;
  auto exact = db.Execute(query);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact.value().NumRows(), 10u);
  db.mutable_planner_options()->enable_pruned_topn = true;
  auto pruned = db.Execute(query);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(RowsToString(pruned.value()), RowsToString(exact.value()));
  EXPECT_GT(pruned.value().stats.candidates_generated, 0u);
  // Pruning scores at most the candidate set; the exact plan scores every
  // unseen item. Fewer predictions is the whole point.
  EXPECT_LT(pruned.value().stats.predictions, exact.value().stats.predictions);
}

// ------------------------------------------------ exact-path per-user bound

// Under a TopN ordered by the score, the exact Recommend path keeps only
// each user's k best rows (score desc, item position asc). Oracle: the same
// statement with neither ORDER BY nor LIMIT — the unbounded arrival order —
// stable-sorted by score, first k rows. No ANALYZE runs, so the plan stays
// exact (pruned mode needs grounded statistics).

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

std::string FirstKByScore(RecDB* db, const std::string& unbounded, size_t k) {
  auto rs = db->Execute(unbounded);
  EXPECT_TRUE(rs.ok()) << unbounded;
  if (!rs.ok()) return "";
  ResultSet& full = rs.value();
  std::stable_sort(full.rows.begin(), full.rows.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a.At(2).AsNumeric() > b.At(2).AsNumeric();
                   });
  if (full.rows.size() > k) full.rows.resize(k);
  return RowsToString(full);
}

TEST(PerUserBoundTest, ExactTopKEqualsStableSortedFullOutput) {
  ParallelismGuard guard;
  for (bool tie_heavy : {false, true}) {
    for (const char* algo : {"ItemCosCF", "UserPearCF", "SVD"}) {
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
      for (const char* where :
           {"", " WHERE R.uid = 7", " WHERE R.uid IN (1, 7, 13, 42, 60)"}) {
        // 500 exceeds every user's unseen count (200 or 300 items).
        for (size_t k : {size_t{1}, size_t{10}, size_t{500}}) {
          const std::string what = std::string(algo) + where +
                                   " k=" + std::to_string(k) +
                                   (tie_heavy ? " tie-heavy" : "");
          const std::string bounded = base + where +
                                      " ORDER BY R.ratingval DESC LIMIT " +
                                      std::to_string(k);
          ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
          auto plan = db.Explain(bounded);
          ASSERT_TRUE(plan.ok()) << what;
          EXPECT_NE(plan.value().find("topk=" + std::to_string(k)),
                    std::string::npos)
              << what << "\n" << plan.value();
          EXPECT_EQ(plan.value().find("mode=pruned"), std::string::npos)
              << what;
          const std::string expected = FirstKByScore(&db, base + where, k);
          ASSERT_FALSE(expected.empty()) << what;
          for (int threads : {1, 2, 8}) {
            ASSERT_TRUE(
                db.Execute("SET parallelism = " + std::to_string(threads))
                    .ok());
            auto got = db.Execute(bounded);
            ASSERT_TRUE(got.ok()) << what;
            EXPECT_EQ(RowsToString(got.value()), expected)
                << what << " at parallelism " << threads;
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

TEST(PerUserBoundTest, ToggleOffDropsTheBound) {
  RecDB db;
  LoadSparseRatings(&db);
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING ItemCosCF")
                  .ok());
  const std::string query =
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 7 ORDER BY R.ratingval DESC LIMIT 10";
  auto bounded = db.Execute(query);
  ASSERT_TRUE(bounded.ok());
  db.mutable_planner_options()->enable_pruned_topn = false;
  auto plan = db.Explain(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().find("topk="), std::string::npos) << plan.value();
  auto unbounded = db.Execute(query);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(RowsToString(bounded.value()), RowsToString(unbounded.value()));
  // The bound changes what is emitted, not what is scored.
  EXPECT_EQ(bounded.value().stats.predictions,
            unbounded.value().stats.predictions);
}

// ------------------------------------------------------ planner choose/decline

TEST(PrunedPlanChoiceTest, RequiresAnalyzeAndHonorsToggle) {
  RecDB db;
  LoadSparseRatings(&db);
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING ItemCosCF")
                  .ok());
  const std::string explain =
      "EXPLAIN SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "ORDER BY R.ratingval DESC LIMIT 10";

  // Ungrounded (no ANALYZE): the mode must match the rule-only optimizer;
  // only the exact path's per-user bound shows.
  auto before = db.Execute(explain);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(RowsToString(before.value()).find("mode=pruned"),
            std::string::npos);
  EXPECT_NE(RowsToString(before.value()).find("topk=10"), std::string::npos);

  ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
  uint64_t chosen0 = CounterValue(Counter::kPrunePlanChosen);
  auto after = db.Execute(explain);
  ASSERT_TRUE(after.ok());
  std::string plan = RowsToString(after.value());
  EXPECT_NE(plan.find("mode=pruned(k=10)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("candidates=inverted"), std::string::npos) << plan;
  EXPECT_NE(plan.find("pruned_topn=on"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("topk="), std::string::npos) << plan;
  EXPECT_GT(CounterValue(Counter::kPrunePlanChosen), chosen0);

  db.mutable_planner_options()->enable_pruned_topn = false;
  auto off = db.Execute(explain);
  ASSERT_TRUE(off.ok());
  std::string off_plan = RowsToString(off.value());
  EXPECT_EQ(off_plan.find("mode=pruned"), std::string::npos) << off_plan;
  EXPECT_NE(off_plan.find("pruned_topn=off"), std::string::npos) << off_plan;
}

TEST(PrunedPlanChoiceTest, DenseMatrixDeclinesPruning) {
  // 10 users x 8 items at ~60% density: nearly every item is a candidate of
  // every user and the walk touches most of the matrix, while the exact
  // scan only has ~3 unseen items per user to score. The grounded cost
  // model must keep the exact plan (and say so in the decline counter).
  RecDB db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 10; ++u) {
    for (int i = 1; i <= 8; ++i) {
      if ((u * 7 + i * 3) % 5 < 3) {
        rows.push_back({Value::Int(u), Value::Int(i),
                        Value::Double((u * 3 + i * 5) % 5 + 1)});
      }
    }
  }
  ASSERT_TRUE(db.BulkInsert("Ratings", rows).ok());
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING ItemCosCF")
                  .ok());
  ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
  uint64_t declined0 = CounterValue(Counter::kPrunePlanDeclined);
  auto rs = db.Execute(
      "EXPLAIN SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "ORDER BY R.ratingval DESC LIMIT 3");
  ASSERT_TRUE(rs.ok());
  std::string plan = RowsToString(rs.value());
  EXPECT_EQ(plan.find("mode=pruned"), std::string::npos) << plan;
  EXPECT_GT(CounterValue(Counter::kPrunePlanDeclined), declined0);
}

// -------------------------------------------------- CandidateIndex coherence

TEST(CandidateIndexTest, PostingsMirrorBaseAndSurviveIngestUntilRefresh) {
  RecommenderConfig cfg;
  cfg.name = "r";
  cfg.algorithm = RecAlgorithm::kItemCosCF;
  Recommender rec(cfg);
  for (int64_t u = 1; u <= 12; ++u) {
    for (int64_t k = 0; k < 5; ++k) {
      rec.AddRating(u, (u * 3 + k * 7) % 15 + 1, (u + k) % 5 + 1);
    }
  }
  ASSERT_TRUE(rec.Build().ok());
  auto index = rec.candidate_index();
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->prunable());
  EXPECT_EQ(index->version(), rec.live().version());
  EXPECT_EQ(index->num_users(), rec.live().NumUsers());
  EXPECT_EQ(index->num_items(), rec.live().NumItems());
  EXPECT_GT(index->stats().sampled_users, 0u);

  // Every base rating appears in both postings directions.
  const RatingMatrix& m = rec.live();
  for (size_t u = 0; u < m.NumUsers(); ++u) {
    CsrRow row = m.UserCsrRow(static_cast<int32_t>(u));
    CandidateIndex::Postings p = index->RatedItems(static_cast<int32_t>(u));
    ASSERT_EQ(p.n, row.n) << "user " << u;
    for (size_t k = 0; k < row.n; ++k) {
      bool found = false;
      CandidateIndex::Postings raters = index->Raters(row.idx[k]);
      for (size_t j = 0; j < raters.n; ++j) {
        if (raters.idx[j] == static_cast<int32_t>(u)) found = true;
      }
      EXPECT_TRUE(found) << "rating (" << u << ", " << row.idx[k]
                         << ") missing from item postings";
    }
  }

  // Ingest lands in the overlay; the published index still mirrors the
  // frozen base (executors merge the side rows at walk time).
  const uint64_t base_version = index->version();
  rec.AddRating(1, 999, 5.0);
  rec.AddRating(2, 999, 3.0);
  EXPECT_EQ(rec.candidate_index()->version(), base_version);

  // Refresh merges the overlay; the rebuilt index covers the new item.
  auto refreshed = rec.Refresh();
  ASSERT_TRUE(refreshed.ok());
  ASSERT_TRUE(refreshed.value());
  auto fresh = rec.candidate_index();
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh.get(), index.get());
  EXPECT_EQ(fresh->version(), rec.live().version());
  EXPECT_EQ(fresh->num_items(), rec.live().NumItems());
  auto item_idx = rec.live().ItemIndex(999);
  ASSERT_TRUE(item_idx.has_value());
  EXPECT_EQ(fresh->Raters(*item_idx).n, 2u);
  // The old shared_ptr stays valid for in-flight executors.
  EXPECT_EQ(index->version(), base_version);
}

// ---------------------------------------------------------- batched ingest

TEST(BatchIngestTest, MultiRowStatementIsOneVersionedDeltaBatch) {
  RecDB db;
  LoadSparseRatings(&db);
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING ItemCosCF")
                  .ok());
  Recommender* rec = db.GetRecommender("r").value();
  const uint64_t v0 = rec->live().version();
  const size_t delta0 = rec->live().delta_size();
  const uint64_t batches0 = CounterValue(Counter::kIngestBatches);
  const uint64_t ops0 = CounterValue(Counter::kIngestBatchOps);

  // Five effective rows through one INSERT: one version bump, one batch.
  ASSERT_TRUE(db.Execute("INSERT INTO Ratings VALUES (1, 190, 5.0), "
                         "(1, 191, 4.0), (2, 190, 3.0), (2, 191, 2.0), "
                         "(3, 190, 1.0)")
                  .ok());
  EXPECT_EQ(rec->live().version(), v0 + 1);
  EXPECT_EQ(rec->live().delta_size(), delta0 + 5);
  EXPECT_EQ(CounterValue(Counter::kIngestBatches), batches0 + 1);
  EXPECT_EQ(CounterValue(Counter::kIngestBatchOps), ops0 + 5);

  // Multi-row DELETE: also a single batch / single version bump.
  ASSERT_TRUE(db.Execute("DELETE FROM Ratings WHERE iid = 190").ok());
  EXPECT_EQ(rec->live().version(), v0 + 2);
  EXPECT_EQ(CounterValue(Counter::kIngestBatches), batches0 + 2);

  // UPDATE (delete+insert per row, still one statement = one batch).
  ASSERT_TRUE(
      db.Execute("UPDATE Ratings SET ratingval = 5.0 WHERE iid = 191").ok());
  EXPECT_EQ(rec->live().version(), v0 + 3);
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
