// Online ratings ingest (PR 7): delta-overlay golden equality, incremental
// model maintenance, background re-freeze, and the ingest metrics contract.
//
// The load-bearing invariant throughout: scoring through the delta overlay
// (frozen base + side rows + tombstones) is *bit-identical* — EXPECT_EQ on
// doubles, no tolerance — to scoring over a matrix rebuilt from scratch with
// the same contents, and an incremental CF refresh produces neighborhood
// rows bit-identical to a full retrain.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/recdb.h"
#include "cache/cache_manager.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "index/rec_score_index.h"
#include "obs/metrics.h"
#include "recommender/rating_matrix.h"
#include "recommender/recommender.h"

namespace recdb {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::MetricsRegistry;

// ------------------------------------------------------------ fixtures

struct Op {
  enum class Kind { kAdd, kRemove } kind = Kind::kAdd;
  int64_t user = 0;
  int64_t item = 0;
  double rating = 0;
};

// Deterministic base workload: 10 users x 8 items, ~60% density. Values are
// a fixed function of (u, i) so every test (and both sides of each golden
// comparison) feeds identical bytes in identical order.
std::vector<Op> BaseOps() {
  std::vector<Op> ops;
  for (int64_t u = 1; u <= 10; ++u) {
    for (int64_t i = 1; i <= 8; ++i) {
      if ((u * 7 + i * 3) % 5 < 3) {
        ops.push_back({Op::Kind::kAdd, u, i,
                       static_cast<double>(1 + (u * 3 + i * 5) % 5)});
      }
    }
  }
  return ops;
}

// The five ingest scenarios the tentpole must keep bit-identical:
// add (existing user+item, new pair), overwrite (different value), remove,
// new user, new item.
std::vector<Op> MutationOps() {
  return {
      {Op::Kind::kAdd, 1, 2, 4.0},      // new pair, both sides known
      {Op::Kind::kAdd, 1, 1, 2.0},      // overwrite (base value is 4)
      {Op::Kind::kRemove, 2, 1, 0},     // remove an existing pair
      {Op::Kind::kAdd, 99, 1, 5.0},     // new user...
      {Op::Kind::kAdd, 99, 3, 3.0},     // ...rating two known items
      {Op::Kind::kAdd, 1, 77, 4.0},     // new item...
      {Op::Kind::kAdd, 2, 77, 2.0},     // ...rated by two known users
  };
}

void ApplyToMatrix(RatingMatrix* m, const std::vector<Op>& ops) {
  for (const auto& op : ops) {
    if (op.kind == Op::Kind::kAdd) {
      m->Add(op.user, op.item, op.rating);
    } else {
      m->Remove(op.user, op.item);
    }
  }
}

void ApplyToRecommender(Recommender* rec, const std::vector<Op>& ops) {
  for (const auto& op : ops) {
    if (op.kind == Op::Kind::kAdd) {
      rec->AddRating(op.user, op.item, op.rating);
    } else {
      rec->RemoveRating(op.user, op.item);
    }
  }
}

RecommenderConfig MakeConfig(RecAlgorithm algo) {
  RecommenderConfig cfg;
  cfg.name = std::string("r");  // not `= "r"`: GCC 12 false -Wrestrict
  cfg.algorithm = algo;
  cfg.svd_opts.num_epochs = 4;
  cfg.svd_opts.num_factors = 6;
  return cfg;
}

// Probe grid covering trained users/items, the new user (99) and the new
// item (77). Scores come through the same PredictBatch choke point RECOMMEND
// uses.
std::vector<double> ScoreGrid(const Recommender& rec) {
  std::vector<double> out;
  for (int64_t u : {1, 2, 3, 5, 8, 10, 99}) {
    for (int64_t i : {1, 2, 3, 4, 6, 8, 77}) {
      out.push_back(rec.model()->Predict(u, i));
    }
  }
  return out;
}

constexpr RecAlgorithm kCfAlgorithms[] = {
    RecAlgorithm::kItemCosCF, RecAlgorithm::kItemPearCF,
    RecAlgorithm::kUserCosCF, RecAlgorithm::kUserPearCF};

constexpr RecAlgorithm kAllAlgorithms[] = {
    RecAlgorithm::kItemCosCF, RecAlgorithm::kItemPearCF,
    RecAlgorithm::kUserCosCF, RecAlgorithm::kUserPearCF, RecAlgorithm::kSVD};

// ------------------------------------------------------------ matrix overlay

TEST(DeltaOverlayTest, MergeViewRowsMatchRebuiltMatrixBitwise) {
  // Matrix A: freeze first, then mutate (ops land in the overlay).
  // Matrix B: same op sequence applied unfrozen, then frozen.
  // Every merge-view row of A must equal the rebuilt row of B byte for
  // byte — this is what lets batch kernels consume base+delta as if the
  // CSR had been rebuilt after every statement.
  RatingMatrix a, b;
  ApplyToMatrix(&a, BaseOps());
  a.Freeze();
  ApplyToMatrix(&a, MutationOps());
  ASSERT_TRUE(a.frozen());
  ASSERT_TRUE(a.has_delta());

  ApplyToMatrix(&b, BaseOps());
  ApplyToMatrix(&b, MutationOps());
  b.Freeze();

  ASSERT_EQ(a.NumUsers(), b.NumUsers());
  ASSERT_EQ(a.NumItems(), b.NumItems());
  ASSERT_EQ(a.NumRatings(), b.NumRatings());
  // Identical op sequences touch rating_sum_ with identical float ops.
  EXPECT_EQ(a.GlobalMean(), b.GlobalMean());

  for (size_t u = 0; u < a.NumUsers(); ++u) {
    CsrRow ra = a.UserCsrRow(static_cast<int32_t>(u));
    CsrRow rb = b.UserCsrRow(static_cast<int32_t>(u));
    ASSERT_EQ(ra.n, rb.n) << "user row " << u;
    for (size_t k = 0; k < ra.n; ++k) {
      EXPECT_EQ(ra.idx[k], rb.idx[k]) << "user row " << u;
      EXPECT_EQ(ra.rating[k], rb.rating[k]) << "user row " << u;
    }
  }
  for (size_t i = 0; i < a.NumItems(); ++i) {
    CsrRow ra = a.ItemCsrRow(static_cast<int32_t>(i));
    CsrRow rb = b.ItemCsrRow(static_cast<int32_t>(i));
    ASSERT_EQ(ra.n, rb.n) << "item row " << i;
    for (size_t k = 0; k < ra.n; ++k) {
      EXPECT_EQ(ra.idx[k], rb.idx[k]) << "item row " << i;
      EXPECT_EQ(ra.rating[k], rb.rating[k]) << "item row " << i;
    }
  }

  // Re-freezing A merges the overlay; rows must still match.
  a.Freeze();
  EXPECT_FALSE(a.has_delta());
  for (size_t u = 0; u < a.NumUsers(); ++u) {
    CsrRow ra = a.UserCsrRow(static_cast<int32_t>(u));
    CsrRow rb = b.UserCsrRow(static_cast<int32_t>(u));
    ASSERT_EQ(ra.n, rb.n);
    for (size_t k = 0; k < ra.n; ++k) {
      EXPECT_EQ(ra.rating[k], rb.rating[k]);
    }
  }
}

TEST(DeltaOverlayTest, SameValueOverwriteIsCompleteNoOp) {
  // Regression (PR 7 bugfix): re-inserting an identical rating used to
  // invalidate the frozen matrix and, worse, "adjust" rating_sum_ by
  // (new - old) == 0.0 — which in IEEE arithmetic can still drift the sum.
  // It must now be a complete no-op: no version bump, no delta op, no
  // frozen-state change, GlobalMean bit-identical.
  RatingMatrix m;
  ApplyToMatrix(&m, BaseOps());
  m.Freeze();
  const double mean_before = m.GlobalMean();
  const uint64_t version_before = m.version();

  EXPECT_EQ(m.Add(1, 1, 4.0), RatingChange::kUnchanged);  // base value is 4
  EXPECT_TRUE(m.frozen());
  EXPECT_FALSE(m.has_delta());
  EXPECT_EQ(m.version(), version_before);
  EXPECT_EQ(m.GlobalMean(), mean_before);  // exact, not NEAR

  // A real overwrite does adjust the sum (by new - old, not by re-adding).
  EXPECT_EQ(m.Add(1, 1, 2.0), RatingChange::kOverwritten);
  EXPECT_TRUE(m.frozen());
  EXPECT_TRUE(m.has_delta());
  EXPECT_EQ(m.version(), version_before + 1);
  EXPECT_EQ(*m.Get(1, 1), 2.0);
  EXPECT_EQ(m.NumRatings(), BaseOps().size());
}

TEST(DeltaOverlayTest, TombstoneRemovesAndReAddRevives) {
  RatingMatrix m;
  ApplyToMatrix(&m, BaseOps());
  m.Freeze();
  const int32_t u = *m.UserIndex(1);
  const int32_t i = *m.ItemIndex(1);

  ASSERT_TRUE(m.Remove(1, 1));
  EXPECT_TRUE(m.frozen());
  EXPECT_TRUE(m.IsTombstoned(u, i));
  EXPECT_EQ(m.NumTombstones(), 1u);
  EXPECT_FALSE(m.Get(1, 1).has_value());
  // The merge view must not serve the removed entry.
  CsrRow row = m.UserCsrRow(u);
  for (size_t k = 0; k < row.n; ++k) EXPECT_NE(row.idx[k], i);

  // Re-adding the pair revives it in place.
  m.Add(1, 1, 3.5);
  EXPECT_FALSE(m.IsTombstoned(u, i));
  EXPECT_EQ(*m.Get(1, 1), 3.5);
  row = m.UserCsrRow(u);
  bool found = false;
  for (size_t k = 0; k < row.n; ++k) {
    if (row.idx[k] == i) {
      found = true;
      EXPECT_EQ(row.rating[k], 3.5);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DeltaOverlayTest, CommitRefreezeDetectsVersionConflict) {
  RatingMatrix m;
  ApplyToMatrix(&m, BaseOps());
  m.Freeze();
  m.Add(1, 2, 4.0);
  auto merged = m.BuildMergedCsr();
  // A write lands between prepare and commit: the stale candidate must be
  // rejected without touching the matrix.
  m.Add(3, 2, 2.0);
  EXPECT_FALSE(m.CommitRefreeze(std::move(merged)));
  EXPECT_TRUE(m.has_delta());
  EXPECT_TRUE(m.frozen());

  auto merged2 = m.BuildMergedCsr();
  EXPECT_TRUE(m.CommitRefreeze(std::move(merged2)));
  EXPECT_FALSE(m.has_delta());
  EXPECT_TRUE(m.frozen());
  EXPECT_EQ(*m.Get(1, 2), 4.0);
  EXPECT_EQ(*m.Get(3, 2), 2.0);
}

// ------------------------------------------------------------ golden scoring

TEST(IngestGoldenTest, DeltaScoringMatchesRebuiltMatrixAllAlgorithms) {
  // Fixed model, mutated matrix: scores read through the overlay must be
  // bit-identical to scores after the overlay is merged into a fresh base.
  // This is the RECOMMEND-visible form of the merge-view contract, for all
  // three algorithm families.
  for (RecAlgorithm algo : kAllAlgorithms) {
    SCOPED_TRACE(RecAlgorithmToString(algo));
    Recommender rec(MakeConfig(algo));
    ApplyToRecommender(&rec, BaseOps());
    ASSERT_TRUE(rec.Build().ok());
    ApplyToRecommender(&rec, MutationOps());
    ASSERT_TRUE(rec.snapshot()->has_delta());

    std::vector<double> with_delta = ScoreGrid(rec);
    rec.mutable_matrix()->Freeze();  // merge the overlay, model untouched
    ASSERT_FALSE(rec.snapshot()->has_delta());
    std::vector<double> rebuilt = ScoreGrid(rec);

    ASSERT_EQ(with_delta.size(), rebuilt.size());
    for (size_t k = 0; k < with_delta.size(); ++k) {
      EXPECT_EQ(with_delta[k], rebuilt[k]) << "probe " << k;
    }
  }
}

TEST(IngestGoldenTest, IncrementalCfRefreshMatchesFullRetrainBitwise) {
  // Incremental maintenance: after Refresh(), a CF recommender must be
  // indistinguishable — bit for bit — from one built from scratch over the
  // same final ratings in the same ingest order.
  for (RecAlgorithm algo : kCfAlgorithms) {
    SCOPED_TRACE(RecAlgorithmToString(algo));
    Recommender incremental(MakeConfig(algo));
    ApplyToRecommender(&incremental, BaseOps());
    ASSERT_TRUE(incremental.Build().ok());
    ApplyToRecommender(&incremental, MutationOps());
    auto refreshed = incremental.Refresh();
    ASSERT_TRUE(refreshed.ok());
    ASSERT_TRUE(refreshed.value());
    ASSERT_FALSE(incremental.snapshot()->has_delta());

    Recommender scratch(MakeConfig(algo));
    ApplyToRecommender(&scratch, BaseOps());
    ApplyToRecommender(&scratch, MutationOps());
    ASSERT_TRUE(scratch.Build().ok());

    std::vector<double> a = ScoreGrid(incremental);
    std::vector<double> b = ScoreGrid(scratch);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "probe " << k;
    }
  }
}

TEST(IngestGoldenTest, CfRefreshPerScenarioMatchesFullRetrain) {
  // Each ingest scenario in isolation (not just the combined batch), so a
  // regression in one touched-row computation cannot hide behind another.
  const std::vector<std::vector<Op>> scenarios = {
      {{Op::Kind::kAdd, 1, 2, 4.0}},                                // add
      {{Op::Kind::kAdd, 1, 1, 2.0}},                                // overwrite
      {{Op::Kind::kRemove, 2, 1, 0}},                               // remove
      {{Op::Kind::kAdd, 99, 1, 5.0}, {Op::Kind::kAdd, 99, 3, 3.0}}, // new user
      {{Op::Kind::kAdd, 1, 77, 4.0}, {Op::Kind::kAdd, 2, 77, 2.0}}, // new item
  };
  for (RecAlgorithm algo : {RecAlgorithm::kItemCosCF, RecAlgorithm::kUserCosCF}) {
    for (size_t s = 0; s < scenarios.size(); ++s) {
      SCOPED_TRACE(std::string(RecAlgorithmToString(algo)) + " scenario " +
                   std::to_string(s));
      Recommender incremental(MakeConfig(algo));
      ApplyToRecommender(&incremental, BaseOps());
      ASSERT_TRUE(incremental.Build().ok());
      ApplyToRecommender(&incremental, scenarios[s]);
      auto refreshed = incremental.Refresh();
      ASSERT_TRUE(refreshed.ok());
      ASSERT_TRUE(refreshed.value());

      Recommender scratch(MakeConfig(algo));
      ApplyToRecommender(&scratch, BaseOps());
      ApplyToRecommender(&scratch, scenarios[s]);
      ASSERT_TRUE(scratch.Build().ok());

      std::vector<double> a = ScoreGrid(incremental);
      std::vector<double> b = ScoreGrid(scratch);
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k], b[k]) << "probe " << k;
      }
    }
  }
}

TEST(IngestGoldenTest, SvdFoldInIsDeterministicAndKeepsTrainedRowsFixed) {
  // SVD maintenance is fold-in, not retrain: trained factor rows must not
  // move (predictions over trained pairs stay bit-identical), new entities
  // get deterministic folded rows (two identical runs agree exactly), and
  // before the refresh a new entity scores 0 through the guard.
  auto run = [](std::vector<double>* before, std::vector<double>* after) {
    Recommender rec(MakeConfig(RecAlgorithm::kSVD));
    ApplyToRecommender(&rec, BaseOps());
    ASSERT_TRUE(rec.Build().ok());
    *before = ScoreGrid(rec);
    ApplyToRecommender(&rec, MutationOps());
    // New entities have no factor rows yet: the scoring guard yields 0
    // instead of reading out of bounds.
    EXPECT_EQ(rec.model()->Predict(99, 1), 0.0);
    EXPECT_EQ(rec.model()->Predict(1, 77), 0.0);
    auto refreshed = rec.Refresh();
    ASSERT_TRUE(refreshed.ok());
    ASSERT_TRUE(refreshed.value());
    *after = ScoreGrid(rec);
  };
  std::vector<double> before1, after1, before2, after2;
  run(&before1, &after1);
  run(&before2, &after2);

  // Determinism: independent runs agree bitwise.
  ASSERT_EQ(after1.size(), after2.size());
  for (size_t k = 0; k < after1.size(); ++k) {
    EXPECT_EQ(after1[k], after2[k]) << "probe " << k;
  }
  // Trained pairs (users 1..10 x items 1..8, first 6x6 of the grid rows
  // excluding the 99/77 probes) are untouched by the fold-in.
  // Grid layout: 7 users x 7 items; last row is user 99, last column 77.
  for (size_t r = 0; r + 1 < 7; ++r) {
    for (size_t c = 0; c + 1 < 7; ++c) {
      EXPECT_EQ(after1[r * 7 + c], before1[r * 7 + c])
          << "trained pair moved at (" << r << "," << c << ")";
    }
  }
  // The folded new user now scores nonzero somewhere.
  bool folded_user_scores = false;
  for (size_t c = 0; c < 7; ++c) {
    if (after1[6 * 7 + c] != 0.0) folded_user_scores = true;
  }
  EXPECT_TRUE(folded_user_scores);
}

// ------------------------------------------------------------ policy & metrics

TEST(IngestPolicyTest, NeedsRefreshHonorsThresholds) {
  RecommenderConfig cfg = MakeConfig(RecAlgorithm::kItemCosCF);
  cfg.min_refresh_ops = 4;
  cfg.refresh_threshold = 0.5;  // 0.5 * 48 base ratings = 24 > min, so 24
  Recommender rec(cfg);
  ApplyToRecommender(&rec, BaseOps());
  ASSERT_TRUE(rec.Build().ok());
  const double trigger =
      std::max(4.0, 0.5 * static_cast<double>(rec.base_size()));
  EXPECT_FALSE(rec.NeedsRefresh());
  size_t ops = 0;
  for (int64_t u = 1; u <= 10 && ops < static_cast<size_t>(trigger); ++u) {
    for (int64_t i = 1; i <= 8 && ops < static_cast<size_t>(trigger); ++i) {
      if ((u * 7 + i * 3) % 5 >= 3) {  // unrated pairs only
        rec.AddRating(u, i, 3.0);
        ++ops;
      }
    }
  }
  EXPECT_TRUE(rec.NeedsRefresh());
  auto refreshed = rec.Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed.value());
  EXPECT_FALSE(rec.NeedsRefresh());
  EXPECT_EQ(rec.pending_updates(), 0u);
}

TEST(IngestPolicyTest, MaintainIfNeededRefreshesInsteadOfRetraining) {
  MetricsRegistry::Global().ResetForTest();
  RecommenderConfig cfg = MakeConfig(RecAlgorithm::kItemCosCF);
  cfg.rebuild_threshold = 0.01;  // any op trips the paper's N% policy
  Recommender rec(cfg);
  ApplyToRecommender(&rec, BaseOps());
  ASSERT_TRUE(rec.Build().ok());
  auto snap0 = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snap0.counters[static_cast<size_t>(Counter::kModelBuilds)], 1u);

  rec.AddRating(1, 2, 4.0);
  ASSERT_TRUE(rec.NeedsRebuild());
  auto maintained = rec.MaintainIfNeeded();
  ASSERT_TRUE(maintained.ok());
  EXPECT_TRUE(maintained.value());

  auto snap = MetricsRegistry::Global().Snapshot();
  // No statement-triggered full retrain: model builds stay at 1, the work
  // went through the refresh path.
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kModelBuilds)], 1u);
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kIngestRefreshes)], 1u);
}

TEST(IngestMetricsTest, DeltaCountersAndPendingGaugeTrackOps) {
  Recommender rec(MakeConfig(RecAlgorithm::kItemCosCF));
  ApplyToRecommender(&rec, BaseOps());
  ASSERT_TRUE(rec.Build().ok());
  // Reset after Build: ingest counters also track unfrozen inserts, and
  // this test asserts the post-freeze delta traffic alone.
  MetricsRegistry::Global().ResetForTest();

  rec.AddRating(1, 2, 4.0);   // add
  rec.AddRating(1, 1, 2.0);   // overwrite
  rec.AddRating(1, 1, 2.0);   // same-value: must count nowhere
  rec.RemoveRating(2, 1);     // remove
  rec.RemoveRating(2, 1);     // absent: must count nowhere

  auto snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kIngestDeltaAdds)], 1u);
  EXPECT_EQ(
      snap.counters[static_cast<size_t>(Counter::kIngestDeltaOverwrites)], 1u);
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kIngestDeltaRemoves)],
            1u);
  EXPECT_EQ(snap.gauges[static_cast<size_t>(Gauge::kIngestDeltaPending)], 3);

  auto refreshed = rec.Refresh();
  ASSERT_TRUE(refreshed.ok());
  ASSERT_TRUE(refreshed.value());
  snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kIngestRefreshes)], 1u);
  EXPECT_EQ(snap.gauges[static_cast<size_t>(Gauge::kIngestDeltaPending)], 0);
  // The CF refresh recomputed at least the touched neighborhood rows.
  EXPECT_GT(snap.counters[static_cast<size_t>(Counter::kIngestRowUpdates)], 0u);
}

// ------------------------------------------------------------ invalidation

TEST(IngestInvalidationTest, ItemCfEvictsUserRowUserCfEvictsItemColumn) {
  // ItemCF: a mutation by user u stales all of u's cached predictions.
  Recommender item_rec(MakeConfig(RecAlgorithm::kItemCosCF));
  ApplyToRecommender(&item_rec, BaseOps());
  ASSERT_TRUE(item_rec.Build().ok());
  item_rec.score_index()->Put(1, 2, 0.5);
  item_rec.score_index()->Put(1, 4, 0.6);
  item_rec.score_index()->Put(3, 2, 0.7);
  item_rec.AddRating(1, 7, 3.0);
  EXPECT_FALSE(item_rec.score_index()->GetScore(1, 2).has_value());
  EXPECT_FALSE(item_rec.score_index()->GetScore(1, 4).has_value());
  EXPECT_TRUE(item_rec.score_index()->GetScore(3, 2).has_value());

  // UserCF: a mutation on item i stales every user's prediction for i.
  Recommender user_rec(MakeConfig(RecAlgorithm::kUserCosCF));
  ApplyToRecommender(&user_rec, BaseOps());
  ASSERT_TRUE(user_rec.Build().ok());
  user_rec.score_index()->Put(1, 2, 0.5);
  user_rec.score_index()->Put(3, 2, 0.7);
  user_rec.score_index()->Put(3, 4, 0.8);
  user_rec.AddRating(5, 2, 3.0);
  EXPECT_FALSE(user_rec.score_index()->GetScore(1, 2).has_value());
  EXPECT_FALSE(user_rec.score_index()->GetScore(3, 2).has_value());
  EXPECT_TRUE(user_rec.score_index()->GetScore(3, 4).has_value());

  // SVD: factors only move at refresh; only the written pair is evicted.
  Recommender svd_rec(MakeConfig(RecAlgorithm::kSVD));
  ApplyToRecommender(&svd_rec, BaseOps());
  ASSERT_TRUE(svd_rec.Build().ok());
  svd_rec.score_index()->Put(1, 2, 0.5);
  svd_rec.score_index()->Put(1, 4, 0.6);
  svd_rec.AddRating(1, 2, 3.0);
  EXPECT_FALSE(svd_rec.score_index()->GetScore(1, 2).has_value());
  EXPECT_TRUE(svd_rec.score_index()->GetScore(1, 4).has_value());
}

TEST(IngestInvalidationTest, ListenerReceivesEvictedPairsAndManagerQueues) {
  Recommender rec(MakeConfig(RecAlgorithm::kItemCosCF));
  ApplyToRecommender(&rec, BaseOps());
  ASSERT_TRUE(rec.Build().ok());
  ManualClock clock;
  CacheManager cm(&rec, &clock, /*hotness_threshold=*/0.5);
  rec.SetInvalidationListener(
      [&cm](const Recommender::InvalidatedPairs& pairs) {
        cm.NotifyInvalidated(pairs);
      });
  rec.score_index()->Put(1, 2, 0.5);
  rec.score_index()->Put(1, 4, 0.6);
  rec.AddRating(1, 7, 3.0);
  EXPECT_EQ(cm.pending_invalidated(), 2u);

  // The next Run() consumes the queue; still-hot pairs re-materialize via
  // the hotness pass, cold ones stay evicted.
  clock.Advance(1.0);
  cm.RecordQuery(1);
  cm.RecordUpdate(2);
  clock.Advance(1.0);
  auto decision = cm.Run();
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(cm.pending_invalidated(), 0u);
  EXPECT_TRUE(rec.score_index()->GetScore(1, 2).has_value());
}

// ------------------------------------------------------------ background lane

TEST(BackgroundLaneTest, SubmitRunsJobsInOrderAndDrainWaits) {
  TaskScheduler sched(2);
  std::vector<int> order;
  std::atomic<int> done{0};
  sched.Submit([&] {
    order.push_back(1);
    done.fetch_add(1);
  });
  sched.Submit([&] {
    order.push_back(2);
    done.fetch_add(1);
  });
  sched.DrainBackground();
  EXPECT_EQ(done.load(), 2);
  ASSERT_EQ(order.size(), 2u);  // one worker, submission order
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(sched.background_pending(), 0u);
}

TEST(BackgroundLaneTest, BackgroundJobMayIssueParallelFor) {
  TaskScheduler sched(3);
  std::atomic<uint64_t> sum{0};
  sched.Submit([&] {
    sched.ParallelFor(100, 8, [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) sum.fetch_add(k);
    });
  });
  sched.DrainBackground();
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(BackgroundLaneTest, RecDbBackgroundRefreshMergesDelta) {
  RecDBOptions options;
  options.auto_maintain = false;
  options.background_refresh = true;
  options.min_refresh_ops = 4;
  RecDB db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE R (u INT, i INT, v DOUBLE)").ok());
  for (int64_t u = 1; u <= 6; ++u) {
    for (int64_t i = 1; i <= 5; ++i) {
      if ((u + i) % 3 != 0) {
        ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (" + std::to_string(u) +
                               ", " + std::to_string(i) + ", 3.0)")
                        .ok());
      }
    }
  }
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER BgRec ON R USERS FROM u ITEMS "
                         "FROM i RATINGS FROM v USING ItemCosCF")
                  .ok());
  // Pile up exactly min_refresh_ops of delta: only the last INSERT crosses
  // the trigger, so it schedules the one refresh and nothing lands after
  // it. (A longer burst could let that refresh commit before the trailing
  // INSERTs, leaving a sub-trigger delta that nothing would merge.)
  for (int64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (" + std::to_string(1 + k) +
                           ", " + std::to_string(((k * 2) % 5) + 1) + ", 4.0)")
                    .ok());
  }
  db.DrainBackgroundWork();
  auto* rec = db.registry()->Get("BgRec").value();
  EXPECT_FALSE(rec->snapshot()->has_delta());

  // SET background_refresh = off stops scheduling; delta accumulates.
  ASSERT_TRUE(db.Execute("SET background_refresh = off").ok());
  for (int64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (" + std::to_string(1 + k) +
                           ", " + std::to_string(((k * 3) % 5) + 1) + ", 2.0)")
                    .ok());
  }
  db.DrainBackgroundWork();
  EXPECT_TRUE(rec->snapshot()->has_delta());
  // Manual refresh still works.
  auto refreshed = db.RefreshRecommender("BgRec");
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed.value());
  EXPECT_FALSE(rec->snapshot()->has_delta());
}

}  // namespace
}  // namespace recdb
