// The benchmark's three workloads: their fixed shapes, database set-up,
// the seeded statement streams they issue, and the answer checks applied
// to what the engine returns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/recdb.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "recommender/recommender.h"

namespace perfbench {

/// LIMIT of the top-k class.
inline constexpr size_t kTopK = 10;

/// Statement classes, by SQL shape (not by the plan the optimizer picks).
/// kTopK and kFilter project (uid, iid, ratingval); kJoin projects
/// (uid, iid, genre, ratingval).
enum class StmtClass { kTopK, kFilter, kJoin, kInsert };
inline constexpr size_t kNumClasses = 4;
const char* ClassName(StmtClass c);

struct WorkloadSpec {
  std::string name;
  recdb::datagen::DatasetSpec data;
  recdb::RecAlgorithm algorithm = recdb::RecAlgorithm::kItemCosCF;
  /// File-backed (RecDB::Open, WAL fsync per group commit) instead of
  /// in-memory.
  bool file_backed = false;

  // Closed loop: `sessions` callers, each issuing the read mix back to back.
  int sessions = 0;
  double topk_share = 1.0;
  double filter_share = 0;  // the rest of the mix is join
  double in_list_frac = 0;  // filter IN-list size as a share of the items
  /// Zipf exponent of query users over a seeded ranking; 0 = uniform.
  double user_zipf = 0;
  /// Share of users, hottest first, materialized in the RecScoreIndex.
  double materialized_frac = 0;

  // Open loop: top-10 reads at `read_rate` per second split over
  // `read_sessions`, INSERTs at `insert_rate` per second from one session.
  int read_sessions = 0;
  double read_rate = 0;
  double insert_rate = 0;
  /// Background refresh trigger (RecDBOptions::min_refresh_ops, with
  /// refresh_threshold 0) so that several refreshes land in one run.
  size_t min_refresh_ops = 0;

  bool open_loop() const { return insert_rate > 0; }
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One database set up for a workload.
struct Env {
  std::unique_ptr<recdb::RecDB> db;
  std::string dir;   // directory of a file-backed database
  std::string path;  // file-backed database path; empty in memory
  recdb::datagen::GeneratedDataset ds;
  std::string rec_name;
  recdb::Recommender* rec = nullptr;
  /// Query users, hottest first (the Zipf rank order).
  std::vector<int64_t> users;
  /// Item ids in the rating matrix's position order.
  std::vector<int64_t> items;
  /// Items table genre per item id (join answer check).
  std::unordered_map<int64_t, std::string> genre;
  /// Rows of the ratings table after the load.
  int64_t base_rows = 0;
};

/// Everything up to the first timed statement: load the dataset, CREATE
/// RECOMMENDER, ANALYZE, materialize the hot users and warm up. A
/// file-backed database lives in `dir`, which must not exist yet.
/// `background_refresh` applies to open-loop workloads only.
recdb::Result<std::unique_ptr<Env>> SetUp(const WorkloadSpec& spec,
                                          uint64_t seed,
                                          const std::string& dir,
                                          bool background_refresh);

/// Close the database and remove its directory, if any.
void TearDown(std::unique_ptr<Env> env);

struct Stmt {
  StmtClass cls = StmtClass::kTopK;
  int64_t user = 0;
  std::vector<int64_t> in_list;  // kFilter, ascending
  int64_t item = 0;              // kInsert
  double rating = 0;             // kInsert
  std::string sql;
};

/// The seeded read stream of one session.
class ReadStream {
 public:
  ReadStream(const WorkloadSpec& spec, const Env& env, uint64_t seed);
  Stmt Next();

 private:
  int64_t PickUser();

  const WorkloadSpec& spec_;
  const Env& env_;
  recdb::Rng rng_;
  std::unique_ptr<recdb::ZipfSampler> zipf_;
};

/// `count` INSERTs of (user, item) pairs absent from the loaded ratings
/// and distinct from each other, so every acknowledged row is new.
std::vector<Stmt> InsertStream(const Env& env, uint64_t seed, size_t count);

/// A sampled top-k answer kept for the oracle check.
struct TopKSample {
  Stmt stmt;
  std::vector<recdb::Tuple> rows;
  bool index_plan = false;  // served by IndexRecommend (id tie-break)
};

/// Answer checks; each returns an empty string when the rows are right.
/// CheckTopK recomputes the top-10 with RecModel::PredictBatch over the
/// user's unseen items (the MaterializeUser order), sorts by score desc
/// then the executor's tie-break (item position, or item id under
/// IndexRecommend) and requires the SQL rows to match bit for bit. The
/// model must not change while it runs.
std::string CheckTopK(const Env& env, const TopKSample& sample);
std::string CheckFilter(const Stmt& stmt,
                        const std::vector<recdb::Tuple>& rows);
std::string CheckJoin(const Env& env, const std::vector<recdb::Tuple>& rows);

}  // namespace perfbench
