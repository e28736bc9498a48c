#include "workload.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <unordered_set>

#include "common/string_util.h"

namespace perfbench {

using recdb::RecAlgorithm;
using recdb::Result;
using recdb::Status;

const char* ClassName(StmtClass c) {
  switch (c) {
    case StmtClass::kTopK:
      return "topk";
    case StmtClass::kFilter:
      return "filter";
    case StmtClass::kJoin:
      return "join";
    case StmtClass::kInsert:
      return "insert";
  }
  return "?";
}

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  // Scoring-bound reads: almost all of a top-k is the ItemCF gather in
  // Executor::Init, so kernel work shows here and front-end work does not.
  WorkloadSpec itemcf;
  itemcf.name = "ml_itemcf";
  itemcf.data = recdb::datagen::DatasetSpec::MovieLens100K();
  itemcf.algorithm = RecAlgorithm::kItemCosCF;
  itemcf.sessions = 2;
  itemcf.topk_share = 0.50;
  itemcf.filter_share = 0.25;
  itemcf.in_list_frac = 0.10;
  out.push_back(itemcf);

  // Front-end- and index-bound reads: cheap SVD statements, most top-k
  // served from the materialized head of a Zipf user population, the tail
  // from pruned top-k.
  WorkloadSpec svd;
  svd.name = "yelp_svd_hot";
  svd.data = recdb::datagen::DatasetSpec::Yelp();
  svd.algorithm = RecAlgorithm::kSVD;
  svd.sessions = 3;
  svd.topk_share = 0.80;
  svd.filter_share = 0.20;
  svd.in_list_frac = 0.01;
  svd.user_zipf = 1.0;
  svd.materialized_frac = 0.10;
  out.push_back(svd);

  // Writes beside reads: WAL group commit, the exclusive lock behind ItemCF
  // readers, delta-overlay scoring and background refresh swaps.
  WorkloadSpec ingest;
  ingest.name = "ml_ingest";
  ingest.data = recdb::datagen::DatasetSpec::MovieLens100K();
  ingest.algorithm = RecAlgorithm::kItemCosCF;
  ingest.file_backed = true;
  ingest.read_sessions = 2;
  ingest.read_rate = 100;
  ingest.insert_rate = 50;
  ingest.min_refresh_ops = 200;
  out.push_back(ingest);
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

Result<recdb::ResultSet> Exec(recdb::RecDB* db, const std::string& sql) {
  auto r = db->Execute(sql);
  if (!r.ok()) {
    return Status::ExecutionError(sql + ": " + r.status().ToString());
  }
  return r;
}

std::string RecommendClause(const WorkloadSpec& spec) {
  return " RECOMMEND R.iid TO R.uid ON R.ratingval USING " +
         std::string(recdb::RecAlgorithmToString(spec.algorithm));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const auto& w : Workloads()) out.push_back(w.name);
  return out;
}

Result<std::unique_ptr<Env>> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                   const std::string& dir,
                                   bool background_refresh) {
  auto env = std::make_unique<Env>();
  recdb::RecDBOptions options;
  options.parallelism = 1;
  if (spec.open_loop()) {
    options.background_refresh = background_refresh;
    options.refresh_threshold = 0;
    options.min_refresh_ops = spec.min_refresh_ops;
  }
  if (spec.file_backed) {
    std::error_code ec;
    if (!std::filesystem::create_directories(dir, ec)) {
      return Status::IOError("cannot create fresh directory " + dir);
    }
    env->dir = dir;
    env->path = dir + "/recdb.db";
    RECDB_ASSIGN_OR_RETURN(env->db, recdb::RecDB::Open(env->path, options));
  } else {
    env->db = std::make_unique<recdb::RecDB>(options);
  }
  recdb::RecDB* db = env->db.get();

  // The dataset shape is the paper's; its contents follow the run's seed.
  recdb::datagen::DatasetSpec data = spec.data;
  data.seed = spec.data.seed + seed * 7919;
  RECDB_ASSIGN_OR_RETURN(env->ds, recdb::datagen::LoadDataset(db, data));

  env->rec_name = spec.name + "_rec";
  RECDB_RETURN_NOT_OK(
      Exec(db, "CREATE RECOMMENDER " + env->rec_name + " ON " +
                   env->ds.ratings_table +
                   " USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval "
                   "USING " +
                   recdb::RecAlgorithmToString(spec.algorithm))
          .status());
  RECDB_RETURN_NOT_OK(Exec(db, "ANALYZE").status());
  if (spec.file_backed) RECDB_RETURN_NOT_OK(db->Checkpoint());
  RECDB_ASSIGN_OR_RETURN(env->rec, db->GetRecommender(env->rec_name));

  // Rank the users (hottest first) with the seed; the Zipf draw picks ranks.
  const auto snapshot = env->rec->snapshot();
  env->users = snapshot->user_ids();
  recdb::Rng rank_rng(seed ^ 0x5eedf00dull);
  std::shuffle(env->users.begin(), env->users.end(), rank_rng.engine());
  env->items = snapshot->item_ids();

  const size_t materialized = static_cast<size_t>(
      spec.materialized_frac * static_cast<double>(env->users.size()));
  for (size_t r = 0; r < materialized; ++r) {
    RECDB_RETURN_NOT_OK(env->rec->MaterializeUser(env->users[r]));
  }

  RECDB_ASSIGN_OR_RETURN(
      auto genres,
      Exec(db, "SELECT iid, genre FROM " + env->ds.items_table));
  for (const auto& row : genres.rows) {
    env->genre[row.At(0).AsInt()] = row.At(1).AsString();
  }
  RECDB_ASSIGN_OR_RETURN(
      auto count, Exec(db, "SELECT COUNT(*) FROM " + env->ds.ratings_table));
  env->base_rows = count.At(0, 0).AsInt();

  // Warm-up: a fixed number of reads from a stream the timed run never
  // issues, so first-touch costs land in set-up.
  ReadStream warm(spec, *env, seed ^ 0x3a3a3a3aull);
  for (int i = 0; i < 32; ++i) {
    RECDB_RETURN_NOT_OK(Exec(db, warm.Next().sql).status());
  }
  return env;
}

void TearDown(std::unique_ptr<Env> env) {
  if (env == nullptr) return;
  if (env->db != nullptr) (void)env->db->Close();
  env->db.reset();
  if (!env->dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(env->dir, ec);
  }
}

ReadStream::ReadStream(const WorkloadSpec& spec, const Env& env,
                       uint64_t seed)
    : spec_(spec), env_(env), rng_(seed) {
  if (spec.user_zipf > 0) {
    zipf_ = std::make_unique<recdb::ZipfSampler>(
        static_cast<int64_t>(env.users.size()), spec.user_zipf);
  }
}

int64_t ReadStream::PickUser() {
  const int64_t rank =
      zipf_ != nullptr
          ? zipf_->Sample(rng_)
          : rng_.UniformInt(0, static_cast<int64_t>(env_.users.size()) - 1);
  return env_.users[rank];
}

Stmt ReadStream::Next() {
  Stmt s;
  s.user = PickUser();
  const double draw = rng_.UniformDouble(0, 1);
  const std::string head = "SELECT R.uid, R.iid, R.ratingval FROM " +
                           env_.ds.ratings_table + " AS R" +
                           RecommendClause(spec_) +
                           " WHERE R.uid = " + std::to_string(s.user);
  if (draw < spec_.topk_share) {
    s.cls = StmtClass::kTopK;
    s.sql = head + " ORDER BY R.ratingval DESC LIMIT " + std::to_string(kTopK);
  } else if (draw < spec_.topk_share + spec_.filter_share) {
    s.cls = StmtClass::kFilter;
    const int64_t n = static_cast<int64_t>(env_.items.size());
    const int64_t k = std::max<int64_t>(
        1, static_cast<int64_t>(spec_.in_list_frac * static_cast<double>(n)));
    for (int64_t pos : rng_.SampleWithoutReplacement(n, k)) {
      s.in_list.push_back(env_.items[pos]);
    }
    std::sort(s.in_list.begin(), s.in_list.end());
    s.sql = head + " AND R.iid IN (";
    for (size_t i = 0; i < s.in_list.size(); ++i) {
      if (i > 0) s.sql += ", ";
      s.sql += std::to_string(s.in_list[i]);
    }
    s.sql += ")";
  } else {
    s.cls = StmtClass::kJoin;
    s.sql = "SELECT R.uid, R.iid, M.genre, R.ratingval FROM " +
            env_.ds.ratings_table + " AS R, " + env_.ds.items_table +
            " AS M" + RecommendClause(spec_) +
            " WHERE R.uid = " + std::to_string(s.user) +
            " AND M.iid = R.iid AND M.genre = 'Action'";
  }
  return s;
}

std::vector<Stmt> InsertStream(const Env& env, uint64_t seed, size_t count) {
  recdb::Rng rng(seed ^ 0x1235711ull);
  const auto snapshot = env.rec->snapshot();
  std::unordered_set<int64_t> used;
  const int64_t num_items = static_cast<int64_t>(env.items.size());
  std::vector<Stmt> out;
  out.reserve(count);
  while (out.size() < count) {
    Stmt s;
    s.cls = StmtClass::kInsert;
    s.user = env.users[rng.UniformInt(0, env.users.size() - 1)];
    s.item = env.items[rng.UniformInt(0, num_items - 1)];
    if (snapshot->Get(s.user, s.item).has_value()) continue;
    if (!used.insert(s.user * (num_items + 1) + s.item).second) continue;
    s.rating = 1.0 + 0.5 * static_cast<double>(rng.UniformInt(0, 8));
    s.sql = recdb::StringFormat("INSERT INTO %s VALUES (%lld, %lld, %.1f)",
                                env.ds.ratings_table.c_str(),
                                static_cast<long long>(s.user),
                                static_cast<long long>(s.item), s.rating);
    out.push_back(std::move(s));
  }
  return out;
}

std::string CheckTopK(const Env& env, const TopKSample& sample) {
  const int64_t user = sample.stmt.user;
  const auto snapshot = env.rec->snapshot();
  const recdb::RatingMatrix& m = *snapshot;
  auto uidx = m.UserIndex(user);
  if (!uidx.has_value()) return "top-k user " + std::to_string(user) + " unknown";

  // The user's unseen items in position order, as MaterializeUser and the
  // Recommend executor enumerate them.
  const auto& rated = m.UserVector(*uidx);
  std::vector<int64_t> unseen;
  std::vector<int32_t> position;
  size_t r = 0;
  for (size_t i = 0; i < m.NumItems(); ++i) {
    const int32_t idx = static_cast<int32_t>(i);
    while (r < rated.size() && rated[r].idx < idx) ++r;
    if (r < rated.size() && rated[r].idx == idx) continue;
    unseen.push_back(m.ItemIdAt(idx));
    position.push_back(idx);
  }
  std::vector<double> score(unseen.size(), 0.0);
  env.rec->model()->PredictBatch(user, unseen, score);

  std::vector<size_t> order(unseen.size());
  std::iota(order.begin(), order.end(), 0);
  const bool by_id = sample.index_plan;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return by_id ? unseen[a] < unseen[b] : position[a] < position[b];
  });
  const size_t expect = std::min(kTopK, order.size());
  const std::string who = "top-k uid=" + std::to_string(user) + ": ";
  if (sample.rows.size() != expect) {
    return who + std::to_string(sample.rows.size()) + " rows, expected " +
           std::to_string(expect);
  }
  for (size_t k = 0; k < expect; ++k) {
    const recdb::Tuple& row = sample.rows[k];
    const double got = row.At(2).AsDouble();
    const double want = score[order[k]];
    if (row.At(0).AsInt() != user || row.At(1).AsInt() != unseen[order[k]] ||
        std::memcmp(&got, &want, sizeof(double)) != 0) {
      return who + recdb::StringFormat(
                       "rank %zu is (%lld, %.17g), oracle (%lld, %.17g)", k,
                       static_cast<long long>(row.At(1).AsInt()), got,
                       static_cast<long long>(unseen[order[k]]), want);
    }
  }
  return "";
}

std::string CheckFilter(const Stmt& stmt,
                        const std::vector<recdb::Tuple>& rows) {
  for (const auto& row : rows) {
    const int64_t iid = row.At(1).AsInt();
    if (row.At(0).AsInt() != stmt.user ||
        !std::binary_search(stmt.in_list.begin(), stmt.in_list.end(), iid)) {
      return "filter uid=" + std::to_string(stmt.user) + " returned iid " +
             std::to_string(iid) + " outside its IN-list";
    }
  }
  return "";
}

std::string CheckJoin(const Env& env, const std::vector<recdb::Tuple>& rows) {
  for (const auto& row : rows) {
    const int64_t iid = row.At(1).AsInt();
    auto it = env.genre.find(iid);
    if (row.At(2).AsString() != "Action" || it == env.genre.end() ||
        it->second != "Action") {
      return "join returned iid " + std::to_string(iid) +
             " that is not an Action item";
    }
  }
  return "";
}

}  // namespace perfbench
