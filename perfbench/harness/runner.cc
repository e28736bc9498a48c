#include "runner.h"

#include <algorithm>
#include <latch>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "api/session.h"
#include "execution/executor.h"
#include "parser/parser.h"
#include "planner/optimizer.h"
#include "planner/planner.h"

namespace perfbench {

namespace {

// Spans kept per worker thread for the written trace; totals cover all.
constexpr size_t kSpanKeepCap = 20000;
// Top-k statements sampled for the oracle check, per worker.
constexpr double kSampleProb = 1.0 / 16;
constexpr size_t kMaxSamplesPerWorker = 24;
constexpr size_t kMaxMessages = 8;
// Open loop: statements still unsent this long after the window are given
// up and the run is flagged as behind schedule.
constexpr double kGiveUpSeconds = 10;
// Durability check: acknowledged rows read back one by one.
constexpr size_t kDurabilitySample = 32;

struct Outcome {
  recdb::Status status = recdb::Status::OK();
  std::vector<recdb::Tuple> rows;
  bool index_plan = false;
};

class SpanScope {
 public:
  SpanScope(SpanTracer* tracer, Layer layer)
      : tracer_(tracer), handle_(tracer->Begin(layer)) {}
  ~SpanScope() { tracer_->End(handle_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanTracer* tracer_;
  int handle_;
};

void Note(std::vector<std::string>* messages, std::string message) {
  if (messages->size() < kMaxMessages) messages->push_back(std::move(message));
}

// Whether a rendered plan served the statement from the RecScoreIndex
// (which fixes the top-k tie-break to item id).
bool ServedByIndex(const std::string& plan) {
  return plan.find("IndexRecommend") != std::string::npos;
}

Outcome PlainStatement(recdb::Session* session, const Stmt& stmt) {
  Outcome out;
  auto r = session->Execute(stmt.sql);
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.index_plan = ServedByIndex(r.value().plan);
  out.rows = std::move(r.value().rows);
  return out;
}

// The SELECT path of RecDB::Execute, one public layer call at a time, each
// in its own span under the statement's root span. Callers must keep
// writers out for the duration. Engine work outside the public layer calls
// is left out: the engine's shared lock, NotifyRecommendQuery (cache-demand
// bookkeeping), PublishExecStats and the query counters and histogram.
Outcome TracedSelect(recdb::RecDB* db, const Stmt& stmt, SpanTracer* t) {
  Outcome out;
  SpanScope root(t, Layer::kStatement);
  std::vector<recdb::StatementPtr> parsed;
  {
    SpanScope span(t, Layer::kParse);
    auto r = recdb::Parser::Parse(stmt.sql);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    parsed = std::move(r).value();
  }
  if (parsed.size() != 1 || parsed[0]->kind != recdb::StatementKind::kSelect) {
    out.status = recdb::Status::InvalidArgument("not a single SELECT");
    return out;
  }
  const auto& select = static_cast<const recdb::SelectStatement&>(*parsed[0]);
  recdb::PlannedQuery planned;
  {
    SpanScope span(t, Layer::kPlan);
    recdb::Planner planner(db->catalog(), db->registry(),
                           db->options().planner);
    auto r = planner.PlanSelect(select);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    planned = std::move(r).value();
  }
  recdb::PlanNodePtr plan;
  {
    SpanScope span(t, Layer::kOptimize);
    recdb::Optimizer optimizer(db->options().planner);
    auto r = optimizer.Optimize(std::move(planned.plan));
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    plan = std::move(r).value();
  }
  // Declared after `plan`: executors reference the plan and the context.
  recdb::ExecContext ctx;
  recdb::ExecutorPtr exec;
  {
    SpanScope span(t, Layer::kInit);
    auto r = recdb::CreateExecutor(*plan, &ctx);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    exec = std::move(r).value();
    out.status = exec->Init();
    if (!out.status.ok()) return out;
  }
  {
    SpanScope span(t, Layer::kDrain);
    while (true) {
      auto next = exec->Next();
      if (!next.ok()) {
        out.status = next.status();
        return out;
      }
      if (!next.value().has_value()) break;
      out.rows.push_back(std::move(*next.value()));
    }
  }
  {
    // RecDB::Execute renders the plan into every ResultSet.
    SpanScope span(t, Layer::kRenderPlan);
    out.index_plan = ServedByIndex(plan->ToString(0, &ctx.actual_rows));
  }
  return out;
}

// Count one statement's outcome and check its answer where that is cheap
// enough to do for every statement.
void Account(const Env& env, const Stmt& stmt, Outcome&& out, double ms,
             double cpu_ms, bool sample, WindowStats* w) {
  ++w->attempted;
  if (!out.status.ok()) {
    ++w->failed;
    Note(&w->failures,
         std::string(ClassName(stmt.cls)) + ": " + out.status.ToString());
    return;
  }
  ++w->completed;
  w->latency[static_cast<size_t>(stmt.cls)].Add(ms);
  w->cpu[static_cast<size_t>(stmt.cls)].Add(cpu_ms);
  if (stmt.cls == StmtClass::kInsert) {
    w->acked.push_back(stmt);
    return;
  }
  ++w->selects;
  w->rows += out.rows.size();
  std::string error;
  if (stmt.cls == StmtClass::kFilter) error = CheckFilter(stmt, out.rows);
  if (stmt.cls == StmtClass::kJoin) error = CheckJoin(env, out.rows);
  if (!error.empty()) Note(&w->errors, std::move(error));
  if (sample) w->samples.push_back({stmt, std::move(out.rows), out.index_plan});
}

struct Worker {
  WindowStats stats;
  std::unique_ptr<recdb::Session> session;
  std::unique_ptr<SpanTracer> tracer;
  uint64_t next_request = 0;
  TimePoint finished;

  Worker(Env& env, const WindowConfig& config, uint32_t index)
      : session(env.db->CreateSession()) {
    if (config.traced) {
      tracer = std::make_unique<SpanTracer>(index, config.origin,
                                            kSpanKeepCap);
      next_request = static_cast<uint64_t>(index) << 40;
    }
  }

  Outcome TracedRead(recdb::RecDB* db, const Stmt& stmt) {
    tracer->BeginRequest(next_request++);
    Outcome out = TracedSelect(db, stmt, tracer.get());
    tracer->EndRequest();
    return out;
  }
};

uint64_t StreamSeed(uint64_t seed, uint32_t worker) {
  return seed * 0x9E3779B97F4A7C15ull + worker + 1;
}

void ClosedLoop(const WorkloadSpec& spec, Env& env, const WindowConfig& config,
                uint32_t index, Worker* me, std::latch* ready,
                const TimePoint* start) {
  ReadStream stream(spec, env, StreamSeed(config.seed, index));
  recdb::Rng sampler(StreamSeed(config.seed, index) ^ 0xabcdefull);
  ready->arrive_and_wait();
  const TimePoint deadline =
      *start + std::chrono::duration_cast<SteadyClock::duration>(
                   std::chrono::duration<double>(config.seconds));
  const double cpu_start = ThreadCpuMs();
  while (SteadyClock::now() < deadline) {
    const Stmt stmt = stream.Next();
    const bool sample = stmt.cls == StmtClass::kTopK &&
                        sampler.Bernoulli(kSampleProb) &&
                        me->stats.samples.size() < kMaxSamplesPerWorker;
    const TimePoint t0 = SteadyClock::now();
    const double cpu0 = ThreadCpuMs();
    Outcome out = config.traced ? me->TracedRead(env.db.get(), stmt)
                                : PlainStatement(me->session.get(), stmt);
    const double cpu_ms = ThreadCpuMs() - cpu0;
    Account(env, stmt, std::move(out), MsBetween(t0, SteadyClock::now()),
            cpu_ms, sample, &me->stats);
  }
  me->stats.cpu_s = (ThreadCpuMs() - cpu_start) / 1e3;
  me->finished = SteadyClock::now();
}

// One open-loop sender: statement k is due at start + due_s[k] and is timed
// from its due time, so a stall also charges the statements queued behind
// it. Readers draw from their ReadStream, the inserter walks `inserts`.
void OpenLoop(const WorkloadSpec& spec, Env& env, const WindowConfig& config,
              uint32_t index, const std::vector<double>* due_s,
              const std::vector<Stmt>* inserts, std::shared_mutex* gate,
              Worker* me, std::latch* ready, const TimePoint* start) {
  ReadStream stream(spec, env, StreamSeed(config.seed, index));
  recdb::Rng sampler(StreamSeed(config.seed, index) ^ 0xabcdefull);
  auto at = [&](double seconds) {
    return *start + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(seconds));
  };
  ready->arrive_and_wait();
  const TimePoint give_up = at(config.seconds + kGiveUpSeconds);
  const double cpu_start = ThreadCpuMs();
  size_t acked = 0;
  for (size_t k = 0; k < due_s->size(); ++k) {
    const TimePoint due = at((*due_s)[k]);
    ++me->stats.scheduled;
    if (SteadyClock::now() >= give_up) continue;
    const Stmt stmt = inserts != nullptr ? (*inserts)[k] : stream.Next();
    const bool sample = stmt.cls == StmtClass::kTopK &&
                        sampler.Bernoulli(kSampleProb) &&
                        me->stats.samples.size() < kMaxSamplesPerWorker;
    std::this_thread::sleep_until(due);
    me->stats.lag_ms.push_back(MsBetween(due, SteadyClock::now()));
    ++me->stats.issued;
    const double cpu0 = ThreadCpuMs();
    Outcome out;
    if (!config.traced) {
      out = PlainStatement(me->session.get(), stmt);
    } else if (stmt.cls != StmtClass::kInsert) {
      std::shared_lock<std::shared_mutex> lock(*gate);
      out = me->TracedRead(env.db.get(), stmt);
      // INSERTs and the refresh wait on the gate, so the oracle sees the
      // model that served this answer beside them.
      if (sample && out.status.ok()) {
        std::string error = CheckTopK(env, {stmt, out.rows, out.index_plan});
        if (!error.empty()) Note(&me->stats.errors, "in-window " + error);
      }
    } else {
      // Traced readers bypass the engine's lock, so writes and the
      // harness-called refresh run while the gate keeps readers out.
      std::unique_lock<std::shared_mutex> lock(*gate);
      SpanTracer* t = me->tracer.get();
      t->BeginRequest(me->next_request++);
      {
        SpanScope root(t, Layer::kStatement);
        SpanScope dml(t, Layer::kExecuteDml);
        out.status = me->session->Execute(stmt.sql).status();
      }
      t->EndRequest();
      if (out.status.ok() && ++acked % spec.min_refresh_ops == 0) {
        t->BeginRequest(me->next_request++);
        recdb::Status st = recdb::Status::OK();
        {
          SpanScope span(t, Layer::kRefresh);
          st = env.db->RefreshRecommender(env.rec_name).status();
        }
        t->EndRequest();
        if (!st.ok()) Note(&me->stats.errors, "refresh: " + st.ToString());
      }
    }
    const double cpu_ms = ThreadCpuMs() - cpu0;
    Account(env, stmt, std::move(out), MsBetween(due, SteadyClock::now()),
            cpu_ms, sample, &me->stats);
  }
  me->stats.cpu_s = (ThreadCpuMs() - cpu_start) / 1e3;
  me->finished = SteadyClock::now();
}

void MergeInto(WindowStats* into, WindowStats&& from) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    into->latency[c].Merge(from.latency[c]);
    into->cpu[c].Merge(from.cpu[c]);
  }
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->completed += from.completed;
  into->selects += from.selects;
  into->rows += from.rows;
  into->cpu_s += from.cpu_s;
  for (auto& e : from.errors) Note(&into->errors, std::move(e));
  for (auto& f : from.failures) Note(&into->failures, std::move(f));
  for (auto& s : from.samples) into->samples.push_back(std::move(s));
  for (auto& a : from.acked) into->acked.push_back(std::move(a));
  into->lag_ms.insert(into->lag_ms.end(), from.lag_ms.begin(),
                      from.lag_ms.end());
  into->scheduled += from.scheduled;
  into->issued += from.issued;
}

}  // namespace

WindowStats RunWindow(const WorkloadSpec& spec, Env& env,
                      const WindowConfig& config) {
  const uint32_t num_workers = static_cast<uint32_t>(
      spec.open_loop() ? spec.read_sessions + 1 : spec.sessions);
  std::vector<std::unique_ptr<Worker>> workers;
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers.push_back(std::make_unique<Worker>(env, config, i));
  }

  // Open loop: each sender's arrivals are a Poisson process of its rate,
  // drawn as that many uniform points in the window (independent users;
  // an evenly spaced schedule would lock the senders into fixed phases).
  std::vector<std::vector<double>> due_s(num_workers);
  std::vector<Stmt> inserts;
  if (spec.open_loop()) {
    for (uint32_t i = 0; i < num_workers; ++i) {
      const bool inserter = i == static_cast<uint32_t>(spec.read_sessions);
      const double rate =
          inserter ? spec.insert_rate : spec.read_rate / spec.read_sessions;
      recdb::Rng rng(StreamSeed(config.seed, i) ^ 0x0a11ull);
      due_s[i].resize(static_cast<size_t>(rate * config.seconds));
      for (double& t : due_s[i]) t = rng.UniformDouble(0, config.seconds);
      std::sort(due_s[i].begin(), due_s[i].end());
    }
    inserts = InsertStream(env, config.seed, due_s[spec.read_sessions].size());
  }
  std::shared_mutex gate;
  std::latch ready(num_workers + 1);
  TimePoint start;
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < num_workers; ++i) {
    Worker* w = workers[i].get();
    if (!spec.open_loop()) {
      threads.emplace_back(ClosedLoop, std::cref(spec), std::ref(env),
                           std::cref(config), i, w, &ready, &start);
    } else {
      const bool inserter = i == static_cast<uint32_t>(spec.read_sessions);
      threads.emplace_back(OpenLoop, std::cref(spec), std::ref(env),
                           std::cref(config), i, &due_s[i],
                           inserter ? &inserts : nullptr, &gate, w, &ready,
                           &start);
    }
  }
  start = SteadyClock::now();
  ready.arrive_and_wait();
  for (auto& t : threads) t.join();

  WindowStats stats;
  if (config.traced) {
    stats.tracer = std::make_unique<SpanTracer>(0, config.origin, 0);
  }
  for (auto& w : workers) {
    stats.elapsed_s = std::max(
        stats.elapsed_s, std::chrono::duration<double>(w->finished - start)
                             .count());
    MergeInto(&stats, std::move(w->stats));
    if (config.traced) stats.tracer->Merge(*w->tracer);
  }
  return stats;
}

void CheckTopKSamples(const WorkloadSpec& spec, Env& env,
                      WindowStats* stats) {
  if (spec.open_loop()) {
    env.db->DrainBackgroundWork();
    for (auto& sample : stats->samples) {
      auto r = env.db->Execute(sample.stmt.sql);
      if (!r.ok()) {
        Note(&stats->errors, "top-k re-issue: " + r.status().ToString());
        continue;
      }
      sample.index_plan = ServedByIndex(r.value().plan);
      sample.rows = std::move(r.value().rows);
    }
  }
  for (const auto& sample : stats->samples) {
    std::string error = CheckTopK(env, sample);
    if (!error.empty()) Note(&stats->errors, std::move(error));
  }
}

void CheckDurability(Env& env, const std::vector<Stmt>& acked, uint64_t seed,
                     std::vector<std::string>* errors) {
  recdb::Status st = env.db->Close();
  env.db.reset();
  env.rec = nullptr;
  if (!st.ok()) {
    Note(errors, "close before reopen: " + st.ToString());
    return;
  }
  auto reopened = recdb::RecDB::Open(env.path);
  if (!reopened.ok()) {
    Note(errors, "reopen: " + reopened.status().ToString());
    return;
  }
  recdb::RecDB* db = reopened.value().get();
  const std::string& table = env.ds.ratings_table;
  auto count = db->Execute("SELECT COUNT(*) FROM " + table);
  const int64_t want = env.base_rows + static_cast<int64_t>(acked.size());
  if (!count.ok() || count.value().At(0, 0).AsInt() != want) {
    Note(errors, "after reopen " + table + " has " +
                     (count.ok() ? std::to_string(count.value().At(0, 0).AsInt())
                                 : count.status().ToString()) +
                     " rows, expected " + std::to_string(want));
  }
  recdb::Rng rng(seed ^ 0xd00dull);
  for (size_t n = 0; n < kDurabilitySample && !acked.empty(); ++n) {
    const Stmt& s = acked[rng.UniformInt(0, acked.size() - 1)];
    auto r = db->Execute("SELECT ratingval FROM " + table + " WHERE uid = " +
                         std::to_string(s.user) +
                         " AND iid = " + std::to_string(s.item));
    if (!r.ok() || r.value().NumRows() != 1 ||
        r.value().At(0, 0).AsDouble() != s.rating) {
      Note(errors, "acknowledged row (" + std::to_string(s.user) + ", " +
                       std::to_string(s.item) + ") missing after reopen");
    }
  }
  st = db->Close();
  if (!st.ok()) Note(errors, "close after reopen: " + st.ToString());
}

}  // namespace perfbench
