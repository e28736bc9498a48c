// recdb_perfbench: the repo benchmark harness.
//
//   recdb_perfbench --workload <ml_itemcf|yelp_svd_hot|ml_ingest>
//                   --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 sets the workload up five times (setup_s is the median of
// their process CPU time), runs one timed window through Session::Execute
// and prints the end-to-end metrics. Their times are CPU time, so they
// leave out how long the engine waited for a CPU of a shared host; the
// wall-clock figures are printed beside them. --trace 1 prints the
// per-layer metrics instead: a plain window of half the time gives the
// registry counts and the reference throughput, then a fresh database runs
// the same statements through the engine layers one call at a time, each
// inside a span. The read-only workloads add such a pass of ml_ingest for
// the INSERT, WAL and refresh metrics. Both modes check answers; the last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runner.h"
#include "span_trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
// After the traced window: PredictBatch probes over the full item list for
// sampled top-k users, and INSERTs with no readers, on their own tracer.
constexpr size_t kMaxProbes = 64;
constexpr size_t kUncontendedInserts = 21;
constexpr uint32_t kProbeThread = 1000;
constexpr size_t kMinP99Samples = 1000;
// The workload whose traced pass supplies the INSERT, WAL and refresh
// metrics of the read-only workloads.
constexpr const char* kIngestWorkload = "ml_ingest";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1) &&
         !args->work_dir.empty();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or ratio base, printed beside the value
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.4f %-13s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

using ClassHistograms = std::array<LatencyHistogram, kNumClasses>;

LatencyHistogram Latencies(const ClassHistograms& by_class,
                           std::initializer_list<StmtClass> classes) {
  LatencyHistogram out;
  for (StmtClass c : classes) out.Merge(by_class[static_cast<size_t>(c)]);
  return out;
}

// Adds <prefix>_p50_ms and <prefix>_p99_ms.
void AddLatency(std::vector<Metric>* metrics, const std::string& prefix,
                const LatencyHistogram& ms) {
  const std::string n = "n=" + std::to_string(ms.count());
  metrics->push_back({prefix + "_p50_ms", ms.Quantile(0.50), "ms", n});
  metrics->push_back(
      {prefix + "_p99_ms", ms.Quantile(0.99), "ms",
       n + (ms.count() >= kMinP99Samples ? "" : " (below 1000 samples)")});
}

void PrintChecks(const std::vector<std::string>& errors,
                 const std::vector<std::string>& failures) {
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  for (const auto& f : failures) {
    std::printf("STATEMENT FAILED: %s\n", f.c_str());
  }
}

// Set up `spec` in a fresh directory under the work dir; exits on error
// (a workload that cannot be set up gives no result).
std::unique_ptr<Env> MustSetUp(const WorkloadSpec& spec, const Args& args,
                               const std::string& tag,
                               bool background_refresh) {
  const std::string dir =
      args.work_dir + "/db-" + spec.name + "-" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto env = SetUp(spec, args.seed, dir, background_refresh);
  if (!env.ok()) {
    std::fprintf(stderr, "set-up of %s failed: %s\n", spec.name.c_str(),
                 env.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(env).value();
}

void RunChecks(const WorkloadSpec& spec, Env& env, uint64_t seed,
               WindowStats* w) {
  CheckTopKSamples(spec, env, w);
  if (spec.file_backed) CheckDurability(env, w->acked, seed, &w->errors);
}

int RunPlain(const WorkloadSpec& spec, const Args& args) {
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    TearDown(std::move(env));
    const TimePoint t0 = SteadyClock::now();
    const double cpu0 = ProcessCpuSeconds();
    env = MustSetUp(spec, args, "setup" + std::to_string(i), true);
    setup_s.push_back(ProcessCpuSeconds() - cpu0);
    setup_wall_s.push_back(SecondsSince(t0));
  }
  WindowConfig config{args.seconds, args.seed, false, SteadyClock::now()};
  WindowStats w = RunWindow(spec, *env, config);
  const double rss_mb = PeakRssMb();
  RunChecks(spec, *env, args.seed, &w);
  TearDown(std::move(env));

  // The result line: CPU times, which waiting for a CPU on a busy host does
  // not stretch. nontopk_cpu_p50_ms is printed but not in it: on ml_itemcf
  // it falls between the filter and the join shapes, whose p50s differ 2x.
  const std::initializer_list<StmtClass> kNonTopK = {
      StmtClass::kFilter, StmtClass::kJoin, StmtClass::kInsert};
  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", Quantile(&setup_s, 0.5), "s",
                 "median process CPU time of " + std::to_string(kSetups) +
                     " set-ups"});
  e2e.push_back({"ops_per_cpu_s", w.ops_per_cpu_s(), "1/s",
                 std::to_string(w.completed) + " statements in " +
                     std::to_string(w.cpu_s) + " session-thread CPU s"});
  std::vector<Metric> topk;
  AddLatency(&topk, "topk_cpu", Latencies(w.cpu, {StmtClass::kTopK}));
  std::vector<Metric> nontopk;
  AddLatency(&nontopk, "nontopk_cpu", Latencies(w.cpu, kNonTopK));
  e2e.push_back(topk[0]);
  e2e.push_back(topk[1]);
  e2e.push_back(nontopk[1]);
  e2e.push_back({"peak_rss_mb", rss_mb, "MB", "getrusage ru_maxrss"});

  // Wall-clock figures, per-class detail and accounting; not part of the
  // result line.
  std::vector<Metric> detail = {nontopk[0]};
  detail.push_back({"setup_wall_s", Quantile(&setup_wall_s, 0.5), "s",
                    "median of " + std::to_string(kSetups) + " set-ups"});
  detail.push_back({"ops_per_s", w.ops_per_s(), "1/s",
                    std::to_string(w.completed) + " statements in " +
                        std::to_string(w.elapsed_s) + " s"});
  AddLatency(&detail, "topk", Latencies(w.latency, {StmtClass::kTopK}));
  AddLatency(&detail, "nontopk", Latencies(w.latency, kNonTopK));
  for (StmtClass c : kNonTopK) {
    if (w.latency[static_cast<size_t>(c)].count() > 0) {
      AddLatency(&detail, std::string(ClassName(c)) + "_cpu",
                 Latencies(w.cpu, {c}));
      AddLatency(&detail, ClassName(c), Latencies(w.latency, {c}));
    }
  }
  detail.push_back({"failed_frac", Ratio(w.failed, w.attempted), "ratio",
                    std::to_string(w.failed) + " failed / " +
                        std::to_string(w.attempted) + " attempted"});
  if (spec.open_loop()) {
    std::vector<double> lag = w.lag_ms;
    double sum = 0;
    for (double v : lag) sum += v;
    detail.push_back({"generator_lag_mean_ms",
                      Ratio(sum, static_cast<double>(lag.size())), "ms",
                      "send time behind due time"});
    detail.push_back({"generator_lag_max_ms", Quantile(&lag, 1.0), "ms",
                      std::to_string(w.issued) + " sent / " +
                          std::to_string(w.scheduled) + " due"});
  }

  std::printf("workload %s seed %llu: %.1f s window, %zu answers checked\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.elapsed_s, w.samples.size());
  PrintMetrics(e2e);
  PrintMetrics(detail);
  if (w.issued < w.scheduled) {
    std::printf("WARNING: generator fell behind its schedule: %llu of %llu "
                "due statements never sent\n",
                static_cast<unsigned long long>(w.scheduled - w.issued),
                static_cast<unsigned long long>(w.scheduled));
  }
  PrintChecks(w.errors, w.failures);
  PrintResult(w.errors.empty(), w.attempted, w.failed, e2e);
  return 0;
}

// One traced measurement of a workload. A plain window of half the time
// gives the registry counts and the reference throughput; then a fresh
// database runs the same statements through the layers, followed by
// PredictBatch probes and, for the open loop, INSERTs with no readers.
struct TracedPass {
  WindowStats plain;
  WindowStats traced;
  Counters before;  // registry counters around the plain half
  Counters after;
  size_t probe_items = 0;  // items scored by each PredictBatch probe
  std::string spans_path;
  bool spans_written = false;

  double Count(const char* name) const { return Delta(before, after, name); }
  const LayerTotals& layer(Layer l) const {
    return traced.tracer->totals()[static_cast<size_t>(l)];
  }
};

TracedPass RunTracedPass(const WorkloadSpec& spec, const Args& args) {
  const double half = args.seconds / 2;
  TracedPass pass;

  std::unique_ptr<Env> env = MustSetUp(spec, args, "plain", true);
  pass.before = ReadCounters();
  pass.plain =
      RunWindow(spec, *env, {half, args.seed, false, SteadyClock::now()});
  pass.after = ReadCounters();
  RunChecks(spec, *env, args.seed, &pass.plain);
  TearDown(std::move(env));

  // Background refresh is off in the traced half; the harness refreshes.
  env = MustSetUp(spec, args, "traced", false);
  const TimePoint origin = SteadyClock::now();
  WindowStats& traced = pass.traced;
  traced = RunWindow(spec, *env, {half, args.seed, true, origin});
  SpanTracer probes(kProbeThread, origin, kMaxProbes + kUncontendedInserts);
  uint64_t request = 1ull << 50;
  std::vector<double> scores(env->items.size());
  pass.probe_items = scores.size();
  for (size_t i = 0; i < traced.samples.size() && i < kMaxProbes; ++i) {
    probes.BeginRequest(request++);
    {
      const int span = probes.Begin(Layer::kPredictBatch);
      env->rec->model()->PredictBatch(traced.samples[i].stmt.user,
                                      env->items, scores);
      probes.End(span);
    }
    probes.EndRequest();
  }
  if (spec.open_loop()) {
    for (const Stmt& s : InsertStream(*env, args.seed ^ 0x77ull,
                                      kUncontendedInserts)) {
      probes.BeginRequest(request++);
      recdb::Status st = recdb::Status::OK();
      {
        const int span = probes.Begin(Layer::kInsertUncontended);
        st = env->db->Execute(s.sql).status();
        probes.End(span);
      }
      probes.EndRequest();
      ++traced.attempted;
      if (st.ok()) {
        traced.acked.push_back(s);
      } else {
        ++traced.failed;
        traced.failures.push_back("uncontended insert: " + st.ToString());
      }
    }
  }
  traced.tracer->Merge(probes);
  RunChecks(spec, *env, args.seed, &traced);
  TearDown(std::move(env));
  pass.spans_path = args.work_dir + "/spans-" + spec.name + ".json";
  pass.spans_written = WriteSpans(pass.spans_path, traced.tracer->kept());

  std::printf("workload %s seed %llu (traced): %.1f s plain + %.1f s traced, "
              "%llu statements traced (%zu spans written to %s%s, %llu "
              "past the cap)\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              pass.plain.elapsed_s, traced.elapsed_s,
              static_cast<unsigned long long>(
                  pass.layer(Layer::kStatement).count),
              traced.tracer->kept().size(), pass.spans_path.c_str(),
              pass.spans_written ? "" : ", WRITE FAILED",
              static_cast<unsigned long long>(traced.tracer->dropped_spans()));
  return pass;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  const TracedPass own = RunTracedPass(spec, args);
  // The read-only workloads drive neither the WAL nor the ingest path, so
  // their INSERT, WAL and refresh metrics come from a pass of ml_ingest
  // (the same MovieLens shape and ItemCosCF recommender, plus INSERTs).
  std::unique_ptr<TracedPass> borrowed;
  if (!spec.open_loop()) {
    borrowed = std::make_unique<TracedPass>(
        RunTracedPass(*FindWorkload(kIngestWorkload), args));
  }
  const TracedPass& ingest = borrowed ? *borrowed : own;
  const std::string from =
      borrowed ? " (" + std::string(kIngestWorkload) + ")" : "";

  auto self_note = [&](Layer l) {
    return "mean self time of " + std::to_string(own.layer(l).count) + " " +
           LayerName(l) + " spans";
  };
  auto fmt = [](const char* what, double num, const char* base, double den) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %.0f / %s %.0f", what, num, base, den);
    return std::string(buf);
  };
  const LayerTotals& predict = own.layer(Layer::kPredictBatch);
  const double probe_predictions = static_cast<double>(predict.count) *
                                   static_cast<double>(own.probe_items);
  const double topk = static_cast<double>(
      own.plain.latency[static_cast<size_t>(StmtClass::kTopK)].count());
  const double hits = own.Count("bufferpool.hits");
  const double misses = own.Count("bufferpool.misses");
  const double inserts = static_cast<double>(ingest.plain.acked.size());
  const double refreshes = ingest.Count("ingest.refreshes");
  const double conflicts = ingest.Count("ingest.refresh_conflicts");
  std::vector<double> uncontended =
      ingest.layer(Layer::kInsertUncontended).durations_us;
  const LayerTotals& refresh = ingest.layer(Layer::kRefresh);

  std::vector<Metric> m;
  m.push_back({"parser.parse_us", own.layer(Layer::kParse).MeanSelfUs(), "us",
               self_note(Layer::kParse)});
  m.push_back({"planner.plan_us", own.layer(Layer::kPlan).MeanSelfUs(), "us",
               self_note(Layer::kPlan)});
  m.push_back({"planner.optimize_us",
               own.layer(Layer::kOptimize).MeanSelfUs(), "us",
               self_note(Layer::kOptimize)});
  m.push_back({"execution.init_us", own.layer(Layer::kInit).MeanSelfUs(),
               "us", self_note(Layer::kInit)});
  m.push_back({"execution.drain_us", own.layer(Layer::kDrain).MeanSelfUs(),
               "us", self_note(Layer::kDrain)});
  m.push_back({"execution.tuples_scanned_per_row",
               Ratio(own.Count("exec.tuples_scanned"), own.plain.rows),
               "tuples/row",
               fmt("exec.tuples_scanned", own.Count("exec.tuples_scanned"),
                   "rows returned", own.plain.rows)});
  m.push_back({"recommender.predict_batch_us", predict.MeanUs(), "us",
               "mean of " + std::to_string(predict.count) + " calls over " +
                   std::to_string(own.probe_items) + " items"});
  m.push_back({"recommender.ns_per_prediction",
               Ratio(static_cast<double>(predict.total_ns), probe_predictions),
               "ns",
               fmt("PredictBatch ns", static_cast<double>(predict.total_ns),
                   "predictions", probe_predictions)});
  m.push_back({"recommender.predictions_per_query",
               Ratio(own.Count("exec.predictions"), own.plain.selects),
               "pred/stmt",
               fmt("exec.predictions", own.Count("exec.predictions"),
                   "SELECT statements", own.plain.selects)});
  m.push_back({"index.hit_frac", Ratio(own.Count("recindex.user_hits"), topk),
               "ratio",
               fmt("recindex.user_hits", own.Count("recindex.user_hits"),
                   "topk statements", topk)});
  m.push_back({"index.items_pruned_frac",
               Ratio(own.Count("prune.items_pruned"),
                     own.Count("prune.candidates_generated")),
               "ratio",
               fmt("prune.items_pruned", own.Count("prune.items_pruned"),
                   "prune.candidates_generated",
                   own.Count("prune.candidates_generated"))});
  m.push_back({"storage.bufferpool_hit_frac", Ratio(hits, hits + misses),
               "ratio",
               fmt("bufferpool.hits", hits, "hits+misses", hits + misses)});
  m.push_back({"storage.fsyncs_per_insert",
               Ratio(ingest.Count("wal.fsyncs"), inserts), "fsyncs/insert",
               fmt("wal.fsyncs", ingest.Count("wal.fsyncs"), "inserts",
                   inserts) + from});
  m.push_back({"storage.wal_bytes_per_insert",
               Ratio(ingest.Count("wal.bytes_appended"), inserts),
               "bytes/insert",
               fmt("wal.bytes_appended", ingest.Count("wal.bytes_appended"),
                   "inserts", inserts) + from});
  m.push_back({"api.insert_uncontended_us", Quantile(&uncontended, 0.5), "us",
               "median of " + std::to_string(uncontended.size()) +
                   " INSERTs with no readers" + from});
  m.push_back({"ingest.refresh_ms", refresh.MeanUs() / 1e3, "ms",
               "mean of " + std::to_string(refresh.count) +
                   " harness-called RefreshRecommender" + from});
  m.push_back({"ingest.refresh_useful_frac",
               Ratio(refreshes, refreshes + conflicts), "ratio",
               fmt("ingest.refreshes", refreshes, "refreshes+conflicts",
                   refreshes + conflicts) + from});
  // Traced statements skip engine work outside the public layer calls (see
  // TracedSelect), so this is not the tracing cost alone.
  m.push_back({"obs.trace_overhead_frac",
               own.plain.ops_per_cpu_s() > 0
                   ? 1.0 - own.traced.ops_per_cpu_s() /
                               own.plain.ops_per_cpu_s()
                   : 0,
               "ratio",
               fmt("traced ops/cpu-s", own.traced.ops_per_cpu_s(),
                   "plain ops/cpu-s", own.plain.ops_per_cpu_s())});

  PrintMetrics(m);
  std::vector<std::string> errors;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<const TracedPass*> passes = {&own};
  if (borrowed) passes.push_back(borrowed.get());
  for (const TracedPass* p : passes) {
    for (const WindowStats* w : {&p->plain, &p->traced}) {
      errors.insert(errors.end(), w->errors.begin(), w->errors.end());
      failures.insert(failures.end(), w->failures.begin(), w->failures.end());
      attempted += w->attempted;
      failed += w->failed;
    }
  }
  PrintChecks(errors, failures);
  PrintResult(errors.empty(), attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const auto& n : WorkloadNames()) names += (names.empty() ? "" : "|") + n;
    std::fprintf(stderr,
                 "usage: %s --workload <%s> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n",
                 argv[0], names.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  return args.trace == 1 ? RunTraced(spec, args) : RunPlain(spec, args);
}
