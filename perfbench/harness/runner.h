// Timed windows over one set-up database: the closed loop of the read-only
// workloads and the open loop of ml_ingest, each either plain (statements
// through Session::Execute) or traced (SELECTs through the engine layers
// one call at a time, each call inside a span).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "span_trace.h"
#include "workload.h"

namespace perfbench {

struct WindowStats {
  /// Wall-clock latency of each completed statement, by class: from its
  /// start (closed loop) or its due time (open loop).
  std::array<LatencyHistogram, kNumClasses> latency;
  /// CPU time of each completed statement on its session's thread, by
  /// class: the engine's service time, without time spent waiting to run.
  std::array<LatencyHistogram, kNumClasses> cpu;
  /// CPU time of the session threads over the window, in seconds.
  double cpu_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;     // Execute (or a layer call) returned non-OK
  uint64_t completed = 0;  // statements that returned OK
  uint64_t selects = 0;    // completed SELECTs
  uint64_t rows = 0;       // rows returned by completed SELECTs
  double elapsed_s = 0;
  /// Answer-check failures (a wrong answer fails the run).
  std::vector<std::string> errors;
  /// The first few non-OK statuses, for the report.
  std::vector<std::string> failures;
  /// Seeded sample of completed top-k statements for the oracle check.
  std::vector<TopKSample> samples;
  /// INSERTs the engine acknowledged.
  std::vector<Stmt> acked;

  // Open-loop generator accounting: send time behind due time.
  std::vector<double> lag_ms;
  uint64_t scheduled = 0;  // statements due inside the window
  uint64_t issued = 0;     // of those, sent before the give-up deadline

  /// Traced windows only: spans of every worker, merged.
  std::unique_ptr<SpanTracer> tracer;

  double ops_per_s() const { return Ratio(completed, elapsed_s); }
  /// Completed statements per CPU-second of the session threads.
  double ops_per_cpu_s() const { return Ratio(completed, cpu_s); }
};

struct WindowConfig {
  double seconds = 0;
  uint64_t seed = 0;
  bool traced = false;
  TimePoint origin;  // span timestamps are relative to this
};

/// Run one timed window of `spec`'s load against `env`.
WindowStats RunWindow(const WorkloadSpec& spec, Env& env,
                      const WindowConfig& config);

/// Oracle-check the window's top-k samples. For open-loop workloads the
/// model has moved since the samples ran, so their statements are issued
/// again once writes have stopped and background work has drained. (The
/// traced open loop also checks each sample in the window, under the gate
/// that holds writers off; the plain one cannot pause background refresh,
/// so its in-window answers are not oracle-checked.)
void CheckTopKSamples(const WorkloadSpec& spec, Env& env, WindowStats* stats);

/// Close the database, reopen it from its files and require every
/// acknowledged INSERT to be there (row count plus a seeded sample of
/// rows). Appends failures to `errors`. Leaves env->db null.
void CheckDurability(Env& env, const std::vector<Stmt>& acked, uint64_t seed,
                     std::vector<std::string>* errors);

}  // namespace perfbench
