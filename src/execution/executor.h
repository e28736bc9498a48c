// Volcano (iterator-model) executor interface.
//
// All operators — including the RECOMMEND family — are non-blocking
// iterators (paper Section IV-B): Init() prepares state, Next() produces one
// tuple at a time so downstream operators can consume results before the
// recommendation operator finishes all predictions.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/status.h"
#include "obs/tracer.h"
#include "planner/plan_node.h"
#include "types/tuple.h"

namespace recdb {

/// Counters shared by all executors of one query execution.
struct ExecStats {
  uint64_t tuples_scanned = 0;      // base-table tuples read
  uint64_t predictions = 0;         // candidate scores computed by the model
  uint64_t predict_batches = 0;     // PredictBatch invocations (hot paths)
  uint64_t index_hits = 0;          // users served from RecScoreIndex
  uint64_t index_misses = 0;        // users that fell back to the model
  uint64_t join_probes = 0;
  // Morsel-parallel execution (TaskScheduler) during the statement.
  uint64_t tasks_spawned = 0;  // morsels executed by the scheduler
  double worker_time_ms = 0;   // summed worker busy time across morsels
  // I/O fault behaviour observed during the statement (DiskManager deltas).
  uint64_t io_read_failures = 0;    // reads that failed after retries
  uint64_t io_write_failures = 0;   // writes that failed after retries
  uint64_t io_retries = 0;          // transient-fault retries performed
  uint64_t io_checksum_failures = 0;  // pages that failed CRC verification
};

struct ExecContext {
  ExecStats stats;
  /// Actual rows emitted per plan node (EXPLAIN ANALYZE), keyed by node
  /// address; filled by the Executor::Next wrapper as tuples flow.
  ActualRowMap actual_rows;
  /// Non-null when `SET trace = on`: the Next wrapper times each NextImpl
  /// call and accumulates per-node inclusive durations into the tracer.
  /// Null (the default) keeps the hot path untimed and allocation-free.
  obs::Tracer* tracer = nullptr;
};

class Executor {
 public:
  Executor(const PlanNode& node, ExecContext* ctx)
      : node_(&node), exec_ctx_(ctx) {}
  virtual ~Executor() = default;

  /// Prepare (or re-prepare) the iterator. Must be callable repeatedly.
  virtual Status Init() = 0;

  /// Produce the next tuple, or nullopt when exhausted. Counts emitted
  /// tuples into ExecContext::actual_rows for EXPLAIN ANALYZE, and — when a
  /// tracer is attached — accumulates this node's inclusive NextImpl time
  /// for the per-executor trace spans.
  Result<std::optional<Tuple>> Next() {
    if (exec_ctx_ != nullptr && exec_ctx_->tracer != nullptr) {
      return TracedNext();
    }
    auto r = NextImpl();
    if (r.ok() && r.value().has_value() && exec_ctx_ != nullptr) {
      ++exec_ctx_->actual_rows[node_];
    }
    return r;
  }

 protected:
  virtual Result<std::optional<Tuple>> NextImpl() = 0;

 private:
  Result<std::optional<Tuple>> TracedNext() {
    const auto start = std::chrono::steady_clock::now();
    auto r = NextImpl();
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    const bool produced = r.ok() && r.value().has_value();
    exec_ctx_->tracer->RecordNode(node_, ns, produced);
    if (produced) ++exec_ctx_->actual_rows[node_];
    return r;
  }

  const PlanNode* node_;
  ExecContext* exec_ctx_;
};

using ExecutorPtr = std::unique_ptr<Executor>;

/// Instantiate the executor tree for a physical plan.
Result<ExecutorPtr> CreateExecutor(const PlanNode& plan, ExecContext* ctx);

}  // namespace recdb
