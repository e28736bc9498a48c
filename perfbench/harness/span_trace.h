// Span recording for the traced run. The harness opens a span around each
// call it makes into an engine layer; spans of one statement share a
// request id and nest under that statement's root span. Spans stay in
// memory (up to a cap) and are written out when the run ends; every span,
// kept or not, is folded into per-layer totals of count, duration and self
// time (duration minus the time its child spans cover).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

enum class Layer : uint8_t {
  kStatement,          // root: one statement issued by the harness
  kParse,              // Parser::Parse
  kPlan,               // Planner::PlanSelect
  kOptimize,           // Optimizer::Optimize
  kInit,               // CreateExecutor + Executor::Init
  kDrain,              // the Executor::Next loop
  kRenderPlan,         // PlanNode::ToString with the actual row counts
  kExecuteDml,         // Session::Execute of an INSERT
  kPredictBatch,       // RecModel::PredictBatch over a user's item list
  kRefresh,            // RecDB::RefreshRecommender
  kInsertUncontended,  // RecDB::Execute of an INSERT with no readers
  kNumLayers,
};

const char* LayerName(Layer layer);

struct LayerTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  /// Per-span durations, kept for kInsertUncontended (reported as a
  /// median).
  std::vector<double> durations_us;

  double MeanSelfUs() const {
    return count > 0 ? static_cast<double>(self_ns) / 1e3 / count : 0;
  }
  double MeanUs() const {
    return count > 0 ? static_cast<double>(total_ns) / 1e3 / count : 0;
  }
};

struct Span {
  Layer layer = Layer::kStatement;
  uint32_t thread = 0;
  uint64_t request = 0;
  int32_t parent = -1;  // index within the request's spans; -1 = root
  int64_t start_ns = 0;  // relative to the tracer's origin
  int64_t end_ns = 0;
};

/// One thread's tracer (not thread-safe; the harness gives every worker
/// thread its own and merges them after the threads are joined).
class SpanTracer {
 public:
  SpanTracer(uint32_t thread, TimePoint origin, size_t keep_cap)
      : thread_(thread), origin_(origin), keep_cap_(keep_cap) {}

  /// Start a request: every span until EndRequest shares `request`.
  void BeginRequest(uint64_t request);
  /// Open a span under the innermost open span; returns its handle.
  int Begin(Layer layer);
  void End(int handle);
  /// Close the request: fold its spans into the totals and keep them if
  /// the cap allows.
  void EndRequest();

  const std::array<LayerTotals, static_cast<size_t>(Layer::kNumLayers)>&
  totals() const {
    return totals_;
  }
  const std::vector<Span>& kept() const { return kept_; }
  uint64_t dropped_spans() const { return dropped_spans_; }

  /// Fold another thread's totals and kept spans into this tracer.
  void Merge(const SpanTracer& other);

 private:
  uint32_t thread_;
  TimePoint origin_;
  size_t keep_cap_;
  uint64_t request_ = 0;
  std::vector<Span> current_;
  std::vector<int64_t> child_ns_;  // per current_ span: covered by children
  std::vector<int> open_;          // stack of open span handles
  std::array<LayerTotals, static_cast<size_t>(Layer::kNumLayers)> totals_{};
  std::vector<Span> kept_;
  uint64_t dropped_spans_ = 0;
};

/// Write kept spans as a JSON array of {name, thread, request, parent,
/// start_ns, end_ns}. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
