#include "span_trace.h"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStatement:
      return "api.statement";
    case Layer::kParse:
      return "parser.parse";
    case Layer::kPlan:
      return "planner.plan";
    case Layer::kOptimize:
      return "planner.optimize";
    case Layer::kInit:
      return "execution.init";
    case Layer::kDrain:
      return "execution.drain";
    case Layer::kRenderPlan:
      return "api.render_plan";
    case Layer::kExecuteDml:
      return "api.execute_dml";
    case Layer::kPredictBatch:
      return "recommender.predict_batch";
    case Layer::kRefresh:
      return "ingest.refresh";
    case Layer::kInsertUncontended:
      return "api.insert_uncontended";
    case Layer::kNumLayers:
      break;
  }
  return "?";
}

void SpanTracer::BeginRequest(uint64_t request) {
  request_ = request;
  current_.clear();
  child_ns_.clear();
  open_.clear();
}

int SpanTracer::Begin(Layer layer) {
  Span span;
  span.layer = layer;
  span.thread = thread_;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NsSince(origin_, SteadyClock::now());
  current_.push_back(span);
  child_ns_.push_back(0);
  const int handle = static_cast<int>(current_.size()) - 1;
  open_.push_back(handle);
  return handle;
}

void SpanTracer::End(int handle) {
  Span& span = current_[handle];
  span.end_ns = NsSince(origin_, SteadyClock::now());
  // Spans close innermost-first, so the handle is the top of the stack.
  open_.pop_back();
  if (span.parent >= 0) {
    child_ns_[span.parent] += span.end_ns - span.start_ns;
  }
}

void SpanTracer::EndRequest() {
  for (size_t i = 0; i < current_.size(); ++i) {
    const Span& span = current_[i];
    LayerTotals& t = totals_[static_cast<size_t>(span.layer)];
    const int64_t dur = span.end_ns - span.start_ns;
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns_[i];
    if (span.layer == Layer::kInsertUncontended) {
      t.durations_us.push_back(static_cast<double>(dur) / 1e3);
    }
  }
  if (kept_.size() + current_.size() <= keep_cap_) {
    kept_.insert(kept_.end(), current_.begin(), current_.end());
  } else {
    dropped_spans_ += current_.size();
  }
  current_.clear();
  child_ns_.clear();
}

void SpanTracer::Merge(const SpanTracer& other) {
  for (size_t l = 0; l < totals_.size(); ++l) {
    LayerTotals& mine = totals_[l];
    const LayerTotals& theirs = other.totals_[l];
    mine.count += theirs.count;
    mine.total_ns += theirs.total_ns;
    mine.self_ns += theirs.self_ns;
    mine.durations_us.insert(mine.durations_us.end(),
                             theirs.durations_us.begin(),
                             theirs.durations_us.end());
  }
  kept_.insert(kept_.end(), other.kept_.begin(), other.kept_.end());
  dropped_spans_ += other.dropped_spans_;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"thread\": %u, \"request\": %llu, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 LayerName(s.layer), s.thread,
                 static_cast<unsigned long long>(s.request), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
