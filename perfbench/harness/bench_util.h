// Small helpers shared by the benchmark harness: clocks, order statistics,
// process memory and MetricsRegistry deltas read through RecDB::MetricsJson.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;

inline double MsBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double SecondsSince(TimePoint a) {
  return std::chrono::duration<double>(SteadyClock::now() - a).count();
}

inline int64_t NsSince(TimePoint origin, TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty. Sorts.
double Quantile(std::vector<double>* values, double q);

/// Latencies in ms, counted in logarithmic buckets 0.1% wide from 0.1 us to
/// 100 s. Its memory does not grow with the number of statements, so the
/// harness's share of peak_rss_mb stays the same however fast the engine
/// runs.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double ms);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank quantile (q in [0, 1]), as the geometric middle of its
  /// bucket; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// CPU time of the calling thread so far, in ms. Time the thread spent
/// waiting to run is not in it: neither time behind other runnable threads
/// nor, on a guest kernel with paravirtual steal accounting, time its
/// virtual CPU was held off by the hypervisor.
double ThreadCpuMs();

/// CPU time of this process so far (all threads, user + system), in s.
double ProcessCpuSeconds();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Counter values of the process-wide MetricsRegistry, by metric name
/// (the "counters" section of RecDB::MetricsJson()).
using Counters = std::map<std::string, double>;
Counters ReadCounters();

/// after[name] - before[name] (0 for names missing from either side).
double Delta(const Counters& before, const Counters& after,
             const std::string& name);

/// num / den, or 0 when den is 0 (the ratio's base is printed beside it).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench
