#include "bench_util.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdlib>

#include "api/recdb.h"

namespace perfbench {

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*values)[std::min(idx, values->size() - 1)];
}

namespace {
constexpr double kMinMs = 1e-4;
constexpr double kMaxMs = 1e5;
const double kLogGrowth = std::log1p(1e-3);
const size_t kNumBuckets =
    static_cast<size_t>(std::log(kMaxMs / kMinMs) / kLogGrowth) + 1;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

void LatencyHistogram::Add(double ms) {
  const double pos = std::log(std::max(ms, kMinMs) / kMinMs) / kLogGrowth;
  ++buckets_[std::min(static_cast<size_t>(pos), kNumBuckets - 1)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  size_t i = 0;
  for (; i + 1 < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= rank) break;
  }
  return kMinMs * std::exp((static_cast<double>(i) + 0.5) * kLogGrowth);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Counters ReadCounters() {
  const std::string json = recdb::RecDB::MetricsJson();
  Counters out;
  const size_t begin = json.find("\"counters\"");
  if (begin == std::string::npos) return out;
  const size_t end = json.find('}', begin);
  size_t pos = json.find('{', begin) + 1;
  while (pos < end) {
    const size_t key_open = json.find('"', pos);
    if (key_open == std::string::npos || key_open >= end) break;
    const size_t key_close = json.find('"', key_open + 1);
    const size_t colon = json.find(':', key_close);
    out[json.substr(key_open + 1, key_close - key_open - 1)] =
        std::strtod(json.c_str() + colon + 1, nullptr);
    pos = json.find_first_of(",}", colon);
    if (pos == std::string::npos) break;
    ++pos;
  }
  return out;
}

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  if (a == after.end() || b == before.end()) return 0;
  return a->second - b->second;
}

}  // namespace perfbench
