// TaskScheduler: a shared worker pool for morsel-driven parallelism
// (Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014).
//
// Hot paths (RECOMMEND scoring, neighborhood model builds, RecScoreIndex
// batch admission) partition their work into fixed-size morsels; workers —
// the calling thread plus `parallelism - 1` pool threads — claim morsels
// from a shared atomic cursor, so fast workers naturally steal load from
// slow ones. Callers are responsible for keeping morsels independent
// (private output slots, per-morsel accumulators) so results stay
// bit-identical to serial execution under any thread count; see DESIGN.md
// for the determinism contract.
//
// The engine uses one process-wide scheduler (`TaskScheduler::Global()`),
// sized with `SET parallelism = N` or `RecDBOptions::parallelism`. One
// parallel loop owns the pool at a time; a ParallelFor issued while the
// pool is busy — from inside a morsel, or from a concurrent root caller
// such as a second session's scoring loop — degrades to a serial inline
// run of the whole range, which the determinism contract keeps
// bit-identical to the pooled execution.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace recdb {

/// What one ParallelFor invocation did (feeds ExecStats).
struct TaskRunStats {
  uint64_t tasks_spawned = 0;  // morsels executed
  double worker_time_ms = 0;   // summed busy time across participants
};

class TaskScheduler {
 public:
  /// `num_threads` is the total worker count including the calling thread;
  /// 1 (or 0) means fully serial with no pool threads.
  explicit TaskScheduler(size_t num_threads = 1);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Re-size the pool. Must not be called while a ParallelFor is running.
  void Resize(size_t num_threads);

  /// Morsel-driven parallel loop over [0, n): participants atomically claim
  /// ranges of `morsel` indices and invoke fn(begin, end). Blocks until the
  /// whole range is processed. fn runs concurrently on different morsels and
  /// must only write state private to its range.
  TaskRunStats ParallelFor(size_t n, size_t morsel,
                           const std::function<void(size_t, size_t)>& fn);

  /// Background lane (PR 7): enqueue a job on a single dedicated thread,
  /// independent of the morsel pool — re-freeze/merge work runs here while
  /// the pool keeps serving query parallelism. Jobs run one at a time in
  /// submission order; a background job may itself issue a root-level
  /// ParallelFor (it serializes on the same submit lock as foreground
  /// loops). The thread starts lazily on the first Submit.
  void Submit(std::function<void()> job);

  /// Block until the background queue is empty and no job is running.
  /// Jobs submitted after the drain begins are waited on too.
  void DrainBackground();

  /// Background-lane introspection (tests).
  size_t background_pending() const;

  /// Lifetime counters (shell \stats).
  uint64_t total_tasks() const {
    return total_tasks_.load(std::memory_order_relaxed);
  }
  double total_worker_ms() const {
    return static_cast<double>(
               total_worker_nanos_.load(std::memory_order_relaxed)) /
           1e6;
  }

  /// The process-wide scheduler the engine's hot paths use. Starts serial
  /// (1 thread) until `SET parallelism = N` / SetGlobalParallelism.
  static TaskScheduler& Global();
  static void SetGlobalParallelism(size_t num_threads);

 private:
  struct Job {
    size_t n = 0;
    size_t morsel = 1;
    const std::function<void(size_t, size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> worker_nanos{0};
  };

  void WorkerLoop();
  static void RunMorsels(Job* job);
  void StopWorkers();
  void StartWorkers();
  void BackgroundLoop();
  void StopBackground();

  std::mutex submit_mu_;  // serializes ParallelFor / Resize
  std::mutex mu_;         // guards job_, generation_, workers_active_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  size_t num_threads_ = 1;
  Job* job_ = nullptr;
  uint64_t generation_ = 0;
  size_t workers_active_ = 0;
  bool shutdown_ = false;
  std::atomic<uint64_t> total_tasks_{0};
  std::atomic<uint64_t> total_worker_nanos_{0};

  // Background lane: one dedicated thread, lazily started.
  mutable std::mutex bg_mu_;
  std::condition_variable bg_cv_;       // queue became non-empty / shutdown
  std::condition_variable bg_done_cv_;  // queue drained and worker idle
  std::deque<std::function<void()>> bg_queue_;
  std::thread bg_thread_;
  bool bg_started_ = false;
  bool bg_busy_ = false;
  bool bg_shutdown_ = false;
};

}  // namespace recdb
