#include "common/task_scheduler.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/metrics.h"

namespace recdb {

namespace {
// True while this thread is inside a ParallelFor morsel (or an inline
// fallback). A ParallelFor issued from such a context must not touch
// submit_mu_ — the owning loop already holds it — so it degrades to a
// serial inline run instead of deadlocking. Bit-identity is unaffected:
// the determinism contract requires every loop body to produce the same
// result under any morselization, including one morsel on one thread.
thread_local bool tls_in_parallel_for = false;

struct ScopedInParallelFor {
  bool prev = tls_in_parallel_for;
  ScopedInParallelFor() { tls_in_parallel_for = true; }
  ~ScopedInParallelFor() { tls_in_parallel_for = prev; }
};
}  // namespace

TaskScheduler::TaskScheduler(size_t num_threads)
    : num_threads_(std::max<size_t>(num_threads, 1)) {
  StartWorkers();
}

TaskScheduler::~TaskScheduler() {
  // The background thread may issue ParallelFor, so it must die before the
  // morsel pool does.
  StopBackground();
  StopWorkers();
}

void TaskScheduler::StartWorkers() {
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  obs::SetGauge(obs::Gauge::kSchedulerThreads,
                static_cast<int64_t>(num_threads_));
}

void TaskScheduler::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = false;
  }
}

void TaskScheduler::Resize(size_t num_threads) {
  num_threads = std::max<size_t>(num_threads, 1);
  std::lock_guard<std::mutex> submit(submit_mu_);
  if (num_threads == num_threads_) return;
  StopWorkers();
  num_threads_ = num_threads;
  StartWorkers();
}

void TaskScheduler::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
      if (job == nullptr) continue;  // woke after the job already drained
      ++workers_active_;
    }
    RunMorsels(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_active_;
      if (workers_active_ == 0) done_cv_.notify_all();
    }
  }
}

void TaskScheduler::RunMorsels(Job* job) {
  ScopedInParallelFor scope;
  Stopwatch watch;
  uint64_t tasks = 0;
  while (true) {
    size_t begin = job->next.fetch_add(job->morsel, std::memory_order_relaxed);
    if (begin >= job->n) {
      obs::SetGauge(obs::Gauge::kSchedulerQueueDepth, 0);
      break;
    }
    size_t end = std::min(begin + job->morsel, job->n);
    // Morsels nobody has claimed yet; last-writer-wins across workers is
    // fine for a depth gauge.
    obs::SetGauge(obs::Gauge::kSchedulerQueueDepth,
                  static_cast<int64_t>((job->n - end + job->morsel - 1) /
                                       job->morsel));
    (*job->fn)(begin, end);
    ++tasks;
  }
  if (tasks > 0) {
    job->tasks.fetch_add(tasks, std::memory_order_relaxed);
    job->worker_nanos.fetch_add(
        static_cast<uint64_t>(watch.ElapsedSeconds() * 1e9),
        std::memory_order_relaxed);
  }
}

TaskRunStats TaskScheduler::ParallelFor(
    size_t n, size_t morsel, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return {};
  if (morsel == 0) morsel = 1;
  // Nested (same thread, from inside a morsel) or contended (another loop
  // holds the pool) ParallelFor runs inline serially instead of queueing:
  // concurrent sessions scoring at parallelism > 1 land here, as does a
  // loop whose morsel body parallelizes again. Serial inline execution is
  // bit-identical by the determinism contract, and never deadlocks against
  // a lock held by whoever owns the pool right now.
  std::unique_lock<std::mutex> submit(submit_mu_, std::defer_lock);
  if (tls_in_parallel_for || !submit.try_lock()) {
    ScopedInParallelFor scope;
    Stopwatch watch;
    fn(0, n);
    TaskRunStats out;
    out.tasks_spawned = 1;
    out.worker_time_ms = watch.ElapsedSeconds() * 1e3;
    total_tasks_.fetch_add(1, std::memory_order_relaxed);
    total_worker_nanos_.fetch_add(
        static_cast<uint64_t>(out.worker_time_ms * 1e6),
        std::memory_order_relaxed);
    obs::Count(obs::Counter::kSchedulerLoops);
    obs::Count(obs::Counter::kSchedulerTasksSpawned, 1);
    obs::Count(obs::Counter::kSchedulerWorkerBusyUs,
               static_cast<uint64_t>(out.worker_time_ms * 1e3));
    return out;
  }
  Job job;
  job.n = n;
  job.morsel = morsel;
  job.fn = &fn;
  if (workers_.empty() || n <= morsel) {
    // Serial (or single-morsel) fast path: run on the caller, no wakeups.
    RunMorsels(&job);
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++generation_;
    }
    work_cv_.notify_all();
    RunMorsels(&job);  // the caller is a worker too
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;  // late wakers must not touch the (stack) job
    done_cv_.wait(lock, [&] { return workers_active_ == 0; });
  }
  TaskRunStats out;
  out.tasks_spawned = job.tasks.load(std::memory_order_relaxed);
  out.worker_time_ms =
      static_cast<double>(job.worker_nanos.load(std::memory_order_relaxed)) /
      1e6;
  total_tasks_.fetch_add(out.tasks_spawned, std::memory_order_relaxed);
  total_worker_nanos_.fetch_add(
      job.worker_nanos.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  obs::Count(obs::Counter::kSchedulerLoops);
  obs::Count(obs::Counter::kSchedulerTasksSpawned, out.tasks_spawned);
  obs::Count(obs::Counter::kSchedulerWorkerBusyUs,
             job.worker_nanos.load(std::memory_order_relaxed) / 1000);
  return out;
}

void TaskScheduler::Submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (bg_shutdown_) return;
    if (!bg_started_) {
      bg_thread_ = std::thread([this] { BackgroundLoop(); });
      bg_started_ = true;
    }
    bg_queue_.push_back(std::move(job));
  }
  bg_cv_.notify_one();
}

void TaskScheduler::BackgroundLoop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (true) {
    bg_cv_.wait(lock, [&] { return bg_shutdown_ || !bg_queue_.empty(); });
    if (bg_shutdown_) return;  // queued jobs are dropped at shutdown
    std::function<void()> job = std::move(bg_queue_.front());
    bg_queue_.pop_front();
    bg_busy_ = true;
    lock.unlock();
    job();
    lock.lock();
    bg_busy_ = false;
    if (bg_queue_.empty()) bg_done_cv_.notify_all();
  }
}

void TaskScheduler::DrainBackground() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  bg_done_cv_.wait(lock, [&] { return bg_queue_.empty() && !bg_busy_; });
}

size_t TaskScheduler::background_pending() const {
  std::lock_guard<std::mutex> lock(bg_mu_);
  return bg_queue_.size() + (bg_busy_ ? 1 : 0);
}

void TaskScheduler::StopBackground() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_shutdown_ = true;
  }
  bg_cv_.notify_all();
  if (bg_thread_.joinable()) bg_thread_.join();
  {
    // Drop undrained jobs so a late DrainBackground cannot wait forever.
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_queue_.clear();
  }
  bg_done_cv_.notify_all();
}

TaskScheduler& TaskScheduler::Global() {
  // Intentionally leaked: pool threads must never outlive the scheduler, and
  // static destruction order across translation units cannot guarantee that.
  static TaskScheduler* global = new TaskScheduler(1);
  return *global;
}

void TaskScheduler::SetGlobalParallelism(size_t num_threads) {
  Global().Resize(num_threads);
}

}  // namespace recdb
