#include "base/threadpool.h"

#include <algorithm>
#include <cstdlib>

#include "base/check.h"

namespace sdea::base {
namespace {

// True on any thread currently executing inside a ParallelFor body (worker
// or submitter). Nested ParallelFor calls detect this and run inline, so a
// kernel that is itself parallelized can safely call another one.
thread_local bool t_inside_parallel_for = false;

std::mutex g_global_mu;
ThreadPool* g_global_pool = nullptr;  // Leaked on purpose (process-lifetime).

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  SDEA_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || generation_ != seen_generation;
    });
    if (shutdown_) return;
    seen_generation = generation_;
    t_inside_parallel_for = true;
    RunChunks(lock);
    t_inside_parallel_for = false;
  }
}

void ThreadPool::RunChunks(std::unique_lock<std::mutex>& lock) {
  while (next_chunk_ < num_chunks_) {
    const int64_t chunk = next_chunk_++;
    const auto* fn = fn_;
    const int64_t begin = chunk * grain_;
    const int64_t end = std::min(n_, begin + grain_);
    lock.unlock();
    (*fn)(begin, end);
    lock.lock();
    if (++done_chunks_ == num_chunks_) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(int64_t n, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  SDEA_CHECK_GE(grain, 1);
  if (workers_.empty() || n <= grain || t_inside_parallel_for) {
    fn(0, n);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  n_ = n;
  grain_ = grain;
  num_chunks_ = (n + grain - 1) / grain;
  next_chunk_ = 0;
  done_chunks_ = 0;
  ++generation_;
  work_cv_.notify_all();
  // The submitting thread works too, then waits for stragglers.
  t_inside_parallel_for = true;
  RunChunks(lock);
  t_inside_parallel_for = false;
  done_cv_.wait(lock, [&] { return done_chunks_ == num_chunks_; });
  fn_ = nullptr;
}

ThreadPool* ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool == nullptr) {
    g_global_pool = new ThreadPool(DefaultNumThreads());
  }
  return g_global_pool;
}

void ThreadPool::SetGlobalNumThreads(int num_threads) {
  SDEA_CHECK_GE(num_threads, 1);
  std::lock_guard<std::mutex> lock(g_global_mu);
  delete g_global_pool;
  g_global_pool = new ThreadPool(num_threads);
}

int ThreadPool::DefaultNumThreads() {
  if (const char* env = std::getenv("SDEA_NUM_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int64_t GrainForWork(int64_t items, int64_t work_per_item) {
  constexpr int64_t kOpsPerChunk = 1 << 15;
  const int64_t grain = kOpsPerChunk / std::max<int64_t>(1, work_per_item) + 1;
  return std::clamp<int64_t>(grain, 1, std::max<int64_t>(items, 1));
}

}  // namespace sdea::base
