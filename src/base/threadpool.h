#ifndef SDEA_BASE_THREADPOOL_H_
#define SDEA_BASE_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sdea::base {

/// A fixed-size worker pool with a chunked parallel-for. One pool is built
/// once and reused across calls; workers sleep between jobs.
///
/// Determinism contract: `ParallelFor(n, grain, fn)` partitions [0, n) into
/// contiguous chunks of at most `grain` indices and calls `fn(begin, end)`
/// once per chunk, on an unspecified thread. Which thread runs which chunk
/// is scheduling-dependent, but the chunk boundaries themselves are a pure
/// function of (n, grain). A caller whose `fn` (a) writes only to state
/// derived from its own [begin, end) range and (b) keeps the within-range
/// computation order identical to the serial loop therefore produces output
/// that is bitwise-identical for every thread count, including 1. All
/// parallelized kernels in this library are written against that contract,
/// and the contract is enforced by tests, not assumed.
class ThreadPool {
 public:
  /// Creates a pool that runs jobs on `num_threads` threads total: the
  /// calling thread participates, so `num_threads - 1` workers are spawned.
  /// `num_threads` must be >= 1; 1 means every ParallelFor runs inline.
  explicit ThreadPool(int num_threads);

  /// Joins all workers. The caller must ensure no ParallelFor is in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads used by ParallelFor (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Calls `fn(begin, end)` over consecutive chunks of [0, n) of at most
  /// `grain` (>= 1) indices each and blocks until every chunk has run.
  /// Runs inline on the calling thread when the pool has one thread, when
  /// n <= grain, or when called from inside another ParallelFor (nested
  /// parallelism degrades to serial rather than deadlocking). Concurrent
  /// ParallelFor calls from distinct external threads are serialized.
  void ParallelFor(int64_t n, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// The process-wide pool, built on first use with DefaultNumThreads().
  static ThreadPool* Global();

  /// Replaces the global pool with an `num_threads`-thread pool. Intended
  /// for tests and benchmarks; must not race with in-flight ParallelFors.
  static void SetGlobalNumThreads(int num_threads);

  /// Thread count the global pool starts with: SDEA_NUM_THREADS if set to a
  /// positive integer, else std::thread::hardware_concurrency() (min 1).
  static int DefaultNumThreads();

 private:
  void WorkerLoop();
  // Claims and runs chunks of the current job until none remain. `lock`
  // must hold `mu_` on entry and exit.
  void RunChunks(std::unique_lock<std::mutex>& lock);

  // Serializes whole ParallelFor calls from distinct external threads.
  std::mutex submit_mu_;

  // Guards all job state below plus generation_/shutdown_.
  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers wait here for a new job.
  std::condition_variable done_cv_;  // The submitter waits here for the end.
  const std::function<void(int64_t, int64_t)>* fn_ = nullptr;
  int64_t n_ = 0;
  int64_t grain_ = 1;
  int64_t num_chunks_ = 0;
  int64_t next_chunk_ = 0;
  int64_t done_chunks_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

/// ParallelFor on the global pool. A range of at most `grain` indices runs
/// inline on the calling thread before any std::function is built or the
/// global pool's mutex is taken, so small kernels (a [1 x 32] GRU step)
/// pay nothing for the pool.
template <typename Fn>
void ParallelFor(int64_t n, int64_t grain, Fn&& fn) {
  if (n <= 0) return;
  if (n <= grain) {
    fn(int64_t{0}, n);
    return;
  }
  ThreadPool::Global()->ParallelFor(
      n, grain, std::function<void(int64_t, int64_t)>(std::forward<Fn>(fn)));
}

/// Suggests a grain for `items` units of `work_per_item` scalar operations
/// each, sized so one chunk amortizes scheduling overhead (~32k operations).
/// Returns a value in [1, max(items, 1)]; feeding it to ParallelFor keeps
/// small problems on the calling thread automatically.
int64_t GrainForWork(int64_t items, int64_t work_per_item);

}  // namespace sdea::base

#endif  // SDEA_BASE_THREADPOOL_H_
