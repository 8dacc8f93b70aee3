#pragma once

/// \file worker_pool.hpp
/// Persistent worker pool of the library's two threaded layers: the sweep
/// runner across scenario instances and detect::EventStreamer across comb
/// channel pairs. A pool is created once and reused across many fork/join
/// rounds, so dispatch must be cheap: one mutex/condvar handshake per
/// round, tasks claimed via an atomic counter.
///
/// Determinism contract: the pool itself guarantees nothing about ordering —
/// callers must split work into tasks that write disjoint data and read only
/// data no other task of the same round writes (or merge per-task partial
/// results in a fixed task order after the join). Under that discipline the
/// task-to-thread assignment cannot change any floating-point operation
/// order, so results are bitwise identical for every pool size. See
/// src/qfc/parallel/README.md for the contract and the pool-ownership map.
///
/// Instrumentation (qfc/obs/obs.hpp): when obs is enabled the pool records a
/// "pool.run" span per round on the caller, a "pool.work" span per worker
/// participation, per-thread busy nanoseconds under
/// `parallel.worker_busy_ns.<index>` (index 0 = the calling thread), a
/// `parallel.queue_depth` gauge, and `parallel.rounds`/`parallel.tasks`
/// counters. All of it sits behind one relaxed atomic branch when disabled
/// and touches no task data, so the determinism contract is unaffected.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qfc::parallel {

class WorkerPool {
 public:
  /// `num_threads` counts the calling thread too: a pool of size 1 runs
  /// everything inline and spawns nothing.
  explicit WorkerPool(unsigned num_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total threads that execute tasks (workers + the caller).
  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run fn(task_index) for every task_index in [0, num_tasks); the calling
  /// thread participates. Blocks until all tasks finished. The first
  /// exception thrown by any task is rethrown here after the round drains.
  /// Concurrent run() calls from different threads serialize on an internal
  /// mutex (correct, just not parallel); run() from inside a task deadlocks.
  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(unsigned worker_index);
  void claim_tasks();

  std::vector<std::thread> workers_;
  std::mutex run_mutex_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::size_t num_tasks_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::size_t> next_task_{0};
  std::size_t busy_workers_ = 0;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  bool stop_ = false;
};

/// Deterministic chunked parallel-for: splits [0, n) into contiguous chunks
/// of at most `chunk_size` and runs fn(chunk_index, begin, end) for each on
/// the pool. Chunk boundaries depend only on (n, chunk_size) — never on the
/// pool size — so a caller whose chunks write disjoint data (or that merges
/// per-chunk partial results in chunk order) is bitwise invariant across
/// worker counts for free.
void parallel_for_chunks(WorkerPool& pool, std::size_t n, std::size_t chunk_size,
                         const std::function<void(std::size_t chunk, std::size_t begin,
                                                  std::size_t end)>& fn);

}  // namespace qfc::parallel
