// Tests for the shared qfc::parallel module: WorkerPool task execution,
// exception propagation and round reuse, which the two pool owners (the
// sweep runner and detect::EventStreamer) lean on.

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/parallel/worker_pool.hpp"

namespace {

using qfc::parallel::WorkerPool;

TEST(WorkerPool, SizeCountsTheCaller) {
  EXPECT_EQ(WorkerPool(1).size(), 1u);
  EXPECT_EQ(WorkerPool(4).size(), 4u);
  // 0 is treated like 1: nothing spawned, everything runs inline.
  EXPECT_EQ(WorkerPool(0).size(), 1u);
}

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  for (const unsigned threads : {1u, 3u, 8u}) {
    WorkerPool pool(threads);
    const std::size_t n = 257;  // not a multiple of any worker count
    std::vector<int> hits(n, 0);
    pool.run(n, [&](std::size_t i) { ++hits[i]; });  // disjoint slots per task
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i], 1) << "task " << i << " with " << threads << " threads";
  }
}

TEST(WorkerPool, ZeroTasksIsANoOp) {
  WorkerPool pool(3);
  pool.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(WorkerPool, ReusableAcrossManyRounds) {
  // The pool is built for thousands of small fork/join rounds (Jacobi
  // sweeps); hammer the handshake path.
  WorkerPool pool(4);
  std::atomic<std::size_t> total{0};
  const std::size_t rounds = 500, tasks = 7;
  for (std::size_t r = 0; r < rounds; ++r)
    pool.run(tasks, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(total.load(), rounds * tasks);
}

TEST(WorkerPool, FirstExceptionPropagatesAndPoolSurvives) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.run(16,
                        [](std::size_t i) {
                          if (i % 2 == 1) throw std::runtime_error("task failed");
                        }),
               std::runtime_error);
  // The round drained and the pool is still usable.
  std::atomic<int> ok{0};
  pool.run(8, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 8);
}

}  // namespace
