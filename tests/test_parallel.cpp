// Tests for the shared qfc::parallel module: WorkerPool task execution,
// exception propagation, round reuse, and the deterministic
// parallel_for_chunks boundaries the two pool owners (the sweep runner and
// detect::EventStreamer) lean on.

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/parallel/worker_pool.hpp"

namespace {

using qfc::parallel::parallel_for_chunks;
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

TEST(ParallelForChunks, CoversTheRangeWithFixedBoundaries) {
  // Boundaries must depend only on (n, chunk_size), never on the pool size
  // — that independence is what the determinism contract builds on.
  for (const unsigned threads : {1u, 4u}) {
    WorkerPool pool(threads);
    std::mutex m;
    std::vector<std::array<std::size_t, 3>> seen;
    parallel_for_chunks(pool, 10, 3,
                        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                          std::lock_guard<std::mutex> lock(m);
                          seen.push_back({chunk, begin, end});
                        });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 4u) << threads << " threads";
    EXPECT_EQ(seen[0], (std::array<std::size_t, 3>{0, 0, 3}));
    EXPECT_EQ(seen[1], (std::array<std::size_t, 3>{1, 3, 6}));
    EXPECT_EQ(seen[2], (std::array<std::size_t, 3>{2, 6, 9}));
    EXPECT_EQ(seen[3], (std::array<std::size_t, 3>{3, 9, 10}));
  }
}

TEST(ParallelForChunks, DisjointChunkSumMatchesSerial) {
  WorkerPool pool(4);
  const std::size_t n = 100000;
  std::vector<double> out(n, 0.0);
  parallel_for_chunks(pool, n, 4096,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                          out[i] = static_cast<double>(i) * 0.5;
                      });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * static_cast<double>(n) * static_cast<double>(n - 1) / 2.0);
}

TEST(ParallelForChunks, ValidatesArguments) {
  WorkerPool pool(2);
  EXPECT_THROW(parallel_for_chunks(pool, 10, 0, [](std::size_t, std::size_t, std::size_t) {}),
               std::invalid_argument);
  // n == 0 is a no-op, not an error.
  parallel_for_chunks(pool, 0, 8, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "no chunk should run";
  });
}

}  // namespace
