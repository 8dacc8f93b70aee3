#include "qfc/parallel/worker_pool.hpp"

#include <array>
#include <string>

#include "qfc/obs/obs.hpp"

namespace qfc::parallel {

namespace {

// Busy-ns counter for one pool thread; resolved once per thread (the
// registry lookup allocates) and reused across every round it works.
obs::Counter& busy_counter(unsigned worker_index) {
  static constexpr unsigned kCached = 32;
  static std::array<obs::Counter*, kCached> cache{};
  static std::mutex mu;
  if (worker_index < kCached) {
    std::lock_guard<std::mutex> lock(mu);
    if (cache[worker_index] == nullptr)
      cache[worker_index] = &obs::counter("parallel.worker_busy_ns." +
                                          std::to_string(worker_index));
    return *cache[worker_index];
  }
  return obs::counter("parallel.worker_busy_ns." + std::to_string(worker_index));
}

}  // namespace

WorkerPool::WorkerPool(unsigned num_threads) {
  const unsigned spawned = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(spawned);
  for (unsigned t = 0; t < spawned; ++t)
    workers_.emplace_back([this, t] { worker_loop(t + 1); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void WorkerPool::claim_tasks() {
  for (std::size_t i = next_task_.fetch_add(1, std::memory_order_relaxed);
       i < num_tasks_; i = next_task_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*fn_)(i);
    } catch (...) {
      if (!failed_.exchange(true)) error_ = std::current_exception();
    }
  }
}

void WorkerPool::worker_loop(unsigned worker_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
    }
    if (obs::enabled()) {
      QFC_OBS_SPAN("pool.work", {{"worker", worker_index}});
      const std::uint64_t t0 = obs::detail::now_ns();
      claim_tasks();
      busy_counter(worker_index).add(obs::detail::now_ns() - t0);
    } else {
      claim_tasks();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--busy_workers_ == 0) cv_done_.notify_one();
    }
  }
}

void WorkerPool::run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    if (obs::enabled()) {
      QFC_OBS_SPAN("pool.run", {{"tasks", num_tasks}, {"inline", 1}});
      obs::counter("parallel.rounds").increment();
      obs::counter("parallel.tasks").add(num_tasks);
      const std::uint64_t t0 = obs::detail::now_ns();
      for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
      busy_counter(0).add(obs::detail::now_ns() - t0);
    } else {
      for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
    }
    return;
  }

  // One fork/join round at a time; concurrent callers queue here.
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  QFC_OBS_SPAN("pool.run", {{"tasks", num_tasks}});
  const bool instrumented = obs::enabled();
  if (instrumented) {
    obs::counter("parallel.rounds").increment();
    obs::counter("parallel.tasks").add(num_tasks);
    obs::gauge("parallel.queue_depth").set(static_cast<long long>(num_tasks));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    num_tasks_ = num_tasks;
    fn_ = &fn;
    next_task_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    busy_workers_ = workers_.size();
    ++generation_;
  }
  cv_start_.notify_all();

  if (instrumented) {
    const std::uint64_t t0 = obs::detail::now_ns();
    claim_tasks();
    busy_counter(0).add(obs::detail::now_ns() - t0);
  } else {
    claim_tasks();
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return busy_workers_ == 0; });
    fn_ = nullptr;
  }
  if (instrumented) obs::gauge("parallel.queue_depth").set(0);
  if (error_) std::rethrow_exception(error_);
}

}  // namespace qfc::parallel
