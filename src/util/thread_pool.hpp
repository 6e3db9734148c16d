// Work-stealing thread pool and deterministic parallel-for.
//
// The constructions in this library are embarrassingly parallel — per-root
// policy-Dijkstra runs, per-node ball/cluster scans, per-query route
// simulations — so a single shared pool with per-worker deques (owner
// pushes/pops at the back, thieves steal from the front) covers all of
// them. Two design rules keep parallel construction *bit-identical* to the
// sequential one regardless of thread count, which the determinism tests
// pin:
//
//   1. Parallel loops only ever write to disjoint, pre-sized output slots
//      indexed by the loop variable; scheduling order is irrelevant.
//   2. Reductions happen on the calling thread after the loop, in index
//      order (ordered reduction), never via shared accumulators.
//
// Randomness is never drawn inside a parallel region; tasks that need it
// take a per-task Rng forked from the master seed (Rng::fork), so the
// stream consumed by task i is a pure function of (seed, i).
//
// parallel_for is nesting-safe: the calling thread participates in
// executing chunks, so an inner parallel_for issued from a worker makes
// progress even if every other worker is busy — no deadlock, and a pool
// with zero threads degrades to plain sequential execution.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cpr {

class ThreadPool {
 public:
  // threads == 0 asks for hardware_concurrency (at least 1 worker).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  // Schedules a task; the future carries the result or the exception the
  // task threw. Called from a worker thread, the task lands on that
  // worker's own deque (LIFO for locality); otherwise on the injection
  // queue.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    push([task]() { (*task)(); });
    return future;
  }

  // The process-wide pool used when callers do not pass one explicitly.
  // Sized from the CPR_THREADS environment variable when set, else
  // hardware_concurrency. A forked child gets a fresh pool on its first
  // call; the parent's workers do not exist there.
  static ThreadPool& global();

  // Fire-and-forget variant of submit (no future, no result).
  void push(std::function<void()> task);

 private:
  // Pops one task for `worker` (own deque → injection queue → steal).
  bool try_pop(std::size_t worker, std::function<void()>& out);
  void worker_loop(std::size_t index);

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> deque;
  };

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex injection_mutex_;
  std::deque<std::function<void()>> injection_;

  std::mutex sleep_mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  // Tasks pushed so far. Bumped under sleep_mutex_ after every enqueue,
  // read by a worker before it scans the queues: an idle worker sleeps
  // only while the count still equals what it read, so it never misses
  // a push and never polls.
  std::atomic<std::uint64_t> pushes_{0};
};

// Runs f(i) for i in [begin, end). The range is split into chunks of
// `grain` indices handed out through an atomic cursor; the caller executes
// chunks too and returns only when every index has been processed. The
// first exception thrown by any f(i) is rethrown on the caller (further
// chunks are abandoned, in-flight ones drain). Output must be written to
// disjoint slots for determinism — see the header comment.
void parallel_for_impl(ThreadPool& pool, std::size_t begin, std::size_t end,
                       std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>& body);

template <typename F>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, F&& f,
                  std::size_t grain = 1) {
  const auto body = [&f](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
  };
  parallel_for_impl(pool, begin, end, grain, body);
}

// Block variant: f(lo, hi) receives whole chunks, so per-chunk scratch
// state (arenas, header caches) amortizes across `grain` iterations.
template <typename F>
void parallel_for_blocks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         std::size_t grain, F&& f) {
  parallel_for_impl(pool, begin, end, grain,
                    [&f](std::size_t lo, std::size_t hi) { f(lo, hi); });
}

}  // namespace cpr
