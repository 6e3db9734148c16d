#include "util/thread_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace cpr {
namespace {

// Which worker of which pool the current thread is; unset on non-pool
// threads. Lets push() use the local deque and try_pop() know whom to
// steal for.
thread_local ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker = static_cast<std::size_t>(-1);

// The process-wide pool, built on first use. A forked child inherits the
// pointer but none of the worker threads, and possibly a queue mutex or
// the wake condition variable in mid-use by one of them: a push there
// can block forever. The atfork handler drops the pointer in the child,
// so its first global() call builds a fresh pool; the parent's copy is
// leaked, as destroying it would join threads the child does not have.
std::atomic<ThreadPool*> g_global{nullptr};

void forget_global_pool() {
  g_global.store(nullptr, std::memory_order_relaxed);
}

const int g_atfork_registered =
    ::pthread_atfork(nullptr, nullptr, &forget_global_pool);

std::size_t global_thread_count() {
  if (const char* env = std::getenv("CPR_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::push(std::function<void()> task) {
  if (tls_pool == this) {
    WorkerQueue& q = *queues_[tls_worker];
    std::lock_guard<std::mutex> lock(q.mutex);
    q.deque.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    injection_.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    pushes_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_one();
}

bool ThreadPool::try_pop(std::size_t worker, std::function<void()>& out) {
  {  // Own deque, back first (LIFO keeps nested work hot).
    WorkerQueue& q = *queues_[worker];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.deque.empty()) {
      out = std::move(q.deque.back());
      q.deque.pop_back();
      return true;
    }
  }
  {  // Injection queue, FIFO.
    std::lock_guard<std::mutex> lock(injection_mutex_);
    if (!injection_.empty()) {
      out = std::move(injection_.front());
      injection_.pop_front();
      return true;
    }
  }
  // Steal from the front of a victim's deque (the oldest task is likely
  // the largest remaining piece of work).
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    WorkerQueue& q = *queues_[(worker + k) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.deque.empty()) {
      out = std::move(q.deque.front());
      q.deque.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_worker = index;
  std::function<void()> task;
  for (;;) {
    const std::uint64_t seen = pushes_.load(std::memory_order_acquire);
    if (try_pop(index, task)) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (stopping_) {
      // Drain anything pushed between the failed try_pop above and the
      // stop flag: every task submitted before the destructor runs.
      lock.unlock();
      while (try_pop(index, task)) {
        task();
        task = nullptr;
      }
      return;
    }
    // A push after `seen` was read may have landed in a queue the scan
    // had already passed; its count bump (under this mutex) either
    // precedes this check or wakes the wait.
    wake_.wait(lock, [&] {
      return stopping_ || pushes_.load(std::memory_order_relaxed) != seen;
    });
  }
}

ThreadPool& ThreadPool::global() {
  ThreadPool* pool = g_global.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  auto fresh = std::make_unique<ThreadPool>(global_thread_count());
  if (g_global.compare_exchange_strong(pool, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    return *fresh.release();  // leaked: must outlive static dtors
  }
  return *pool;  // lost a first-use race; `fresh` joins its workers
}

void parallel_for_impl(
    ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t total = end - begin;
  const std::size_t chunks = (total + grain - 1) / grain;

  struct State {
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::size_t chunks = 0;
    std::mutex mutex;
    std::condition_variable all_done;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->chunks = chunks;

  // Chunk executor shared by the caller and the pool helpers. `body` is
  // captured by reference: any drain() that claims a chunk (cursor <
  // chunks) implies the caller is still blocked below, so the reference is
  // alive; stale helpers that start after completion bail on the first
  // cursor check without touching it.
  auto drain = [state, begin, end, grain, &body]() {
    for (;;) {
      const std::size_t c =
          state->cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= state->chunks) return;
      if (!state->failed.load(std::memory_order_acquire)) {
        const std::size_t lo = begin + c * grain;
        const std::size_t hi = std::min(end, lo + grain);
        try {
          body(lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
          state->failed.store(true, std::memory_order_release);
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->chunks) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->all_done.notify_all();
      }
    }
  };

  // One helper per worker is enough: each drains chunks until the cursor
  // runs out. The caller drains too, so progress never depends on the pool
  // actually scheduling the helpers (nested calls, single-thread pools).
  const std::size_t helpers = std::min(pool.thread_count(), chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) pool.push(drain);
  drain();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) >= state->chunks;
  });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace cpr
