// The work-stealing pool and parallel_for: startup/shutdown hygiene,
// exception propagation from tasks and loop bodies, nesting safety, and a
// stress run with 10k tiny tasks. These are the properties every parallel
// construction in the library leans on.
#include "util/random.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cpr {
namespace {

TEST(ThreadPool, StartsRequestedThreadsAndShutsDownCleanly) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    // Destructor joins with no work submitted.
  }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmittedTasksRunAndReturnValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.push([&ran] { ran.fetch_add(1); });
    }
    // Destructor must execute everything submitted before it.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, TaskExceptionArrivesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(pool, 5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, BodyExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 1000,
                   [](std::size_t i) {
                     if (i == 137) throw std::logic_error("body failed");
                   }),
      std::logic_error);
  // Pool remains usable afterwards.
  std::atomic<int> ok{0};
  parallel_for(pool, 0, 10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ParallelFor, NestedLoopsMakeProgress) {
  // An inner parallel_for issued from worker context must complete even
  // when every worker is tied up in the outer loop — the caller
  // participates in chunk execution, so nesting cannot deadlock.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> cells(32 * 32);
  parallel_for(pool, 0, 32, [&](std::size_t row) {
    parallel_for(pool, 0, 32, [&](std::size_t col) {
      cells[row * 32 + col].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].load(), 1) << "cell=" << i;
  }
}

TEST(ParallelFor, WorksOnSingleThreadPool) {
  ThreadPool pool(1);
  std::vector<int> out(256, 0);
  parallel_for(pool, 0, out.size(),
               [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelForBlocks, ChunksPartitionTheRange) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  parallel_for_blocks(pool, 10, 1000, 64,
                      [&](std::size_t lo, std::size_t hi) {
                        std::lock_guard<std::mutex> lock(mutex);
                        blocks.push_back({lo, hi});
                      });
  std::sort(blocks.begin(), blocks.end());
  std::size_t expect_lo = 10;
  for (const auto& [lo, hi] : blocks) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LE(hi - lo, 64u);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 1000u);
}

TEST(ThreadPoolStress, TenThousandTinyTasks) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(10000);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i + 1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 10000ull * 10001ull / 2);
}

TEST(ThreadPoolStress, ManyConcurrentParallelFors) {
  // Several caller threads sharing one pool, each running its own
  // parallel_for — the cross-thread submit/steal paths under contention.
  ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::vector<std::atomic<std::size_t>> totals(4);
  for (std::size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &totals, c] {
      for (int round = 0; round < 10; ++round) {
        std::atomic<std::size_t> local{0};
        parallel_for(pool, 0, 500,
                     [&](std::size_t) { local.fetch_add(1); });
        totals[c].fetch_add(local.load());
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(totals[c].load(), 500u * 10);
  }
}

#if !defined(__SANITIZE_THREAD__)
// A forked child has none of the parent's workers, and may inherit one
// of their locks or the wake condition variable in mid-use, so a push
// to the parent's pool can block forever there. global() must hand the
// child a pool of its own. A hung child dies by SIGALRM.
TEST(ThreadPoolFork, ForkedChildGetsItsOwnGlobalPool) {
  ThreadPool& parent = ThreadPool::global();
  std::atomic<std::size_t> warm{0};
  parallel_for(parent, 0, 64, [&](std::size_t) { warm.fetch_add(1); });
  for (int round = 0; round < 20; ++round) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      ::alarm(10);
      ThreadPool& child = ThreadPool::global();
      std::atomic<std::size_t> done{0};
      parallel_for(child, 0, 1000, [&](std::size_t) { done.fetch_add(1); });
      ::_exit(&child != &parent && done.load() == 1000 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "child hung or crashed in round " << round << " (status "
        << status << ")";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "round " << round;
  }
}
#endif

TEST(Rng, ForkIsDeterministicAndScheduleIndependent) {
  Rng a(42), b(42);
  // Consuming the parent must not change what the children see.
  (void)a.uniform(0, 1000);
  for (std::uint64_t stream = 0; stream < 16; ++stream) {
    Rng ca = a.fork(stream);
    Rng cb = b.fork(stream);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(ca.uniform(0, 1 << 30), cb.uniform(0, 1 << 30));
    }
  }
  // Distinct streams diverge.
  Rng c0 = a.fork(0), c1 = a.fork(1);
  bool differs = false;
  for (int i = 0; i < 8; ++i) {
    differs |= c0.uniform(0, 1 << 30) != c1.uniform(0, 1 << 30);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace cpr
