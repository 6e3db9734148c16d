// Shared test scaffolding: the seeded random-graph corpus, algebra weight
// fixtures, and path-weight comparators that the scheme/solver tests keep
// needing. Everything is a pure function of the seeds passed in, so test
// cases stay reproducible and the parallel-determinism harness can rebuild
// byte-identical instances at will.
#pragma once

#include "algebra/algebra.hpp"
#include "fib/forward_engine.hpp"
#include "graph/generators.hpp"
#include "routing/path.hpp"
#include "routing/shortest_widest.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace cpr::test {

// Every edge id of g in id order — the "whole graph is the tree" input of
// the tree-router tests.
inline std::vector<EdgeId> all_edges(const Graph& g) {
  std::vector<EdgeId> e(g.edge_count());
  std::iota(e.begin(), e.end(), EdgeId{0});
  return e;
}

// One alg-sampled weight per edge, drawn in edge-id order.
template <RoutingAlgebra A>
EdgeMap<typename A::Weight> sampled_weights(const A& alg, const Graph& g,
                                            Rng& rng) {
  EdgeMap<typename A::Weight> w(g.edge_count());
  for (auto& x : w) x = alg.sample(rng);
  return w;
}

// Integer weights in [lo, hi], in edge-id order.
inline EdgeMap<std::uint64_t> integer_weights(const Graph& g, Rng& rng,
                                              std::uint64_t lo,
                                              std::uint64_t hi) {
  EdgeMap<std::uint64_t> w(g.edge_count());
  for (auto& x : w) x = rng.uniform(lo, hi);
  return w;
}

// Shortest-widest fixtures: {capacity in [1, cap_max], cost in
// [1, cost_max]} per edge. Small ranges on purpose — ties are where SW
// solvers go wrong.
inline EdgeMap<ShortestWidest::Weight> random_sw_weights(
    const Graph& g, Rng& rng, std::uint64_t cap_max = 5,
    std::uint64_t cost_max = 9) {
  EdgeMap<ShortestWidest::Weight> w(g.edge_count());
  for (auto& x : w) {
    x = {rng.uniform(1, cap_max), rng.uniform(1, cost_max)};
  }
  return w;
}

// A seeded instance of the random-graph corpus: connected G(n, p) plus
// alg-sampled edge weights, all drawn from Rng(seed). The returned rng has
// consumed exactly the graph + weights, matching the historical pattern
// where scheme construction continues on the same stream.
template <RoutingAlgebra A>
struct SeededInstance {
  Rng rng;
  Graph graph;
  EdgeMap<typename A::Weight> weights;
};

template <RoutingAlgebra A>
SeededInstance<A> seeded_instance(const A& alg, std::uint64_t seed,
                                  std::size_t n, double p) {
  SeededInstance<A> inst{Rng(seed), Graph{}, {}};
  inst.graph = erdos_renyi_connected(n, p, inst.rng);
  inst.weights = sampled_weights(alg, inst.graph, inst.rng);
  return inst;
}

// ---- Forwarding-plane differential helpers ----

// Every (source, target) pair over n nodes in row-major order — the
// exhaustive query batch the forwarding differentials run.
inline std::vector<std::pair<NodeId, NodeId>> all_pairs(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> q;
  q.reserve(n * n);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) q.emplace_back(s, t);
  }
  return q;
}

// FNV-1a over the complete batch output: result flags and the full
// recorded walks. Two batches hash equal iff they serve identically.
inline std::uint64_t batch_hash(const FibBatchOutput& out) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const FibRouteResult& r = out.results[i];
    mix(r.delivered);
    mix(r.looped);
    const auto path = out.path(i);
    mix(path.size());
    for (const NodeId v : path) mix(v);
  }
  return h;
}

// Legality-window check (test_serving_seqlock.cpp's contract, shared by
// the cross-process patch-channel harness): a batch bracketed by
// generation counters lo/hi is legal iff its hash equals one of the
// fresh-compile hashes expected[lo..hi] (hi clamped to the corpus).
inline bool hash_in_window(const std::vector<std::uint64_t>& expected,
                           std::uint64_t h, std::size_t lo, std::size_t hi) {
  for (std::size_t j = lo; j <= hi && j < expected.size(); ++j) {
    if (expected[j] == h) return true;
  }
  return false;
}

// A progress counter a forked reader parks here when it exits: it
// compares above every real count, so a writer pacing on it stops
// waiting, and wait_for_progress returns at once for a `seen` this high.
inline constexpr std::size_t kProgressExited =
    std::numeric_limits<std::size_t>::max() / 2;

// Paces a test's writer on its readers: returns true once `counter` has
// moved past `seen`, i.e. after at least one more completed read, and
// false after a minute without progress. A caller that sees false stops
// pacing and fails, naming the stalled counter: waiting again would
// only add another minute per remaining step.
[[nodiscard]] inline bool wait_for_progress(
    const std::atomic<std::size_t>& counter, std::size_t seen) {
  if (seen >= kProgressExited) return true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (counter.load(std::memory_order_acquire) <= seen) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

// Control words for the fork-based suites: one T in an anonymous
// MAP_SHARED mapping, so the parent and every child forked after
// construction see the same lock-free atomics.
template <typename T>
class SharedControl {
 public:
  SharedControl() {
    void* p = ::mmap(nullptr, sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("SharedControl: mmap failed");
    ptr_ = new (p) T();
  }
  ~SharedControl() {
    ptr_->~T();
    ::munmap(ptr_, sizeof(T));
  }
  SharedControl(const SharedControl&) = delete;
  SharedControl& operator=(const SharedControl&) = delete;
  T& operator*() const { return *ptr_; }
  T* operator->() const { return ptr_; }

 private:
  T* ptr_ = nullptr;
};

// ---- Path-weight comparators ----

// The path realizes exactly the expected weight (up to order-equality).
template <RoutingAlgebra A>
::testing::AssertionResult path_weight_order_equal(
    const A& alg, const Graph& g, const EdgeMap<typename A::Weight>& w,
    const NodePath& path, const typename A::Weight& expected) {
  const auto achieved = weight_of_path(alg, g, w, path);
  if (!achieved.has_value()) {
    return ::testing::AssertionFailure()
           << alg.name() << ": path has no weight (size " << path.size()
           << ")";
  }
  if (!order_equal(alg, *achieved, expected)) {
    return ::testing::AssertionFailure()
           << alg.name() << ": achieved " << alg.to_string(*achieved)
           << " != expected " << alg.to_string(expected);
  }
  return ::testing::AssertionSuccess();
}

// The path's weight is within algebraic stretch k of the preferred weight:
// w(path) ⪯ preferred^k (Definition 3).
template <RoutingAlgebra A>
::testing::AssertionResult path_weight_within_stretch(
    const A& alg, const Graph& g, const EdgeMap<typename A::Weight>& w,
    const NodePath& path, const typename A::Weight& preferred,
    std::size_t k) {
  const auto achieved = weight_of_path(alg, g, w, path);
  if (!achieved.has_value()) {
    return ::testing::AssertionFailure()
           << alg.name() << ": path has no weight (size " << path.size()
           << ")";
  }
  const auto stretch = algebraic_stretch(alg, preferred, *achieved, k);
  if (!stretch.has_value()) {
    return ::testing::AssertionFailure()
           << alg.name() << ": achieved " << alg.to_string(*achieved)
           << " exceeds stretch " << k << " of preferred "
           << alg.to_string(preferred);
  }
  return ::testing::AssertionSuccess();
}

}  // namespace cpr::test
