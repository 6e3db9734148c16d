// Parallel construction must be bit-identical to sequential construction:
// the same seeded instance built with 1, 2 and 8 threads has to produce
// exactly the same landmark sets, tables, labels, headers and memory
// accounting. This is what makes the differential harness able to pin
// results, and what makes "n threads" a pure wall-clock knob rather than a
// behavioural one.
#include "algebra/primitives.hpp"
#include "routing/shortest_widest.hpp"
#include "scheme/cowen.hpp"
#include "scheme/scheme.hpp"
#include "scheme/spanning_tree.hpp"
#include "sim/churn.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cpr {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

// Rebuilds the same seeded instance under a pool of the given size. The
// instance (graph + weights + rng) is recreated per build so each build
// consumes an identical randomness stream; `host` keeps the graph alive
// for the lifetime of the returned scheme.
template <RoutingAlgebra A>
CowenScheme<A> build_with_pool(const A& alg, std::uint64_t seed,
                               std::size_t n, ThreadPool& pool,
                               test::SeededInstance<A>& host) {
  host = test::seeded_instance(alg, seed, n, 0.25);
  CowenOptions opt;
  opt.pool = &pool;
  return CowenScheme<A>::build(alg, host.graph, host.weights, host.rng, opt);
}

template <RoutingAlgebra A>
void expect_bit_identical_builds(const A& alg, std::uint64_t seed,
                                 std::size_t n) {
  ThreadPool reference_pool(1);
  test::SeededInstance<A> reference_host;
  const auto reference =
      build_with_pool(alg, seed, n, reference_pool, reference_host);
  const Graph& g = reference_host.graph;

  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    test::SeededInstance<A> host;
    const auto parallel = build_with_pool(alg, seed, n, pool, host);

    ASSERT_EQ(parallel.landmark_count(), reference.landmark_count())
        << alg.name() << " threads=" << threads;
    ASSERT_EQ(parallel.strict_balls(), reference.strict_balls());
    for (NodeId u = 0; u < g.node_count(); ++u) {
      EXPECT_EQ(parallel.is_landmark(u), reference.is_landmark(u))
          << alg.name() << " threads=" << threads << " u=" << u;
      EXPECT_EQ(parallel.landmark_of(u), reference.landmark_of(u))
          << alg.name() << " threads=" << threads << " u=" << u;
      EXPECT_EQ(parallel.cluster_size(u), reference.cluster_size(u))
          << alg.name() << " threads=" << threads << " u=" << u;
      // Routing tables entry-by-entry.
      ASSERT_EQ(parallel.table(u), reference.table(u))
          << alg.name() << " threads=" << threads << " u=" << u;
      // Memory accounting has to agree bit-for-bit, not just in size.
      EXPECT_EQ(parallel.local_memory_bits(u), reference.local_memory_bits(u))
          << alg.name() << " threads=" << threads << " u=" << u;
      // Labels: same reported size and same encoded bytes.
      EXPECT_EQ(parallel.label_bits(u), reference.label_bits(u));
      const auto [pb, pbits] = parallel.encode_header(parallel.make_header(u));
      const auto [rb, rbits] =
          reference.encode_header(reference.make_header(u));
      EXPECT_EQ(pbits, rbits);
      EXPECT_EQ(pb, rb) << alg.name() << " threads=" << threads << " u=" << u;
    }
  }
}

class DeterminismSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSeeds, CowenShortestPath) {
  expect_bit_identical_builds(ShortestPath{16}, GetParam(), 28);
}
TEST_P(DeterminismSeeds, CowenMostReliable) {
  expect_bit_identical_builds(MostReliablePath{}, GetParam(), 20);
}
TEST_P(DeterminismSeeds, CowenWidestShortest) {
  expect_bit_identical_builds(WidestShortest{ShortestPath{16}, WidestPath{8}},
                              GetParam(), 20);
}
TEST_P(DeterminismSeeds, CowenWidestPathNonStrictBalls) {
  expect_bit_identical_builds(WidestPath{8}, GetParam(), 16);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DeterminismSeeds,
                         ::testing::Range<std::uint64_t>(1, 6));

// Churn repair is a pinned streamed rebuild whose phases (landmark
// SSSPs, nearest-landmark fold, ball sweeps with atomic cluster counts,
// table scatter) fan out over the scheme's pool; every phase writes
// disjoint slots or sums commutatively, so the repaired state must be
// bit-identical for any thread count. The same seeded trace is played in
// lockstep against a 1-thread reference and the wider pools, comparing
// after *every* event — a schedule-dependent bug can't hide behind a
// later event that happens to repair it.
template <RoutingAlgebra A>
void expect_bit_identical_repairs(const A& alg, std::uint64_t seed,
                                  std::size_t n) {
  constexpr std::size_t kEvents = 12;

  // The trace is a pure function of (alg, seed), generated against its
  // own copy of the seeded instance.
  auto trace_host = test::seeded_instance(alg, seed, n, 0.25);
  Rng trace_rng(seed * 1000 + 17);
  const auto trace = random_churn_trace(alg, trace_host.graph,
                                        trace_host.weights, kEvents,
                                        trace_rng);
  ASSERT_FALSE(trace.empty()) << alg.name() << " seed=" << seed;

  for (const std::size_t threads : kThreadCounts) {
    // Fresh reference per width (cheap at test sizes) so both sides
    // replay the identical trace from the identical start state.
    ThreadPool reference_pool(1);
    test::SeededInstance<A> reference_host;
    auto reference =
        build_with_pool(alg, seed, n, reference_pool, reference_host);
    ChurnEngine<A> ref_engine(alg, reference_host.graph,
                              reference_host.weights);

    ThreadPool pool(threads);
    test::SeededInstance<A> host;
    auto parallel = build_with_pool(alg, seed, n, pool, host);
    ChurnEngine<A> engine(alg, host.graph, host.weights);

    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto applied = engine.apply(trace[i]);
      const auto ref_applied = ref_engine.apply(trace[i]);
      parallel.apply_event(applied.edge, applied.old_weight,
                           applied.new_weight, engine.weights());
      reference.apply_event(ref_applied.edge, ref_applied.old_weight,
                            ref_applied.new_weight, ref_engine.weights());
      for (NodeId u = 0; u < host.graph.node_count(); ++u) {
        ASSERT_EQ(parallel.landmark_of(u), reference.landmark_of(u))
            << alg.name() << " threads=" << threads << " event=" << i
            << " u=" << u;
        ASSERT_EQ(parallel.cluster_size(u), reference.cluster_size(u))
            << alg.name() << " threads=" << threads << " event=" << i
            << " u=" << u;
        ASSERT_EQ(parallel.table(u), reference.table(u))
            << alg.name() << " threads=" << threads << " event=" << i
            << " u=" << u;
        ASSERT_EQ(parallel.port_at_landmark(u), reference.port_at_landmark(u))
            << alg.name() << " threads=" << threads << " event=" << i
            << " u=" << u;
        ASSERT_EQ(parallel.local_memory_bits(u),
                  reference.local_memory_bits(u))
            << alg.name() << " threads=" << threads << " event=" << i
            << " u=" << u;
      }
    }
  }
}

TEST_P(DeterminismSeeds, ChurnRepairShortestPath) {
  expect_bit_identical_repairs(ShortestPath{16}, GetParam(), 20);
}
TEST_P(DeterminismSeeds, ChurnRepairWidestPathNonStrictBalls) {
  expect_bit_identical_repairs(WidestPath{8}, GetParam(), 16);
}

TEST(ParallelDeterminism, AllPairsTreesMatchSequentialDijkstra) {
  const ShortestPath alg{64};
  auto inst = test::seeded_instance(alg, 7, 40, 0.2);
  ThreadPool pool8(8);
  const auto parallel = all_pairs_trees(alg, inst.graph, inst.weights, &pool8);
  for (NodeId s = 0; s < inst.graph.node_count(); ++s) {
    const auto seq = dijkstra(alg, inst.graph, inst.weights, s);
    ASSERT_EQ(parallel[s].parent, seq.parent) << "s=" << s;
    ASSERT_EQ(parallel[s].parent_edge, seq.parent_edge) << "s=" << s;
    ASSERT_EQ(parallel[s].hops, seq.hops) << "s=" << s;
    for (NodeId v = 0; v < inst.graph.node_count(); ++v) {
      ASSERT_EQ(parallel[s].weight(v).has_value(),
                seq.weight(v).has_value());
      if (seq.weight(v).has_value()) {
        EXPECT_TRUE(order_equal(alg, *parallel[s].weight(v), *seq.weight(v)));
      }
    }
  }
}

TEST(ParallelDeterminism, RootedForestMatchesPerRootBuilds) {
  Rng rng(11);
  const Graph g = erdos_renyi_connected(60, 0.1, rng);
  const auto w = test::integer_weights(g, rng, 1, 9);
  const auto tree_edges = preferred_spanning_tree(WidestPath{}, g, w);
  std::vector<NodeId> roots;
  for (NodeId r = 0; r < g.node_count(); ++r) roots.push_back(r);

  ThreadPool pool1(1), pool2(2), pool8(8);
  const auto f1 = rooted_forest(g, tree_edges, roots, &pool1);
  const auto f2 = rooted_forest(g, tree_edges, roots, &pool2);
  const auto f8 = rooted_forest(g, tree_edges, roots, &pool8);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const RootedTree seq = RootedTree::from_edges(g, tree_edges, roots[i]);
    for (const RootedTree* f : {&f1[i], &f2[i], &f8[i]}) {
      ASSERT_EQ(f->root, seq.root) << "root=" << roots[i];
      ASSERT_EQ(f->parent, seq.parent) << "root=" << roots[i];
      ASSERT_EQ(f->parent_edge, seq.parent_edge) << "root=" << roots[i];
      ASSERT_EQ(f->children, seq.children) << "root=" << roots[i];
      ASSERT_EQ(f->subtree_size, seq.subtree_size) << "root=" << roots[i];
    }
  }
}

TEST(ParallelDeterminism, PooledScratchDoesNotLeakAcrossRuns) {
  // Dijkstra's frontier heap is thread_local and reused across runs
  // (routing/dijkstra.hpp), and construction randomness reaches tasks
  // only via Rng::fork streams. Neither may make a build depend on what
  // the worker did before: a scheme built on a thread whose scratch is
  // dirty from unrelated sweeps must equal one built on fresh threads.
  const ShortestPath alg{16};

  ThreadPool fresh_pool(2);
  test::SeededInstance<ShortestPath> fresh_host;
  const auto fresh = build_with_pool(alg, 5, 24, fresh_pool, fresh_host);

  ThreadPool dirty_pool(2);
  // Pollute the pool's (and the calling thread's) scratch heaps with
  // sweeps over differently-sized graphs and a different algebra.
  for (std::uint64_t seed : {91u, 92u}) {
    auto junk = test::seeded_instance(WidestPath{8}, seed, 57, 0.1);
    (void)all_pairs_trees(WidestPath{8}, junk.graph, junk.weights,
                          &dirty_pool);
    (void)dijkstra(WidestPath{8}, junk.graph, junk.weights, 0);
  }
  test::SeededInstance<ShortestPath> dirty_host;
  const auto dirty = build_with_pool(alg, 5, 24, dirty_pool, dirty_host);

  ASSERT_EQ(dirty.landmark_count(), fresh.landmark_count());
  for (NodeId u = 0; u < fresh_host.graph.node_count(); ++u) {
    EXPECT_EQ(dirty.is_landmark(u), fresh.is_landmark(u)) << "u=" << u;
    EXPECT_EQ(dirty.landmark_of(u), fresh.landmark_of(u)) << "u=" << u;
    ASSERT_EQ(dirty.table(u), fresh.table(u)) << "u=" << u;
    EXPECT_EQ(dirty.local_memory_bits(u), fresh.local_memory_bits(u))
        << "u=" << u;
  }
}

TEST(ParallelDeterminism, RouteBatchMatchesSimulateRoute) {
  const ShortestPath alg{64};
  auto inst = test::seeded_instance(alg, 3, 32, 0.25);
  const auto scheme =
      CowenScheme<ShortestPath>::build(alg, inst.graph, inst.weights, inst.rng);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (NodeId s = 0; s < inst.graph.node_count(); ++s) {
    for (NodeId t = 0; t < inst.graph.node_count(); ++t) {
      queries.emplace_back(s, t);
    }
  }
  ThreadPool pool8(8);
  const auto batched = route_batch(scheme, inst.graph, queries, &pool8);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [s, t] = queries[i];
    const RouteResult individual = simulate_route(scheme, inst.graph, s, t);
    EXPECT_EQ(batched[i].delivered, individual.delivered)
        << "s=" << s << " t=" << t;
    EXPECT_EQ(batched[i].path, individual.path) << "s=" << s << " t=" << t;
  }
}

}  // namespace
}  // namespace cpr
