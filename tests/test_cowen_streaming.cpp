// Streamed-vs-materialized Cowen construction differential (ISSUE 9).
//
// CowenOptions::Construction::kMaterialized is the exhaustive oracle: it
// builds all n preferred-path trees and derives landmarks, clusters,
// tables and labels from Θ(n²) scans. The streaming default replaces
// those phases with batched landmark SSSPs plus truncated-ball Dijkstras
// and must produce a **bit-identical** scheme — same landmark set, same
// promotions, same cluster sizes, same flat tables, same encoded labels —
// at every thread count. This suite pins that equivalence over a 50-seed
// corpus for the keyed/strict lane (ShortestPath), plus non-strict and
// generic-heap lanes (WidestPath, MostReliablePath), promotion-heavy
// options, disconnected graphs, the stats-only table-less mode, and the
// churn path (apply_event is a pinned streamed rebuild that must match
// the materialized rebuild_from after every event without ever making a
// tree resident). Runs under ASan and TSan in CI.
#include "algebra/primitives.hpp"
#include "graph/generators.hpp"
#include "scheme/cowen.hpp"
#include "scheme/tz_name_independent.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace cpr {
namespace {

template <RoutingAlgebra A>
void expect_identical(const CowenScheme<A>& streamed,
                      const CowenScheme<A>& oracle, std::size_t n,
                      const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(streamed.landmark_count(), oracle.landmark_count());
  EXPECT_EQ(streamed.initial_landmark_count(),
            oracle.initial_landmark_count());
  EXPECT_EQ(streamed.promoted_landmark_count(),
            oracle.promoted_landmark_count());
  EXPECT_EQ(streamed.strict_balls(), oracle.strict_balls());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(streamed.is_landmark(u), oracle.is_landmark(u)) << "u=" << u;
    ASSERT_EQ(streamed.landmark_of(u), oracle.landmark_of(u)) << "u=" << u;
    ASSERT_EQ(streamed.cluster_size(u), oracle.cluster_size(u)) << "u=" << u;
    ASSERT_EQ(streamed.port_at_landmark(u), oracle.port_at_landmark(u))
        << "u=" << u;
    ASSERT_EQ(streamed.table(u), oracle.table(u)) << "u=" << u;
    // Labels byte for byte, not just field-wise.
    const auto [sb, sbits] = streamed.encode_header(streamed.make_header(u));
    const auto [ob, obits] = oracle.encode_header(oracle.make_header(u));
    ASSERT_EQ(sbits, obits) << "u=" << u;
    ASSERT_EQ(sb, ob) << "u=" << u;
  }
}

// Builds the same instance three ways — streamed on 1 thread, streamed on
// 8 threads, materialized — from identical rng streams, and demands
// bit-identity.
template <RoutingAlgebra A>
void differential(const A& alg, const Graph& g,
                  const EdgeMap<typename A::Weight>& w, std::uint64_t seed,
                  CowenOptions base = {}) {
  const std::size_t n = g.node_count();
  ThreadPool pool1(1);
  ThreadPool pool8(8);

  CowenOptions streamed1 = base;
  streamed1.construction = CowenOptions::Construction::kStreaming;
  streamed1.pool = &pool1;
  Rng r1(seed);
  const auto s1 = CowenScheme<A>::build(alg, g, w, r1, streamed1);

  CowenOptions streamed8 = base;
  streamed8.construction = CowenOptions::Construction::kStreaming;
  streamed8.pool = &pool8;
  // Odd batch so multi-round promotion sweeps cross batch boundaries.
  streamed8.landmark_batch = 3;
  Rng r8(seed);
  const auto s8 = CowenScheme<A>::build(alg, g, w, r8, streamed8);

  CowenOptions materialized = base;
  materialized.construction = CowenOptions::Construction::kMaterialized;
  materialized.pool = &pool8;
  Rng rm(seed);
  const auto oracle = CowenScheme<A>::build(alg, g, w, rm, materialized);

  EXPECT_FALSE(s1.trees_materialized());
  EXPECT_TRUE(oracle.trees_materialized());
  expect_identical(s1, oracle, n, "streamed@1 vs materialized");
  expect_identical(s8, oracle, n, "streamed@8 vs materialized");
}

class StreamSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// The keyed/strict fast lane over the full 50-seed corpus.
TEST_P(StreamSeeds, CowenStreamShortestPathBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(ShortestPath{64}, seed, 48, 0.15);
  differential(ShortestPath{64}, inst.graph, inst.weights, seed * 7 + 1);
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, StreamSeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

class StreamSeedsWide : public ::testing::TestWithParam<std::uint64_t> {};

// Non-strict balls (weakly monotone) — clusters are fat and landmarks can
// sit exactly on ball boundaries.
TEST_P(StreamSeedsWide, CowenStreamWidestPathBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(WidestPath{8}, seed, 40, 0.18);
  differential(WidestPath{8}, inst.graph, inst.weights, seed * 11 + 3);
}

// Generic-heap lane (no 128-bit order key).
TEST_P(StreamSeedsWide, CowenStreamMostReliableBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(MostReliablePath{}, seed, 36, 0.2);
  differential(MostReliablePath{}, inst.graph, inst.weights, seed * 13 + 5);
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, StreamSeedsWide,
                         ::testing::Range<std::uint64_t>(1, 11));

class StreamPromotion : public ::testing::TestWithParam<std::uint64_t> {};

// Tiny initial sample + tight cap forces multiple promotion rounds, so
// the streaming fold sees landmarks arriving across several sweeps.
TEST_P(StreamPromotion, CowenStreamPromotionRoundsBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(ShortestPath{64}, seed, 56, 0.12);
  CowenOptions opt;
  opt.initial_landmarks = 2;
  opt.cluster_cap = 8;
  differential(ShortestPath{64}, inst.graph, inst.weights, seed * 17 + 7,
               opt);
  const auto count_promotions = [&] {
    Rng r(seed * 17 + 7);
    CowenOptions o = opt;
    auto s = CowenScheme<ShortestPath>::build(ShortestPath{64}, inst.graph,
                                              inst.weights, r, o);
    return s.promoted_landmark_count();
  };
  EXPECT_GT(count_promotions(), 0u)
      << "options failed to force promotions — differential under-covers";
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, StreamPromotion,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(CowenStream, DisconnectedGraphBitIdentical) {
  // Two components: truncated balls and landmark folds must agree on
  // unreachable landmark tie-breaks (smallest id) and absent radii.
  Rng grng(33);
  const Graph a = erdos_renyi_connected(20, 0.25, grng);
  const Graph b = erdos_renyi_connected(14, 0.3, grng);
  Graph g(a.node_count() + b.node_count());
  EdgeMap<std::uint64_t> w;
  Rng wrng(44);
  for (const auto& e : a.edges()) {
    g.add_edge(e.u, e.v);
    w.push_back(wrng.uniform(1, 30));
  }
  const NodeId off = static_cast<NodeId>(a.node_count());
  for (const auto& e : b.edges()) {
    g.add_edge(off + e.u, off + e.v);
    w.push_back(wrng.uniform(1, 30));
  }
  differential(ShortestPath{64}, g, w, 909);
}

TEST(CowenStream, TreeAccessorThrowsUntilMaterialized) {
  auto inst = test::seeded_instance(ShortestPath{64}, 5, 24, 0.25);
  auto s = CowenScheme<ShortestPath>::build(ShortestPath{64}, inst.graph,
                                            inst.weights, inst.rng);
  EXPECT_FALSE(s.trees_materialized());
  EXPECT_THROW((void)s.tree(0), std::logic_error);
  s.rebuild_from(inst.weights);
  EXPECT_TRUE(s.trees_materialized());
  EXPECT_NO_THROW((void)s.tree(0));
}

TEST(CowenStream, ApplyEventAfterStreamedBuildMatchesOracle) {
  const ShortestPath alg{64};
  auto inst = test::seeded_instance(alg, 21, 40, 0.18);
  const Graph& g = inst.graph;
  const std::size_t n = g.node_count();

  ThreadPool pool(4);
  CowenOptions sopt;
  sopt.pool = &pool;
  sopt.construction = CowenOptions::Construction::kStreaming;
  Rng rs(777);
  auto streamed = CowenScheme<ShortestPath>::build(alg, g, inst.weights, rs,
                                                   sopt);
  CowenOptions mopt = sopt;
  mopt.construction = CowenOptions::Construction::kMaterialized;
  Rng rm(777);
  auto oracle = CowenScheme<ShortestPath>::build(alg, g, inst.weights, rm,
                                                 mopt);

  // A few weight moves on the same edge stream: after every event the
  // streamed repair must be byte-identical (tables and labels) to the
  // materialized oracle's pinned rebuild, and must never make the n
  // preferred-path trees resident.
  EdgeMap<std::uint64_t> w = inst.weights;
  Rng erng(99);
  for (int event = 0; event < 6; ++event) {
    const EdgeId e = static_cast<EdgeId>(erng.index(g.edge_count()));
    const std::uint64_t old_w = w[e];
    const std::uint64_t new_w = erng.uniform(1, 60);
    w[e] = new_w;
    const auto stats = streamed.apply_event(e, old_w, new_w, w);
    oracle.rebuild_from(w);
    EXPECT_FALSE(stats.full_rebuild);
    EXPECT_FALSE(stats.fib_delta.recompile);
    EXPECT_FALSE(streamed.trees_materialized());
    expect_identical(streamed, oracle, n, "post-event");
  }
}

// Churn keeps the landmark set pinned: with a tight cap, events push
// clusters past it, and apply_event must still match the pinned oracle
// instead of promoting the way build() would.
TEST(CowenStream, ApplyEventKeepsLandmarksPinnedPastTheCap) {
  const ShortestPath alg{64};
  auto inst = test::seeded_instance(alg, 3, 56, 0.12);
  const Graph& g = inst.graph;
  const std::size_t n = g.node_count();

  CowenOptions sopt;
  sopt.initial_landmarks = 4;
  sopt.cluster_cap = 16;
  Rng rs(404);
  auto streamed = CowenScheme<ShortestPath>::build(alg, g, inst.weights, rs,
                                                   sopt);
  CowenOptions mopt = sopt;
  mopt.construction = CowenOptions::Construction::kMaterialized;
  Rng rm(404);
  auto oracle = CowenScheme<ShortestPath>::build(alg, g, inst.weights, rm,
                                                 mopt);
  const std::size_t landmarks = streamed.landmark_count();

  // Make every edge at a landmark expensive: radii, hence balls, grow.
  std::vector<EdgeId> at_landmark;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (streamed.is_landmark(g.edge(e).u) ||
        streamed.is_landmark(g.edge(e).v)) {
      at_landmark.push_back(e);
    }
  }
  EdgeMap<std::uint64_t> w = inst.weights;
  std::size_t past_cap = 0;
  for (const EdgeId e : at_landmark) {
    const std::uint64_t old_w = w[e];
    w[e] = 60;
    streamed.apply_event(e, old_w, w[e], w);
    oracle.rebuild_from(w);
    expect_identical(streamed, oracle, n, "pinned");
    ASSERT_EQ(streamed.landmark_count(), landmarks);
    for (NodeId u = 0; u < n; ++u) {
      if (!streamed.is_landmark(u) && streamed.cluster_size(u) > 16) {
        ++past_cap;
        break;
      }
    }
  }
  EXPECT_GT(past_cap, 0u)
      << "no event pushed a cluster past the cap — pinning is untested";
}

// A materialized scheme's trees describe the weights it was built on;
// after an event they are gone rather than stale.
TEST(CowenStream, MaterializedTreesDroppedByApplyEvent) {
  const ShortestPath alg{64};
  auto inst = test::seeded_instance(alg, 8, 24, 0.25);
  CowenOptions mopt;
  mopt.construction = CowenOptions::Construction::kMaterialized;
  auto s = CowenScheme<ShortestPath>::build(alg, inst.graph, inst.weights,
                                            inst.rng, mopt);
  ASSERT_TRUE(s.trees_materialized());
  EXPECT_NO_THROW((void)s.tree(0));

  EdgeMap<std::uint64_t> w = inst.weights;
  const std::uint64_t old_w = w[0];
  w[0] = old_w + 7;
  s.apply_event(0, old_w, w[0], w);
  EXPECT_FALSE(s.trees_materialized());
  EXPECT_THROW((void)s.tree(0), std::logic_error);
}

TEST(CowenStream, StatsOnlyModeSkipsTablesKeepsLabelsExact) {
  const ShortestPath alg{64};
  auto inst = test::seeded_instance(alg, 12, 44, 0.16);
  const std::size_t n = inst.graph.node_count();

  CowenOptions full;
  full.construction = CowenOptions::Construction::kStreaming;
  Rng rf(555);
  const auto with_tables =
      CowenScheme<ShortestPath>::build(alg, inst.graph, inst.weights, rf,
                                       full);

  CowenOptions stats = full;
  stats.materialize_tables = false;
  Rng rn(555);
  const auto stats_only =
      CowenScheme<ShortestPath>::build(alg, inst.graph, inst.weights, rn,
                                       stats);

  EXPECT_EQ(stats_only.landmark_count(), with_tables.landmark_count());
  EXPECT_EQ(stats_only.promoted_landmark_count(),
            with_tables.promoted_landmark_count());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(stats_only.landmark_of(u), with_tables.landmark_of(u));
    ASSERT_EQ(stats_only.cluster_size(u), with_tables.cluster_size(u));
    ASSERT_EQ(stats_only.port_at_landmark(u), with_tables.port_at_landmark(u));
    EXPECT_TRUE(stats_only.table(u).empty());
  }
}

// ---- The logical table API ----
//
// The scheme stores each table in two halves (a ball row per node and
// the n × |L| landmark port matrix), but table(u) keeps meaning the whole
// Theorem 3 table: a (target, port) entry for every reachable landmark
// and for every v with u ∈ B(v), ascending by target. The oracle below
// derives that table from the materialized trees alone, the way
// fill_table did before the split.
template <RoutingAlgebra A>
std::vector<std::pair<NodeId, Port>> logical_table_oracle(
    const A& alg, const Graph& g, const CowenScheme<A>& s, NodeId u) {
  std::vector<std::pair<NodeId, Port>> out;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v == u || !s.tree(v).reachable(u)) continue;
    bool entry = s.is_landmark(v);
    const NodeId lv = s.landmark_of(v);
    if (!entry && lv != kInvalidNode && s.tree(lv).has_weight(v) &&
        s.tree(u).has_weight(v)) {
      const auto& d = s.tree(u).weights[v];
      const auto& radius = s.tree(lv).weights[v];
      entry = s.strict_balls() ? alg.less(d, radius) : leq(alg, d, radius);
    }
    if (entry) out.emplace_back(v, g.port_to(u, s.tree(v).parent[u]));
  }
  return out;
}

template <RoutingAlgebra A>
void expect_logical_tables(const A& alg, std::uint64_t seed, std::size_t n,
                           double p) {
  auto inst = test::seeded_instance(alg, seed, n, p);
  CowenOptions materialized;
  materialized.construction = CowenOptions::Construction::kMaterialized;
  Rng r1(seed), r2(seed);
  const auto oracle =
      CowenScheme<A>::build(alg, inst.graph, inst.weights, r1, materialized);
  const auto streamed =
      CowenScheme<A>::build(alg, inst.graph, inst.weights, r2);
  std::size_t landmark_entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto want = logical_table_oracle(alg, inst.graph, oracle, u);
    ASSERT_EQ(oracle.table(u), want) << "materialized u=" << u;
    ASSERT_EQ(streamed.table(u), want) << "streamed u=" << u;
    for (const auto& [v, port] : want) {
      landmark_entries += oracle.is_landmark(v) ? 1 : 0;
    }
    // The stored halves: no landmark target in a ball row.
    for (const auto& [v, port] : streamed.ball_table(u)) {
      ASSERT_FALSE(streamed.is_landmark(v)) << "u=" << u << " v=" << v;
    }
  }
  EXPECT_GT(landmark_entries, 0u);

  // The TZ layer's labeled_table is the same table re-keyed by label.
  TzOptions tz_opt;
  tz_opt.cowen = materialized;
  Rng r3(seed);
  const auto tz = TzNameIndependentScheme<A>::build(alg, inst.graph,
                                                    inst.weights, r3, tz_opt);
  for (NodeId u = 0; u < n; ++u) {
    std::vector<std::pair<std::uint32_t, Port>> want;
    for (const auto& [v, port] :
         logical_table_oracle(alg, inst.graph, tz.cowen(), u)) {
      want.emplace_back(tz.labels().label_of(v).value, port);
    }
    std::sort(want.begin(), want.end());
    ASSERT_EQ(tz.labeled_table(u), want) << "tz u=" << u;
  }
}

TEST(CowenTables, TableIsBallAndLandmarkEntriesLikeTheOracle) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(seed);
    expect_logical_tables(ShortestPath{16}, seed, 40, 0.12);
    expect_logical_tables(WidestPath{8}, seed, 30, 0.18);
  }
}

}  // namespace
}  // namespace cpr
