// Differential coverage for in-place FIB patching (FibDelta →
// FlatFib::apply_delta → MaintainedFib).
//
// The contract, per seed of the churn corpus: after EVERY event prefix,
// forward_batch on the *patched* arena — one arena kept alive across the
// whole trace, absorbing each apply_event's FibDelta by in-place patching
// or compaction — is bit-identical (delivered flags, loop flags, full
// hop-by-hop paths) to forward_batch on a FRESH compile_fib of the
// repaired scheme, at 1 and 8 threads, both on the healthy graph and
// under the trace's current dead-edge mask. The fresh compile is the
// differential oracle; the maintained arena is what the sim layer serves.
//
// Plus unit coverage of the apply_delta edge cases the corpus cannot
// reach deterministically: slack exhaustion (reject, arena untouched),
// malformed patches, generation-counter torn-read detection.
#include "algebra/primitives.hpp"
#include "fib/compile.hpp"
#include "fib/fib_delta.hpp"
#include "fib/forward_engine.hpp"
#include "scheme/cowen.hpp"
#include "scheme/spanning_tree.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/churn.hpp"
#include "sim/resilience.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace cpr {
namespace {

constexpr std::size_t kCorpusSeeds = 50;
constexpr std::size_t kN = 18;
constexpr double kP = 0.25;
constexpr std::size_t kEvents = 12;

std::vector<std::pair<NodeId, NodeId>> all_pairs(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> q;
  q.reserve(n * n);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) q.emplace_back(s, t);
  }
  return q;
}

void expect_identical_batches(const FibBatchOutput& patched,
                              const FibBatchOutput& fresh, const char* what) {
  ASSERT_EQ(patched.results.size(), fresh.results.size()) << what;
  for (std::size_t i = 0; i < patched.results.size(); ++i) {
    EXPECT_EQ(patched.results[i].delivered, fresh.results[i].delivered)
        << what << " query " << i;
    EXPECT_EQ(patched.results[i].looped, fresh.results[i].looped)
        << what << " query " << i;
    const auto pp = patched.path(i);
    const auto fp = fresh.path(i);
    ASSERT_EQ(pp.size(), fp.size()) << what << " query " << i;
    for (std::size_t k = 0; k < pp.size(); ++k) {
      EXPECT_EQ(pp[k], fp[k]) << what << " query " << i << " hop " << k;
    }
  }
}

// Patched arena vs fresh oracle arena: same batch, 1 and 8 threads,
// without and with the current dead-edge mask.
void expect_plane_matches_oracle(const FlatFib& patched, const FlatFib& fresh,
                                 std::span<const std::pair<NodeId, NodeId>> q,
                                 const std::vector<bool>& down,
                                 const char* what) {
  ThreadPool pool1(1), pool8(8);
  for (ThreadPool* pool : {&pool1, &pool8}) {
    FibBatchOptions opt;
    opt.pool = pool;
    expect_identical_batches(forward_batch(patched, q, opt),
                             forward_batch(fresh, q, opt), what);
    opt.edge_down = &down;
    expect_identical_batches(forward_batch(patched, q, opt),
                             forward_batch(fresh, q, opt), what);
  }
}

class DeltaSeeds : public ::testing::TestWithParam<std::uint64_t> {};

// Tree family: deltas are empty (kNoop / kRerank leave the router
// byte-identical) or whole-FIB recompiles (kSwap renumbers the DFS), so
// the maintained arena exercises the noop and compaction paths.
TEST_P(DeltaSeeds, TreePlaneMatchesFreshCompileAfterEveryEvent) {
  const ShortestPath alg{16};
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(alg, seed, kN, kP);
  const Graph& g = inst.graph;
  Rng trace_rng(seed ^ 0x5eedull);
  const auto trace =
      random_churn_trace(alg, g, inst.weights, kEvents, trace_rng);

  ChurnEngine<ShortestPath> engine(alg, g, inst.weights);
  auto scheme = SpanningTreeScheme<ShortestPath>::build(alg, g, inst.weights);
  MaintainedFib<SpanningTreeScheme<ShortestPath>> plane(scheme, g);
  const auto queries = all_pairs(g.node_count());

  for (std::size_t i = 0; i < trace.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " event " << i);
    const auto applied = engine.apply(trace[i]);
    const TreeRepair repair = scheme.apply_event(
        applied.edge, applied.old_weight, applied.new_weight,
        engine.weights());
    plane.absorb(repair.fib_delta, scheme);
    const FlatFib fresh = compile_fib(scheme, g);
    expect_plane_matches_oracle(plane.fib(), fresh, queries,
                                engine.down_mask(), "tree");
  }
  EXPECT_EQ(plane.stats().events, trace.size());
  EXPECT_EQ(plane.stats().noops + plane.stats().compactions, trace.size());
}

// Cowen family: single-edge repairs emit row/slot patches that land in
// the arena's reserved slack — the in-place path this PR exists for.
TEST_P(DeltaSeeds, CowenPlaneMatchesFreshCompileAfterEveryEvent) {
  const ShortestPath alg{16};
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(alg, seed, kN, kP);
  const Graph& g = inst.graph;
  Rng trace_rng(seed ^ 0xc0ffeeull);
  const auto trace =
      random_churn_trace(alg, g, inst.weights, kEvents, trace_rng);

  ChurnEngine<ShortestPath> engine(alg, g, inst.weights);
  auto scheme =
      CowenScheme<ShortestPath>::build(alg, g, inst.weights, inst.rng);
  // Never compact on delta width: every event must flow through emitted
  // row/slot patches, the code this test exists for. On these small
  // corpus graphs the natural thresholds would compact away most of the
  // patch coverage.
  FibMaintainOptions opt = fib_churn_maintain_options();
  opt.compaction_fraction = 2.0;
  MaintainedFib<CowenScheme<ShortestPath>> plane(scheme, g, opt);
  const auto queries = all_pairs(g.node_count());

  std::size_t fast_path_events = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " event " << i);
    const auto applied = engine.apply(trace[i]);
    const auto repair = scheme.apply_event(applied.edge, applied.old_weight,
                                           applied.new_weight,
                                           engine.weights());
    if (plane.absorb(repair.fib_delta, scheme)) ++fast_path_events;
    // The oracle compiles with zero slack — layout differs, behaviour
    // must not.
    const FlatFib fresh = compile_fib(scheme, g);
    expect_plane_matches_oracle(plane.fib(), fresh, queries,
                                engine.down_mask(), "cowen");
  }
  EXPECT_EQ(plane.stats().events, trace.size());
  // The slack profile must keep the fast path alive: most events of a
  // short trace patch (or noop) in place rather than compacting.
  EXPECT_GT(fast_path_events, trace.size() / 2)
      << "slack profile degenerated to recompiling";
  EXPECT_GT(plane.stats().patched, 0u) << "no event exercised apply_delta";
}

// TZ family: the scheme translates every Cowen repair into label space —
// row patches re-keyed by label, landmark slot patches re-indexed from
// node to label — before the maintainer sees it. Names and labels are
// stable across weight churn, so a correct translation never touches the
// label map or dictionary sections; the differential against a fresh
// label-preserving compile catches any slot that was left in node space.
TEST_P(DeltaSeeds, TzPlaneMatchesFreshCompileAfterEveryEvent) {
  const ShortestPath alg{16};
  const std::uint64_t seed = GetParam();
  auto inst = test::seeded_instance(alg, seed, kN, kP);
  const Graph& g = inst.graph;
  Rng trace_rng(seed ^ 0xc0ffeeull);
  const auto trace =
      random_churn_trace(alg, g, inst.weights, kEvents, trace_rng);

  ChurnEngine<ShortestPath> engine(alg, g, inst.weights);
  auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, g, inst.weights, inst.rng);
  FibMaintainOptions opt = fib_churn_maintain_options();
  opt.compaction_fraction = 2.0;  // same rationale as the Cowen trace
  MaintainedFib<TzNameIndependentScheme<ShortestPath>> plane(scheme, g, opt);
  const auto queries = all_pairs(g.node_count());

  std::size_t fast_path_events = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " event " << i);
    const auto applied = engine.apply(trace[i]);
    const auto repair = scheme.apply_event(applied.edge, applied.old_weight,
                                           applied.new_weight,
                                           engine.weights());
    if (plane.absorb(repair.fib_delta, scheme)) ++fast_path_events;
    const FlatFib fresh = compile_fib(scheme, g);
    expect_plane_matches_oracle(plane.fib(), fresh, queries,
                                engine.down_mask(), "tz");
  }
  EXPECT_EQ(plane.stats().events, trace.size());
  EXPECT_GT(fast_path_events, trace.size() / 2)
      << "slack profile degenerated to recompiling";
  EXPECT_GT(plane.stats().patched, 0u) << "no event exercised apply_delta";
}

INSTANTIATE_TEST_SUITE_P(Corpus, DeltaSeeds,
                         ::testing::Range<std::uint64_t>(0, kCorpusSeeds));

// ---- apply_delta unit coverage ----

struct CowenFixture {
  Graph g;
  CowenScheme<ShortestPath> scheme;
  static CowenFixture make(std::uint64_t seed) {
    const ShortestPath alg{16};
    auto inst = test::seeded_instance(alg, seed, kN, kP);
    auto scheme =
        CowenScheme<ShortestPath>::build(alg, inst.graph, inst.weights,
                                         inst.rng);
    return {inst.graph, std::move(scheme)};
  }
};

TEST(FibApplyDelta, EmptyDeltaIsANoop) {
  auto fx = CowenFixture::make(3);
  FlatFib fib = compile_fib(fx.scheme, fx.g);
  const auto before = fib.blob();
  const std::vector<std::uint8_t> snapshot(before.begin(), before.end());
  EXPECT_TRUE(fib.apply_delta(FibDelta{}));
  const auto after = fib.blob();
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), after.begin(),
                         after.end()));
}

TEST(FibApplyDelta, RecompileDeltaIsRefused) {
  auto fx = CowenFixture::make(3);
  FlatFib fib = compile_fib(fx.scheme, fx.g);
  FibDelta d;
  d.recompile = true;
  d.touched_nodes = fx.g.node_count();
  EXPECT_FALSE(fib.apply_delta(d));
}

TEST(FibApplyDelta, RowGrowthBeyondCapacityIsRefusedUntouched) {
  auto fx = CowenFixture::make(3);
  // Zero slack: any row growth must be refused.
  FlatFib fib = compile_fib(fx.scheme, fx.g, FibCompileOptions{});
  const auto before = fib.blob();
  const std::vector<std::uint8_t> snapshot(before.begin(), before.end());

  // Rows hold ball entries only; landmark keys live in the columns.
  const auto& row = fx.scheme.ball_table(0);
  std::vector<std::uint64_t> grown;
  for (const auto& [target, port] : row) {
    grown.push_back(fib_pack_entry(target, port));
  }
  // Append a strictly larger non-landmark key so the row stays sorted but
  // overflows.
  std::uint32_t big_key = grown.empty() ? 1u : fib_entry_key(grown.back()) + 1;
  while (fx.scheme.is_landmark(big_key)) ++big_key;
  ASSERT_LT(big_key, fx.g.node_count());
  grown.push_back(fib_pack_entry(big_key, 0));
  FibDelta d;
  d.touched_nodes = 1;
  d.patches.push_back(fib_patch_row_u64(fib_section::kCowenRows, 0, grown));
  EXPECT_FALSE(fib.apply_delta(d));
  const auto after = fib.blob();
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), after.begin(),
                         after.end()))
      << "refused delta must leave the arena untouched";

  // With slack reserved, the same growth patches in place.
  FlatFib slacked =
      compile_fib(fx.scheme, fx.g, fib_churn_maintain_options().compile);
  EXPECT_TRUE(slacked.apply_delta(d));
  // The patched arena still validates end to end (checksum refreshed,
  // slack re-zeroed, row_len updated).
  const auto blob = slacked.blob();
  EXPECT_NO_THROW(FlatFib::from_blob({blob.data(), blob.size()}));
}

TEST(FibApplyDelta, MalformedPatchesAreRefused) {
  auto fx = CowenFixture::make(3);
  FlatFib fib =
      compile_fib(fx.scheme, fx.g, fib_churn_maintain_options().compile);
  const std::uint32_t n = static_cast<std::uint32_t>(fx.g.node_count());
  {
    FibDelta d;  // row index out of range
    d.touched_nodes = 1;
    d.patches.push_back(
        fib_patch_row_u64(fib_section::kCowenRows, n, {fib_pack_entry(1, 0)}));
    EXPECT_FALSE(fib.apply_delta(d));
  }
  {
    FibDelta d;  // unsorted row keys
    d.touched_nodes = 1;
    d.patches.push_back(fib_patch_row_u64(
        fib_section::kCowenRows, 0,
        {fib_pack_entry(5, 0), fib_pack_entry(2, 0)}));
    EXPECT_FALSE(fib.apply_delta(d));
  }
  {
    FibDelta d;  // landmark id out of range
    d.touched_nodes = 1;
    d.patches.push_back(fib_patch_u32(fib_section::kCowenLandmark, 0, n));
    EXPECT_FALSE(fib.apply_delta(d));
  }
  {
    FibDelta d;  // unknown section
    d.touched_nodes = 1;
    d.patches.push_back(fib_patch_u32(fib_section::kTreeNodes, 0, 0));
    EXPECT_FALSE(fib.apply_delta(d));
  }
}

// ---- Label-section patches (kTz arenas) ----

struct TzFixture {
  Graph g;
  TzNameIndependentScheme<ShortestPath> scheme;
  static TzFixture make(std::uint64_t seed) {
    const ShortestPath alg{16};
    auto inst = test::seeded_instance(alg, seed, kN, kP);
    auto scheme = TzNameIndependentScheme<ShortestPath>::build(
        alg, inst.graph, inst.weights, inst.rng);
    return {inst.graph, std::move(scheme)};
  }
};

// Weight churn never relabels, so the corpus trace above cannot reach the
// kLabelMap / kDictionary patch paths; drive them directly. A rewrite of
// a label slot and a dictionary bucket with their current contents is the
// minimal *consistent* patch — it must take the full seqlock round trip
// (generation +2, checksum refreshed, empty-fill re-stamped) and leave
// behavior and deep validation intact.
TEST(FibApplyDelta, LabelAndDictionaryPatchesApplyInPlace) {
  auto fx = TzFixture::make(3);
  FlatFib fib =
      compile_fib(fx.scheme, fx.g, fib_churn_maintain_options().compile);
  const auto queries = all_pairs(fx.g.node_count());
  const FibBatchOutput before = forward_batch(fib, queries);
  const std::uint64_t g0 = fib.generation();

  const auto& tz = fib.tz();
  const std::uint64_t b0 = fib_dict_bucket(0, tz.dict_bucket_count);
  std::vector<std::uint64_t> bucket;
  for (std::uint64_t i = 0; i < tz.dict_bucket_cap; ++i) {
    const std::uint64_t e = tz.dict[b0 * tz.dict_bucket_cap + i];
    if (e == kFibDictEmpty) break;
    bucket.push_back(e);
  }
  ASSERT_FALSE(bucket.empty()) << "name 0's bucket has at least name 0";

  FibDelta d;
  d.touched_nodes = 1;
  d.patches.push_back(
      fib_patch_u32(fib_section::kLabelMap, 0, tz.label_of[0]));
  d.patches.push_back(fib_patch_row_u64(
      fib_section::kDictionary, static_cast<std::uint32_t>(b0), bucket));
  ASSERT_TRUE(fib.apply_delta(d));
  EXPECT_EQ(fib.generation(), g0 + 2);

  const auto blob = fib.blob();
  EXPECT_NO_THROW(FlatFib::from_blob({blob.data(), blob.size()}));
  expect_identical_batches(forward_batch(fib, queries), before,
                           "label patch");
}

TEST(FibApplyDelta, MalformedLabelPatchesAreRefused) {
  auto fx = TzFixture::make(3);
  FlatFib fib =
      compile_fib(fx.scheme, fx.g, fib_churn_maintain_options().compile);
  const std::uint32_t n = static_cast<std::uint32_t>(fx.g.node_count());
  const auto& tz = fib.tz();
  {
    FibDelta d;  // label out of range
    d.touched_nodes = 1;
    d.patches.push_back(fib_patch_u32(fib_section::kLabelMap, 0, n));
    EXPECT_FALSE(fib.apply_delta(d));
  }
  {
    FibDelta d;  // row out of range
    d.touched_nodes = 1;
    d.patches.push_back(fib_patch_u32(fib_section::kLabelMap, n, 0));
    EXPECT_FALSE(fib.apply_delta(d));
  }
  {
    FibDelta d;  // bucket index out of range
    d.touched_nodes = 1;
    d.patches.push_back(fib_patch_row_u64(
        fib_section::kDictionary,
        static_cast<std::uint32_t>(tz.dict_bucket_count),
        {fib_pack_entry(0, 0)}));
    EXPECT_FALSE(fib.apply_delta(d));
  }
  {
    FibDelta d;  // entry hashed to the wrong bucket
    const std::uint64_t b0 = fib_dict_bucket(0, tz.dict_bucket_count);
    std::uint32_t stray = 1;
    while (stray < n &&
           fib_dict_bucket(stray, tz.dict_bucket_count) == b0) {
      ++stray;
    }
    if (stray < n) {
      d.touched_nodes = 1;
      d.patches.push_back(fib_patch_row_u64(
          fib_section::kDictionary, static_cast<std::uint32_t>(b0),
          {fib_pack_entry(stray, tz.label_of[stray])}));
      EXPECT_FALSE(fib.apply_delta(d));
    }
  }
  {
    FibDelta d;  // more entries than the bucket's capacity
    std::vector<std::uint64_t> flood;
    for (std::uint64_t i = 0; i <= tz.dict_bucket_cap; ++i) {
      flood.push_back(fib_pack_entry(static_cast<std::uint32_t>(i), 0));
    }
    d.touched_nodes = 1;
    d.patches.push_back(
        fib_patch_row_u64(fib_section::kDictionary, 0, flood));
    EXPECT_FALSE(fib.apply_delta(d));
  }
  {
    FibDelta d;  // label sections are kTz-only: refused on a kCowen arena
    auto cx = CowenFixture::make(3);
    FlatFib cowen =
        compile_fib(cx.scheme, cx.g, fib_churn_maintain_options().compile);
    d.touched_nodes = 1;
    d.patches.push_back(fib_patch_u32(fib_section::kLabelMap, 0, 0));
    EXPECT_FALSE(cowen.apply_delta(d));
  }
}

TEST(FibApplyDelta, GenerationAdvancesTwicePerPatch) {
  auto fx = CowenFixture::make(3);
  FlatFib fib =
      compile_fib(fx.scheme, fx.g, fib_churn_maintain_options().compile);
  const std::uint64_t g0 = fib.generation();
  EXPECT_EQ(g0 % 2, 0u) << "stable arena must sit on an even generation";
  FibDelta d;
  d.touched_nodes = 1;
  d.patches.push_back(
      fib_patch_u32(fib_section::kCowenLandmarkPort, 0, kInvalidPort));
  ASSERT_TRUE(fib.apply_delta(d));
  EXPECT_EQ(fib.generation(), g0 + 2);
  EXPECT_EQ(fib.generation() % 2, 0u);
}

// The sim layer serves churn measurements straight off the maintained
// arena; spot-check that the report exposes how the trace was absorbed.
TEST(ChurnResilience, ReportsFibAbsorptionCounters) {
  const ShortestPath alg{16};
  // Large enough that a single-edge repair touches well under the
  // compaction fraction of the nodes — the natural in-place regime.
  auto inst = test::seeded_instance(alg, 9, 64, 0.1);
  Rng trace_rng(0xabcdef);
  const auto trace =
      random_churn_trace(alg, inst.graph, inst.weights, 10, trace_rng);
  ChurnEngine<ShortestPath> engine(alg, inst.graph, inst.weights);
  auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                 inst.weights, inst.rng);
  Rng pair_rng(7);
  const ChurnResilienceReport report = measure_resilience_under_churn(
      scheme, engine, trace, /*pairs_per_event=*/40, pair_rng);
  EXPECT_EQ(report.events, trace.size());
  // Every non-noop event was absorbed one way or the other.
  EXPECT_LE(report.fib_patched + report.fib_compactions, report.events);
  EXPECT_GT(report.fib_patched, 0u)
      << "churn service never exercised the in-place patch path";
}

}  // namespace
}  // namespace cpr
