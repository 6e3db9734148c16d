// Differential coverage for the compiled forwarding plane.
//
// Property, per seed of the random-graph corpus and per scheme family
// (heavy-path tree, interval, Cowen landmarks, RLE tables): the compiled
// FlatFib served by forward_batch is *bit-identical* — delivered flags
// and full hop-by-hop paths — to the object-based oracle
// (route_batch_object / simulate_route_with_failures), at 1 and 8
// threads, both freshly compiled and after a serialize → from_blob round
// trip. Plus: corrupted blobs (every byte position) and truncated blobs
// are rejected by the validating loader instead of misrouting.
#include "algebra/primitives.hpp"
#include "bgp/bgp_schemes.hpp"
#include "fib/compile.hpp"
#include "fib/forward_engine.hpp"
#include "routing/dijkstra.hpp"
#include "scheme/compressed_table.hpp"
#include "scheme/cowen.hpp"
#include "scheme/dest_table.hpp"
#include "scheme/interval_router.hpp"
#include "scheme/spanning_tree.hpp"
#include "scheme/tree_router.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/resilience.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cpr {
namespace {

constexpr std::size_t kCorpusSeeds = 50;
constexpr std::size_t kN = 18;
constexpr double kP = 0.25;

std::vector<std::pair<NodeId, NodeId>> all_pairs(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> q;
  q.reserve(n * n);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) q.emplace_back(s, t);
  }
  return q;
}

// next_hop[t][u] = neighbor of u toward t along the preferred tree of t.
template <RoutingAlgebra A>
std::vector<std::vector<NodeId>> preferred_next_hops(
    const A& alg, const Graph& g, const EdgeMap<typename A::Weight>& w) {
  const auto trees = all_pairs_trees(alg, CsrGraph(g), w);
  std::vector<std::vector<NodeId>> next(g.node_count());
  for (NodeId t = 0; t < g.node_count(); ++t) next[t] = trees[t].parent;
  return next;
}

// forward_batch output == oracle RouteResults, element by element.
void expect_identical(const std::vector<RouteResult>& oracle,
                      const FibBatchOutput& out, const char* what) {
  ASSERT_EQ(oracle.size(), out.results.size()) << what;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].delivered, out.results[i].delivered != 0)
        << what << " query " << i;
    const auto path = out.path(i);
    ASSERT_EQ(oracle[i].path.size(), path.size()) << what << " query " << i;
    for (std::size_t k = 0; k < path.size(); ++k) {
      EXPECT_EQ(oracle[i].path[k], path[k])
          << what << " query " << i << " hop " << k;
    }
  }
}

// The full differential + round-trip battery for one built scheme.
template <typename S>
void check_family(const S& scheme, const Graph& g, std::uint64_t seed,
                  const char* family) {
  SCOPED_TRACE(testing::Message() << family << " seed " << seed);
  const auto queries = all_pairs(g.node_count());
  ThreadPool pool1(1), pool8(8);
  const auto oracle = route_batch_object(scheme, g, queries, &pool1);

  const FlatFib fib = compile_fib(scheme, g);
  for (ThreadPool* pool : {&pool1, &pool8}) {
    FibBatchOptions opt;
    opt.pool = pool;
    expect_identical(oracle, forward_batch(fib, queries, opt), "compiled");
  }

  // Serialize → zero-copy reload → identical answers, no reconstruction.
  const auto blob = fib.blob();
  const FlatFib reloaded =
      FlatFib::from_blob({blob.data(), blob.size()});
  EXPECT_EQ(reloaded.kind(), fib.kind());
  EXPECT_EQ(reloaded.node_count(), fib.node_count());
  {
    FibBatchOptions opt;
    opt.pool = &pool8;
    expect_identical(oracle, forward_batch(reloaded, queries, opt),
                     "reloaded");
  }

  // The rewired public route_batch dispatches to the compiled plane and
  // must agree with the object oracle too.
  const auto rewired = route_batch(scheme, g, queries, &pool8);
  ASSERT_EQ(rewired.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].delivered, rewired[i].delivered) << "query " << i;
    EXPECT_EQ(oracle[i].path, rewired[i].path) << "query " << i;
  }

  // Failure mode: dead-edge drops + loop detection against the
  // step-by-step oracle, paths included.
  Rng fail_rng(seed ^ 0xf00dull);
  std::vector<bool> down(g.edge_count(), false);
  for (std::size_t e :
       fail_rng.sample_without_replacement(g.edge_count(),
                                           g.edge_count() / 5)) {
    down[e] = true;
  }
  FibBatchOptions fopt;
  fopt.pool = &pool8;
  fopt.edge_down = &down;
  const FibBatchOutput failed = forward_batch(fib, queries, fopt);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [s, t] = queries[i];
    const RouteResult r = simulate_route_with_failures(scheme, g, down, s, t);
    EXPECT_EQ(r.delivered, failed.results[i].delivered != 0)
        << "failure query " << i;
    EXPECT_EQ(r.looped, failed.results[i].looped != 0)
        << "failure query " << i;
    const auto path = failed.path(i);
    ASSERT_EQ(r.path.size(), path.size()) << "failure query " << i;
    for (std::size_t k = 0; k < path.size(); ++k) {
      EXPECT_EQ(r.path[k], path[k]) << "failure query " << i << " hop " << k;
    }
  }
}

class FibSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FibSeeds, TreeFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme =
      SpanningTreeScheme<ShortestPath>::build(alg, inst.graph, inst.weights);
  check_family(scheme, inst.graph, GetParam(), "tree");
}

TEST_P(FibSeeds, IntervalFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const IntervalRouter router(
      inst.graph, preferred_spanning_tree(alg, inst.graph, inst.weights));
  check_family(router, inst.graph, GetParam(), "interval");
}

TEST_P(FibSeeds, CowenFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                       inst.weights, inst.rng);
  check_family(scheme, inst.graph, GetParam(), "cowen");
}

// Name-independent TZ: queries address external *names*; the compiled
// kTz arena resolves them through the bucketed dictionary and forwards
// in label space. The same generic battery applies — the oracle is the
// scheme's own object path, and the non-identity label permutation (the
// build draws one explicitly) means any node-id/label confusion in the
// walker or the compile adapter misroutes immediately.
TEST_P(FibSeeds, TzFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  ASSERT_FALSE(scheme.labels().is_identity());
  check_family(scheme, inst.graph, GetParam(), "tz");
}

TEST_P(FibSeeds, TableFamilyMatchesObjectPath) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, GetParam(), kN, kP);
  const Graph& g = inst.graph;
  const auto tree_edges = preferred_spanning_tree(alg, g, inst.weights);
  const RootedTree tree = RootedTree::from_edges(g, tree_edges, 0);
  const CompressedTableScheme scheme(
      g, preferred_next_hops(alg, g, inst.weights),
      CompressedTableScheme::dfs_relabeling(g, tree.parent, 0));
  check_family(scheme, g, GetParam(), "table");
}

INSTANTIATE_TEST_SUITE_P(Corpus, FibSeeds,
                         ::testing::Range<std::uint64_t>(0, kCorpusSeeds));

// ---- Blob validation ----

FlatFib sample_fib() {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 7, kN, kP);
  const auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                       inst.weights, inst.rng);
  return compile_fib(scheme, inst.graph);
}

FlatFib sample_tz_fib() {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 7, kN, kP);
  const auto scheme = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  return compile_fib(scheme, inst.graph);
}

void expect_every_byte_flip_rejected(const FlatFib& fib) {
  const auto blob = fib.blob();
  const std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  // Every byte of the blob is guarded: header and directory fields by
  // explicit validation, padding by the all-zeros checks, sections by the
  // payload checksum. Flip one bit per byte position and expect a loud
  // throw.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0x20;
    EXPECT_THROW(FlatFib::from_blob(corrupt), std::runtime_error)
        << "undetected corruption at byte " << pos;
  }
}

TEST(FibBlob, EveryByteFlipIsRejected) {
  expect_every_byte_flip_rejected(sample_fib());
}

// The label sections (label map, dictionary) are covered by the same
// checksum and the same structural validation as everything else; a TZ
// blob must reject every single-byte flip just like a Cowen one.
TEST(FibBlob, TzEveryByteFlipIsRejected) {
  expect_every_byte_flip_rejected(sample_tz_fib());
}

TEST(FibBlob, TruncationIsRejected) {
  const FlatFib fib = sample_fib();
  const auto blob = fib.blob();
  const std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  for (const double frac : {0.0, 0.1, 0.25, 0.5, 0.75, 0.99}) {
    const std::size_t keep =
        static_cast<std::size_t>(static_cast<double>(bytes.size()) * frac);
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(FlatFib::from_blob(cut), std::runtime_error)
        << "undetected truncation to " << keep << " bytes";
  }
}

TEST(FibBlob, EmptyAndGarbageInputsAreRejected) {
  EXPECT_THROW(FlatFib::from_blob({}), std::runtime_error);
  const std::vector<std::uint8_t> garbage(256, 0xab);
  EXPECT_THROW(FlatFib::from_blob(garbage), std::runtime_error);
}

// ---- One-buffer assembly ----
//
// FibBuilder::finish() writes the blob once into its final buffer; the
// compile adapters move their sections in, hand-assembled arenas copy
// theirs. Both must give the same bytes, and the validating open at the
// end of finish() — checksum overlapped with the structural checks —
// must still reject whatever it rejected before.

struct AssemblyInstance {
  Graph g;
  FlatFib cowen, cowen_slack, tz;
};

AssemblyInstance assembly_instance() {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 11, kN, kP);
  const auto cowen = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                      inst.weights, inst.rng);
  const auto tz = TzNameIndependentScheme<ShortestPath>::build(
      alg, inst.graph, inst.weights, inst.rng);
  AssemblyInstance out{inst.graph, compile_fib(cowen, inst.graph),
                       compile_fib(cowen, inst.graph,
                                   fib_churn_maintain_options().compile),
                       compile_fib(tz, inst.graph)};
  return out;
}

// Rebuilds a compiled Cowen or TZ arena from its own views, adding the
// sections the adapters add (finish() synthesizes the mirror) either
// copied in or moved in.
FlatFib reassemble(const FlatFib& fib, const Graph& g, bool move_in) {
  const std::size_t n = fib.node_count();
  const FlatFib::CowenView& c = fib.cowen();
  FibBuilder b(fib.kind(), n);
  b.add_topology(g);
  const auto add = [&](std::uint32_t id, auto v) {
    if (move_in) {
      b.add_array(id, std::move(v));
    } else {
      b.add_array(id, v);
    }
  };
  using U32 = std::vector<std::uint32_t>;
  add(fib_section::kCowenRowOff, U32(c.row_off, c.row_off + n + 1));
  add(fib_section::kCowenRowLen, U32(c.row_len, c.row_len + n));
  add(fib_section::kCowenRows,
      std::vector<std::uint64_t>(c.rows, c.rows + c.row_off[n]));
  add(fib_section::kCowenLandmark, U32(c.landmark, c.landmark + n));
  add(fib_section::kCowenLandmarkPort,
      U32(c.landmark_port, c.landmark_port + n));
  if (fib.kind() == FibKind::kTz) {
    const FlatFib::TzView& t = fib.tz();
    add(fib_section::kLabelMap, U32(t.label_of, t.label_of + n));
    std::vector<std::uint64_t> dict{t.dict_bucket_count, t.dict_bucket_cap};
    dict.insert(dict.end(), t.dict,
                t.dict + t.dict_bucket_count * t.dict_bucket_cap);
    add(fib_section::kDictionary, std::move(dict));
  }
  add(fib_section::kCowenLandmarkCols,
      U32(c.cols, c.cols + n * c.landmark_count));
  add(fib_section::kCowenLandmarkRank, U32(c.rank, c.rank + n));
  return b.finish();
}

std::vector<std::uint8_t> blob_bytes(const FlatFib& fib) {
  const auto blob = fib.blob();
  return {blob.begin(), blob.end()};
}

TEST(FibAssembly, MovedAndCopiedSectionsGiveIdenticalBlobs) {
  const AssemblyInstance inst = assembly_instance();
  for (const FlatFib* fib : {&inst.cowen, &inst.cowen_slack, &inst.tz}) {
    const auto compiled = blob_bytes(*fib);
    EXPECT_EQ(blob_bytes(reassemble(*fib, inst.g, /*move_in=*/true)),
              compiled);
    EXPECT_EQ(blob_bytes(reassemble(*fib, inst.g, /*move_in=*/false)),
              compiled);
  }
  // The slack profile really changed the layout.
  EXPECT_NE(inst.cowen.byte_size(), inst.cowen_slack.byte_size());
}

std::string open_error(const std::vector<std::uint8_t>& bytes) {
  try {
    FlatFib::from_blob(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Rewrites the payload checksum so only the structural checks judge.
void reseal(std::vector<std::uint8_t>& bytes) {
  ASSERT_TRUE(fib_reseal_blob_checksum(bytes.data(), bytes.size()));
}

std::size_t blob_offset(const FlatFib& fib, const void* p) {
  return static_cast<std::size_t>(static_cast<const std::uint8_t*>(p) -
                                  fib.blob().data());
}

TEST(FibAssembly, MalformedCsrPassesFinishAndFailsTheLoader) {
  Graph g(2);
  g.add_edge(0, 1);
  FibBuilder b(FibKind::kCowen, 2);
  b.add_topology(g);
  const std::vector<std::uint32_t> row_off{0, 1, 2};
  const std::vector<std::uint32_t> row_len{2, 1};  // row 0: 2 > capacity 1
  const std::vector<std::uint64_t> rows{fib_pack_entry(1, 0),
                                        fib_pack_entry(0, 0)};
  const std::vector<std::uint32_t> landmark{0, 0};
  const std::vector<std::uint32_t> landmark_port{kInvalidPort, 0};
  b.add_array(fib_section::kCowenRowOff, row_off);
  b.add_array(fib_section::kCowenRowLen, row_len);
  b.add_array(fib_section::kCowenRows, rows);
  b.add_array(fib_section::kCowenLandmark, landmark);
  b.add_array(fib_section::kCowenLandmarkPort, landmark_port);
  b.add_array(fib_section::kCowenLandmarkCols,
              std::vector<std::uint32_t>{kInvalidPort, 0});
  b.add_array(fib_section::kCowenLandmarkRank,
              std::vector<std::uint32_t>{0, kNoLandmarkRank});
  try {
    b.finish();
    ADD_FAILURE() << "malformed CSR was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("row length exceeds capacity"),
              std::string::npos)
        << e.what();
  }
}

// The loader checks Cowen rows in node blocks on the pool; with faults
// in the first and the last block, the error is still the one a serial
// scan meets first, whichever block finishes first.
TEST(FibAssembly, RowCheckReportsTheLowestFailingNode) {
  constexpr std::uint32_t kNodes = 5000;  // several check blocks
  Graph g(kNodes);
  FibBuilder b(FibKind::kCowen, kNodes);
  b.add_topology(g);
  std::vector<std::uint32_t> row_off(kNodes + 1);
  for (std::uint32_t v = 0; v <= kNodes; ++v) row_off[v] = v;  // capacity 1
  std::vector<std::uint32_t> row_len(kNodes, 1);
  std::vector<std::uint64_t> rows(kNodes, fib_pack_entry(1, 0));
  row_len[0] = 0;           // node 0: its one slot becomes nonzero slack
  row_len[kNodes - 1] = 2;  // last node: length past its capacity
  b.add_array(fib_section::kCowenRowOff, std::move(row_off));
  b.add_array(fib_section::kCowenRowLen, std::move(row_len));
  b.add_array(fib_section::kCowenRows, std::move(rows));
  b.add_array(fib_section::kCowenLandmark, std::vector<std::uint32_t>(kNodes));
  b.add_array(fib_section::kCowenLandmarkPort,
              std::vector<std::uint32_t>(kNodes, kInvalidPort));
  // Node 0 is the one landmark (rank 0); no node has an edge to it.
  std::vector<std::uint32_t> rank(kNodes, kNoLandmarkRank);
  rank[0] = 0;
  b.add_array(fib_section::kCowenLandmarkCols,
              std::vector<std::uint32_t>(kNodes, kInvalidPort));
  b.add_array(fib_section::kCowenLandmarkRank, std::move(rank));
  try {
    b.finish();
    ADD_FAILURE() << "malformed rows were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "FlatFib: cowen: row slack is nonzero");
  }
}

TEST(FibAssembly, PayloadFlipFailsTheChecksum) {
  const FlatFib fib = sample_fib();
  auto bytes = blob_bytes(fib);
  // The structural checks accept any landmark port, so flipping one
  // leaves a structurally valid blob that only the checksum can reject.
  bytes[blob_offset(fib, fib.cowen().landmark_port)] ^= 0x01;
  EXPECT_EQ(open_error(bytes), "FlatFib: checksum mismatch");
  reseal(bytes);
  EXPECT_EQ(open_error(bytes), "");
}

TEST(FibAssembly, BlobCorruptBothWaysIsRejected) {
  const FlatFib fib = sample_fib();
  auto bytes = blob_bytes(fib);
  // row_off[n] must equal the row count: off by one breaks the structure
  // and the checksum at once. The checksum is reported first.
  bytes[blob_offset(fib, fib.cowen().row_off + fib.node_count())] ^= 0x01;
  EXPECT_EQ(open_error(bytes), "FlatFib: checksum mismatch");
  reseal(bytes);
  EXPECT_EQ(open_error(bytes), "FlatFib: cowen rows: offsets mismatch payload");
}

// ---- The payload checksum ----
//
// The reference below is written straight from the format definition
// (docs/forwarding_plane.md): serial, byte-addressed, no pool. The
// pooled implementation must agree with it, whatever the thread count —
// the suite runs again under a one-worker global pool (tests/CMakeLists
// .txt), so both runs pin the same values.

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t reference_checksum(const std::vector<std::uint8_t>& p) {
  const auto step = [](std::uint64_t h, std::uint64_t w) {
    return (h ^ w) * kFnvPrime;
  };
  std::uint64_t total = kFnvBasis;
  for (std::size_t at = 0; at < p.size(); at += kFibChecksumChunkBytes) {
    const std::size_t end = std::min(p.size(), at + kFibChecksumChunkBytes);
    std::uint64_t lane[4];
    for (std::uint64_t l = 0; l < 4; ++l) {
      lane[l] = kFnvBasis + l * 0x9e3779b97f4a7c15ull;
    }
    for (std::size_t i = at, k = 0; i < end; i += 8, ++k) {
      std::uint64_t w = 0;  // a trailing partial word is zero-padded
      std::memcpy(&w, p.data() + i, std::min<std::size_t>(8, end - i));
      lane[k % 4] = step(lane[k % 4], w);
    }
    std::uint64_t digest = kFnvBasis;
    for (const std::uint64_t h : lane) digest = step(digest, h);
    total = step(total, digest);
  }
  return total;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t x = seed;
  for (auto& b : out) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(x >> 56);
  }
  return out;
}

TEST(FibChecksum, MatchesTheFormatDefinition) {
  constexpr std::size_t kChunk = kFibChecksumChunkBytes;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{8}, std::size_t{13}, std::size_t{40},
        kChunk - 8, kChunk, kChunk + 8, 2 * kChunk + 43, 3 * kChunk - 8}) {
    SCOPED_TRACE(n);
    const auto bytes = pattern_bytes(n, n + 1);
    EXPECT_EQ(fib_payload_checksum(bytes.data(), n),
              reference_checksum(bytes));
  }
}

// Every step of the hash is a bijection of its state and injective in
// its word, so no change confined to one word can cancel out — here for
// every bit of 64 words (16 per lane) and a zero-padded tail word.
TEST(FibChecksum, EveryOneBitChangeChangesIt) {
  auto bytes = pattern_bytes(8 * 64 + 5, 7);
  const std::uint64_t clean = fib_payload_checksum(bytes.data(), bytes.size());
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(fib_payload_checksum(bytes.data(), bytes.size()), clean)
        << "bit " << bit;
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// A two-node Cowen arena plus a 3 MiB section no structural check reads,
// so its payload spans four checksum chunks.
FlatFib multi_chunk_fib() {
  Graph g(2);
  g.add_edge(0, 1);
  FibBuilder b(FibKind::kCowen, 2);
  b.add_topology(g);
  // Node 0 is the landmark: node 1 reaches it through its column, and
  // node 0 keeps a ball entry toward node 1.
  b.add_array(fib_section::kCowenRowOff, std::vector<std::uint32_t>{0, 1, 2});
  b.add_array(fib_section::kCowenRowLen, std::vector<std::uint32_t>{1, 0});
  b.add_array(fib_section::kCowenRows,
              std::vector<std::uint64_t>{fib_pack_entry(1, 0), 0});
  b.add_array(fib_section::kCowenLandmark, std::vector<std::uint32_t>{0, 0});
  b.add_array(fib_section::kCowenLandmarkPort,
              std::vector<std::uint32_t>{kInvalidPort, 0});
  b.add_array(fib_section::kCowenLandmarkCols,
              std::vector<std::uint32_t>{kInvalidPort, 0});
  b.add_array(fib_section::kCowenLandmarkRank,
              std::vector<std::uint32_t>{0, kNoLandmarkRank});
  b.add_array(99, pattern_bytes(3 * kFibChecksumChunkBytes + 1000, 99));
  return b.finish();
}

TEST(FibChecksum, OneBitFlipAtEveryChunkEdgeAndLaneIsRejected) {
  const FlatFib fib = multi_chunk_fib();
  const auto clean = blob_bytes(fib);
  std::uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes, clean.data() + 24, 8);
  const std::size_t begin = clean.size() - payload_bytes;
  const std::size_t chunks =
      (payload_bytes + kFibChecksumChunkBytes - 1) / kFibChecksumChunkBytes;
  ASSERT_GT(chunks, 2u);
  EXPECT_EQ(open_error(clean), "");
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * kFibChecksumChunkBytes;
    const std::size_t hi =
        std::min(clean.size(), lo + kFibChecksumChunkBytes);
    // The first word of every lane, and the chunk's last word.
    std::vector<std::size_t> words = {hi - 8};
    for (std::size_t l = 0; l < kFibChecksumLanes; ++l) {
      words.push_back(lo + 8 * l);
    }
    for (const std::size_t w : words) {
      for (const std::size_t bit : {0, 63}) {
        auto bytes = clean;
        bytes[w + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_EQ(open_error(bytes), "FlatFib: checksum mismatch")
            << "chunk " << c << ", byte " << w << ", bit " << bit;
      }
    }
  }
}

// ---- Degenerate graphs ----
//
// The format legalizes node_count == 0, and single-node / single-edge
// graphs hit every boundary condition in the per-kind validators (empty
// CSRs, sentinel-only offset arrays, rootless trees). Every compiled family
// must round-trip through blob() → from_blob and keep forwarding.

// Serialize → reload → serve an (empty) batch; validation must accept.
void expect_degenerate_roundtrip(const FlatFib& fib, std::size_t n) {
  EXPECT_EQ(fib.node_count(), n);
  const auto blob = fib.blob();
  const FlatFib reloaded = FlatFib::from_blob({blob.data(), blob.size()});
  EXPECT_EQ(reloaded.kind(), fib.kind());
  EXPECT_EQ(reloaded.node_count(), n);
  const auto queries = all_pairs(n);
  FibBatchOptions opt;
  const FibBatchOutput out = forward_batch(reloaded, queries, opt);
  ASSERT_EQ(out.results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // On these tiny connected graphs every pair must deliver.
    EXPECT_EQ(out.results[i].delivered != 0, true) << "query " << i;
  }
}

// The empty graph has no scheme builders, so assemble the minimal valid
// arena of each kind by hand: sentinel-only offset arrays and zero-length
// payload sections.
TEST(FibDegenerate, EmptyGraphRoundTripsEveryKind) {
  const Graph g(0);
  const std::vector<std::uint32_t> sentinel{0};
  const std::vector<std::uint32_t> none;
  {
    FibBuilder b(FibKind::kTree, 0);
    b.add_topology(g);
    b.add_array(fib_section::kTreeNodes, std::vector<FibTreeNode>(1));
    b.add_array(fib_section::kTreeLightPorts, none);
    b.add_array(fib_section::kTreeLabelOff, sentinel);
    b.add_array(fib_section::kTreeLabelSeq, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    FibBuilder b(FibKind::kInterval, 0);
    b.add_topology(g);
    b.add_array(fib_section::kIntervalNodes, std::vector<FibIntervalNode>(1));
    b.add_array(fib_section::kIntervalChildIn, none);
    b.add_array(fib_section::kIntervalChildPort, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    FibBuilder b(FibKind::kCowen, 0);
    b.add_topology(g);
    b.add_array(fib_section::kCowenRowOff, sentinel);
    b.add_array(fib_section::kCowenRowLen, none);
    b.add_array(fib_section::kCowenRows, std::vector<std::uint64_t>{});
    b.add_array(fib_section::kCowenLandmark, none);
    b.add_array(fib_section::kCowenLandmarkPort, none);
    b.add_array(fib_section::kCowenLandmarkCols, none);
    b.add_array(fib_section::kCowenLandmarkRank, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    // kTz adds the label map (empty permutation) and the dictionary —
    // whose header must still carry a nonzero bucket count (the shared
    // sizing helper never returns 0) with every slot empty.
    FibBuilder b(FibKind::kTz, 0);
    b.add_topology(g);
    b.add_array(fib_section::kCowenRowOff, sentinel);
    b.add_array(fib_section::kCowenRowLen, none);
    b.add_array(fib_section::kCowenRows, std::vector<std::uint64_t>{});
    b.add_array(fib_section::kCowenLandmark, none);
    b.add_array(fib_section::kCowenLandmarkPort, none);
    b.add_array(fib_section::kLabelMap, none);
    b.add_array(fib_section::kDictionary,
                std::vector<std::uint64_t>{1, 1, kFibDictEmpty});
    b.add_array(fib_section::kCowenLandmarkCols, none);
    b.add_array(fib_section::kCowenLandmarkRank, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    FibBuilder b(FibKind::kTable, 0);
    b.add_topology(g);
    b.add_array(fib_section::kTableRowOff, sentinel);
    b.add_array(fib_section::kTableRuns, std::vector<std::uint64_t>{});
    b.add_array(fib_section::kTableRelabel, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
  {
    FibBuilder b(FibKind::kMesh, 0);
    b.add_topology(g);
    b.add_array(fib_section::kMeshInfo, sentinel);  // component_count == 0
    b.add_array(fib_section::kMeshComp, none);
    b.add_array(fib_section::kMeshPeerPort, none);
    b.add_array(fib_section::kMeshNodes, std::vector<FibTreeNode>(1));
    b.add_array(fib_section::kMeshLightPorts, none);
    b.add_array(fib_section::kMeshLabelOff, sentinel);
    b.add_array(fib_section::kMeshLabelSeq, none);
    expect_degenerate_roundtrip(b.finish(), 0);
  }
}

// A nonzero component count on an empty FIB must be rejected, not served.
TEST(FibDegenerate, EmptyMeshWithComponentsIsRejected) {
  FibBuilder b(FibKind::kMesh, 0);
  b.add_topology(Graph(0));
  b.add_array(fib_section::kMeshInfo, std::vector<std::uint32_t>{1});
  b.add_array(fib_section::kMeshComp, std::vector<std::uint32_t>{});
  b.add_array(fib_section::kMeshPeerPort, std::vector<std::uint32_t>{});
  b.add_array(fib_section::kMeshNodes, std::vector<FibTreeNode>(1));
  b.add_array(fib_section::kMeshLightPorts, std::vector<std::uint32_t>{});
  b.add_array(fib_section::kMeshLabelOff, std::vector<std::uint32_t>{0});
  b.add_array(fib_section::kMeshLabelSeq, std::vector<std::uint32_t>{});
  EXPECT_THROW(b.finish(), std::runtime_error);
}

// Single-node and two-node-single-edge instances of the plain families,
// put through the full differential battery (compile, round-trip,
// route_batch, failure modes).
void check_plain_degenerate(const Graph& g, std::uint64_t seed) {
  const ShortestPath alg{16};
  Rng rng(seed);
  const auto w = test::sampled_weights(alg, g, rng);
  {
    const auto scheme = SpanningTreeScheme<ShortestPath>::build(alg, g, w);
    check_family(scheme, g, seed, "tree-degenerate");
  }
  {
    const IntervalRouter router(g, preferred_spanning_tree(alg, g, w));
    check_family(router, g, seed, "interval-degenerate");
  }
  {
    const auto scheme = CowenScheme<ShortestPath>::build(alg, g, w, rng);
    check_family(scheme, g, seed, "cowen-degenerate");
  }
  {
    const auto tree_edges = preferred_spanning_tree(alg, g, w);
    const RootedTree tree = RootedTree::from_edges(g, tree_edges, 0);
    const CompressedTableScheme scheme(
        g, preferred_next_hops(alg, g, w),
        CompressedTableScheme::dfs_relabeling(g, tree.parent, 0));
    check_family(scheme, g, seed, "table-degenerate");
  }
  {
    const auto scheme = DestinationTableScheme::from_algebra(alg, g, w);
    check_family(scheme, g, seed, "dest-table-degenerate");
  }
  {
    // n == 1 forces the identity label map (no non-trivial permutation
    // exists); the scheme and the kTz walker must still deliver.
    const auto scheme =
        TzNameIndependentScheme<ShortestPath>::build(alg, g, w, rng);
    check_family(scheme, g, seed, "tz-degenerate");
  }
}

TEST(FibDegenerate, SingleNodePlainFamilies) {
  check_plain_degenerate(Graph(1), 11);
}

TEST(FibDegenerate, TwoNodeSingleEdgePlainFamilies) {
  Graph g(2);
  g.add_edge(0, 1);
  check_plain_degenerate(g, 12);
}

TEST(FibDegenerate, SingleNodeBgpFamilies) {
  AsTopology topo;
  topo.graph = Digraph(1);
  const ProviderTreeScheme pt(topo);
  check_family(pt, pt.shadow(), 21, "provider-tree-n1");
  const SvfcPeerMeshScheme mesh(topo);
  EXPECT_EQ(mesh.component_count(), 1u);
  check_family(mesh, mesh.shadow(), 21, "mesh-n1");
  const Graph shadow = topo.graph.undirected_shadow();
  const auto tables = bgp_destination_tables(topo, shadow);
  check_family(tables, shadow, 21, "bgp-dest-table-n1");
}

TEST(FibDegenerate, TwoNodeSingleProviderEdgeBgpFamilies) {
  AsTopology topo;
  topo.graph = Digraph(2);
  topo.graph.add_arc_pair(1, 0);  // 1's provider is 0
  topo.relation.push_back(Relationship::kProvider);
  topo.relation.push_back(Relationship::kCustomer);
  const ProviderTreeScheme pt(topo);
  check_family(pt, pt.shadow(), 22, "provider-tree-n2");
  const SvfcPeerMeshScheme mesh(topo);
  EXPECT_EQ(mesh.component_count(), 1u);
  check_family(mesh, mesh.shadow(), 22, "mesh-n2");
  const Graph shadow = topo.graph.undirected_shadow();
  const auto tables = bgp_destination_tables(topo, shadow);
  check_family(tables, shadow, 22, "bgp-dest-table-n2");
}

TEST(FibDegenerate, TwoPeeredRootsCompileAsTwoComponentMesh) {
  // Two single-node provider trees joined only by the root peering —
  // the smallest FIB whose peer matrix actually routes a packet.
  AsTopology topo;
  topo.graph = Digraph(2);
  topo.graph.add_arc_pair(0, 1);
  topo.relation.push_back(Relationship::kPeer);
  topo.relation.push_back(Relationship::kPeer);
  const SvfcPeerMeshScheme mesh(topo);
  EXPECT_EQ(mesh.component_count(), 2u);
  check_family(mesh, mesh.shadow(), 23, "mesh-two-roots");
}

// ---- Landmark columns ----
//
// Structure-aware mutations of the column and rank sections, resealed so
// the checksum passes and the structural validator is what must reject
// them, on both landmark kinds (the kTz rank map is label-indexed, its
// columns node-indexed).

// The blob of `fib` with `mutate(words, cols, rank)` applied to the
// column and rank sections in place, resealed; "" when it opens, the
// loader's message otherwise.
template <typename Mutate>
std::string mutated_open_error(const FlatFib& fib, const Mutate& mutate) {
  auto bytes = blob_bytes(fib);
  const FlatFib::CowenView& c = fib.cowen();
  auto* cols =
      reinterpret_cast<std::uint32_t*>(bytes.data() + blob_offset(fib, c.cols));
  auto* rank =
      reinterpret_cast<std::uint32_t*>(bytes.data() + blob_offset(fib, c.rank));
  mutate(cols, rank);
  EXPECT_TRUE(fib_reseal_blob_checksum(bytes.data(), bytes.size()));
  return open_error(bytes);
}

// Keys (node ids, or labels for kTz) holding rank r, and a non-landmark.
std::uint32_t key_of_rank(const FlatFib& fib, std::uint32_t r) {
  for (std::uint32_t k = 0; k < fib.node_count(); ++k) {
    if (fib.cowen().rank[k] == r) return k;
  }
  ADD_FAILURE() << "no key holds rank " << r;
  return 0;
}
std::uint32_t some_non_landmark(const FlatFib& fib) {
  for (std::uint32_t k = 0; k < fib.node_count(); ++k) {
    if (fib.cowen().rank[k] == kNoLandmarkRank) return k;
  }
  ADD_FAILURE() << "every key is a landmark";
  return 0;
}

TEST(FibColumns, StructuralMutationsAreRejected) {
  const FlatFib fibs[] = {sample_fib(), sample_tz_fib()};
  for (const FlatFib& fib : fibs) {
    SCOPED_TRACE(static_cast<int>(fib.kind()));
    const FlatFib::CowenView& c = fib.cowen();
    const std::uint32_t lc = c.landmark_count;
    ASSERT_GE(lc, 2u);
    ASSERT_EQ(mutated_open_error(fib, [](auto*, auto*) {}), "");

    // A port at or past the node's degree.
    const auto degree = static_cast<std::uint32_t>(fib.topo().degree(3));
    EXPECT_EQ(mutated_open_error(fib,
                                 [&](std::uint32_t* cols, std::uint32_t*) {
                                   cols[3 * lc + 1] = degree;
                                 }),
              "FlatFib: cowen: landmark column port out of range");
    // A rank at or past |L|.
    EXPECT_EQ(mutated_open_error(fib,
                                 [&](std::uint32_t*, std::uint32_t* rank) {
                                   rank[key_of_rank(fib, lc - 1)] = lc;
                                 }),
              "FlatFib: cowen: landmark rank out of range");
    // Two landmarks sharing a rank.
    EXPECT_EQ(mutated_open_error(fib,
                                 [&](std::uint32_t*, std::uint32_t* rank) {
                                   rank[key_of_rank(fib, 1)] = 0;
                                 }),
              "FlatFib: cowen: duplicate landmark rank");
    // A non-landmark carrying a rank.
    EXPECT_EQ(mutated_open_error(fib,
                                 [&](std::uint32_t*, std::uint32_t* rank) {
                                   rank[some_non_landmark(fib)] = 0;
                                 }),
              "FlatFib: cowen: rank on a non-landmark");
    // A landmark without one.
    EXPECT_EQ(mutated_open_error(fib,
                                 [&](std::uint32_t*, std::uint32_t* rank) {
                                   rank[key_of_rank(fib, 0)] = kNoLandmarkRank;
                                 }),
              "FlatFib: cowen: landmark without a rank");
    // A ball-row key promoted to a rank: the row check names the row.
    std::uint32_t ball_key = kNoLandmarkRank;
    for (NodeId u = 0; u < fib.node_count() && ball_key == kNoLandmarkRank;
         ++u) {
      if (c.row_len[u] > 0) ball_key = fib_entry_key(c.rows[c.row_off[u]]);
    }
    ASSERT_NE(ball_key, kNoLandmarkRank);
    EXPECT_EQ(mutated_open_error(fib,
                                 [&](std::uint32_t*, std::uint32_t* rank) {
                                   rank[ball_key] = 0;
                                 }),
              "FlatFib: cowen: ball row holds a landmark key");
  }
}

// The rank check runs in node blocks on the pool: with faults in the
// first and the last block, the error is the one a serial scan meets
// first.
TEST(FibColumns, RankCheckReportsTheLowestFailingNode) {
  constexpr std::uint32_t kNodes = 5000;  // several check blocks
  Graph g(kNodes);
  FibBuilder b(FibKind::kCowen, kNodes);
  b.add_topology(g);
  std::vector<std::uint32_t> row_off(kNodes + 1, 0);
  std::vector<std::uint32_t> landmark(kNodes, 0);
  landmark[kNodes - 1] = kNodes - 1;  // landmarks: node 0 and the last
  std::vector<std::uint32_t> rank(kNodes, kNoLandmarkRank);
  rank[0] = 0;
  rank[10] = 0;          // block 0: a non-landmark with a rank
  rank[kNodes - 1] = 7;  // last block: a rank past |L| = 2
  b.add_array(fib_section::kCowenRowOff, std::move(row_off));
  b.add_array(fib_section::kCowenRowLen, std::vector<std::uint32_t>(kNodes));
  b.add_array(fib_section::kCowenRows, std::vector<std::uint64_t>{});
  b.add_array(fib_section::kCowenLandmark, std::move(landmark));
  b.add_array(fib_section::kCowenLandmarkPort,
              std::vector<std::uint32_t>(kNodes, kInvalidPort));
  b.add_array(fib_section::kCowenLandmarkCols,
              std::vector<std::uint32_t>(2 * kNodes, kInvalidPort));
  b.add_array(fib_section::kCowenLandmarkRank, std::move(rank));
  try {
    b.finish();
    ADD_FAILURE() << "malformed ranks were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "FlatFib: cowen: rank on a non-landmark");
  }
}

// apply_delta keeps every column invariant the loader checks: malformed
// column patches, landmark keys in ball rows and landmark-slot patches
// that would move the pinned landmark set are refused with the arena
// untouched; a well-formed column patch lands and reloads.
TEST(FibColumns, PatchesKeepTheColumnInvariants) {
  const ShortestPath alg{16};
  auto inst = test::seeded_instance(alg, 5, kN, kP);
  const auto scheme = CowenScheme<ShortestPath>::build(alg, inst.graph,
                                                       inst.weights, inst.rng);
  FlatFib fib =
      compile_fib(scheme, inst.graph, fib_churn_maintain_options().compile);
  const auto before = blob_bytes(fib);
  const std::uint32_t n = static_cast<std::uint32_t>(fib.node_count());
  const std::uint32_t lc = fib.cowen().landmark_count;
  ASSERT_GE(lc, 2u);
  NodeId u = 0;
  while (fib.topo().degree(u) == 0) ++u;
  const auto degree = static_cast<std::uint32_t>(fib.topo().degree(u));
  const std::uint32_t l = key_of_rank(fib, 0);
  const std::uint32_t v = some_non_landmark(fib);
  const auto column = [](std::uint32_t row, std::vector<std::uint64_t> w) {
    return fib_patch_row_u64(fib_section::kCowenLandmarkCols, row, w);
  };
  const auto refused = [&](FibRowPatch p, const char* what) {
    FibDelta d;
    d.touched_nodes = 1;
    d.patches.push_back(std::move(p));
    EXPECT_FALSE(fib.apply_delta(d)) << what;
    EXPECT_EQ(blob_bytes(fib), before) << what;
  };
  refused(column(u, {fib_pack_entry(lc, 0)}), "rank past |L|");
  refused(column(u, {fib_pack_entry(0, degree)}), "port past the degree");
  refused(column(u, {fib_pack_entry(1, 0), fib_pack_entry(0, 0)}),
          "ranks not increasing");
  refused(column(n, {fib_pack_entry(0, 0)}), "row past n");
  refused(fib_patch_row_u64(fib_section::kCowenRows, u,
                            {fib_pack_entry(l, 0)}),
          "landmark key in a ball row");
  refused(fib_patch_u32(fib_section::kCowenLandmark, v, v),
          "a non-landmark naming itself");
  refused(fib_patch_u32(fib_section::kCowenLandmark, l, v),
          "a landmark renamed away");

  FibDelta d;
  d.touched_nodes = 1;
  d.patches.push_back(
      column(u, {fib_pack_entry(0, kInvalidPort), fib_pack_entry(1, 0)}));
  ASSERT_TRUE(fib.apply_delta(d));
  EXPECT_EQ(fib.cowen().cols[u * lc], kInvalidPort);
  EXPECT_EQ(fib.cowen().cols[u * lc + 1], 0u);
  const FlatFib reopened = FlatFib::from_blob(fib.blob());
  EXPECT_EQ(reopened.cowen().cols[u * lc], kInvalidPort);
  EXPECT_EQ(reopened.cowen().cols[u * lc + 1], 0u);
}

// forward_batch indexes queries with u32; the bound is checked on the
// count alone, before anything is allocated.
TEST(FibBatchLimits, QueryCountPastU32IsRejected) {
  EXPECT_NO_THROW(fib_check_batch_size(0));
  EXPECT_NO_THROW(fib_check_batch_size(kFibMaxBatchQueries));
  EXPECT_THROW(fib_check_batch_size(kFibMaxBatchQueries + 1),
               std::length_error);
  EXPECT_THROW(fib_check_batch_size(~std::size_t{0}), std::length_error);
  EXPECT_EQ(kFibMaxBatchQueries, std::size_t{0xffffffffu});
}

}  // namespace
}  // namespace cpr
