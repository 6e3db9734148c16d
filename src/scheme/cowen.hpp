// Generalized Cowen stretch-3 compact routing (Theorem 3).
//
// For a delimited *regular* algebra, Cowen's landmark scheme carries over
// verbatim: pick a landmark set L, associate with each node u its
// ⪯-closest landmark l_u, define the ball
//     B(u) = { v : w(p*_uv) ≺ w(p*_u,l_u) }
// and the cluster C(u) = { v : u ∈ B(v) }. The label of v is the triplet
// (v, l_v, port_{l_v,v}); node u keeps a (target, port) entry for every
// v ∈ C(u) ∪ L. The two halves are stored apart: the cluster ("ball")
// entries as a short sorted row per node, the landmark entries as a
// dense n × |L| port matrix indexed by landmark rank (landmarks in
// ascending id order), so a landmark entry costs one port and no target
// id. In-cluster packets follow preferred paths; everything
// else detours via the target's landmark, and Lemma 4 (triangle
// inequality + isotonicity) bounds the detour by algebraic stretch 3:
//     w(p*_u,l_v) ⊕ w(p*_l_v,v) ⪯ (w(p*_u,v))³.
//
// Ball strictness: for strictly monotone algebras the strict ball above is
// the right choice (proper subpaths of preferred paths strictly improve,
// so Lemma 3's "the next hop also stores the entry" holds — Cowen's
// original argument). For weakly monotone algebras correctness needs the
// non-strict ball w(p*_uv) ⪯ w(p*_u,l_u); with heavily tied weight sets
// (selective algebras) the non-strict balls and hence the tables can grow
// toward Θ(n) — which is exactly the paper's message in Section 4.1 that
// for selective algebras the *tree* scheme, not the landmark scheme, is
// the right tool (stretch-3 paths coincide with preferred paths there).
// The constructor picks strictness from the algebra's SM flag; tests pin
// both behaviours.
//
// Landmark sizing follows Thorup–Zwick's refinement of Cowen's analysis:
// an initial random sample of ~sqrt(n ln n) landmarks, then any node whose
// cluster exceeds the cap is promoted to a landmark and balls are
// recomputed, which terminates and keeps max |C(u)| bounded.
//
// Parallel construction: the heavy phases — per-root preferred-path trees,
// nearest-landmark assignment, ball/cluster scans, table fill — are
// independent per node, so they fan out over a ThreadPool. All randomness
// (the landmark sample) is drawn sequentially before any parallel region,
// every parallel loop writes only the slot of its own index, and the
// promotion reduction runs on the calling thread in node order, so the
// resulting scheme is bit-identical for every thread count (pinned by
// tests/test_parallel_determinism.cpp).
#pragma once

#include "algebra/algebra.hpp"
#include "fib/fib_delta.hpp"
#include "graph/csr_graph.hpp"
#include "routing/dijkstra.hpp"
#include "scheme/scheme.hpp"
#include "util/bitstream.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cpr {

struct CowenOptions {
  // 0 = automatic: ceil(sqrt(n * max(1, ln n))).
  std::size_t initial_landmarks = 0;
  // 0 = automatic: 4 * ceil(sqrt(n * max(1, ln n))). Nodes with bigger
  // clusters get promoted to landmarks.
  std::size_t cluster_cap = 0;
  // Force strict/non-strict balls; by default follows the SM flag.
  enum class Balls { kAuto, kStrict, kNonStrict } balls = Balls::kAuto;
  // Pool for the parallel construction phases; nullptr = process-global
  // pool. The built scheme does not depend on the pool's thread count.
  ThreadPool* pool = nullptr;
  // Construction strategy. kStreaming (default) runs full SSSP trees only
  // for the ~√(n ln n) landmarks and enumerates every other node's ball
  // with a truncated Dijkstra stopped at its nearest-landmark radius, so
  // peak memory is Θ(n·|L|) (the size of the output tables) instead of
  // the Θ(n²) of materializing all_pairs_trees. kMaterialized is the
  // original path, kept (with rebuild_from) as the exhaustive
  // differential oracle; churn never uses it. Both produce bit-identical
  // schemes for every thread count (tests/test_cowen_streaming.cpp).
  enum class Construction { kStreaming, kMaterialized };
  Construction construction = Construction::kStreaming;
  // Measurement-only escape hatch for the very largest streaming sweeps
  // (n ~ 10⁶, where the Θ(n·|L|) tables themselves are tens of GB):
  // false skips materializing the ball rows and the landmark port matrix
  // — landmark assignment, cluster sizes, promotion decisions and labels
  // stay exact, but forward() has no entries to route by. bench_json's
  // 1M stretch-goal leg uses this.
  bool materialize_tables = true;
  // Landmark SSSP batch size for the streaming construction — bounds how
  // many full trees are resident at once during the nearest-landmark
  // fold. 0 = default (32).
  std::size_t landmark_batch = 0;
};

// What CowenScheme::apply_event did for one churn event.
struct CowenRepairStats {
  // Always false: every event is repaired by the same pinned streamed
  // rebuild plus diff. Kept for callers that report a fallback rate.
  bool full_rebuild = false;
  // Footprint on the compiled plane: one row patch per ball table that
  // actually changed, one column patch per node whose landmark ports
  // moved, and slot patches for moved landmark labels. Empty when the
  // event left every table and label unchanged.
  FibDelta fib_delta;
};

template <RoutingAlgebra A>
class CowenScheme {
 public:
  using W = typename A::Weight;

  struct Header {
    NodeId target = kInvalidNode;
    NodeId landmark = kInvalidNode;
    Port port_at_landmark = kInvalidPort;

    // (node, header) pairs determine forwarding steps; equality feeds the
    // simulator's loop detection.
    bool operator==(const Header&) const = default;
  };

  static CowenScheme build(const A& alg, const Graph& g,
                           const EdgeMap<W>& w, Rng& rng,
                           CowenOptions opt = {}) {
    CowenScheme s(alg, g);
    const std::size_t n = g.node_count();
    const double lg = std::max(1.0, std::log(static_cast<double>(std::max<std::size_t>(n, 2))));
    const std::size_t init =
        opt.initial_landmarks > 0
            ? opt.initial_landmarks
            : static_cast<std::size_t>(
                  std::ceil(std::sqrt(static_cast<double>(n) * lg)));
    s.cluster_cap_ =
        opt.cluster_cap > 0 ? opt.cluster_cap : 4 * std::max<std::size_t>(init, 1);
    switch (opt.balls) {
      case CowenOptions::Balls::kStrict:
        s.strict_balls_ = true;
        break;
      case CowenOptions::Balls::kNonStrict:
        s.strict_balls_ = false;
        break;
      case CowenOptions::Balls::kAuto:
        s.strict_balls_ = alg.properties().strictly_monotone;
        break;
    }

    s.pool_ = opt.pool ? opt.pool : &ThreadPool::global();
    s.landmark_batch_ = opt.landmark_batch ? opt.landmark_batch : 32;

    // Flat CSR snapshot: every later phase (tree fan-out, ball/cluster
    // scans, table fill with its O(log deg) port lookups) reads it.
    s.csr_ = CsrGraph(g);

    // The landmark sample is the only randomness; drawing it at the same
    // point in both constructions keeps the rng stream — and hence the
    // landmark set — identical between them.
    s.is_landmark_.assign(n, false);
    const std::size_t sample = std::min(init, n);
    for (std::size_t i : rng.sample_without_replacement(n, sample)) {
      s.is_landmark_[i] = true;
    }
    s.initial_landmark_count_ = sample;

    if (opt.construction == CowenOptions::Construction::kMaterialized) {
      // Preferred-path trees from every root; tree[t] gives both
      // w(p*_t,u) and u's next hop toward t (undirected + commutative).
      // One policy-Dijkstra per root, fanned out across the pool.
      s.trees_ = all_pairs_trees(alg, s.csr_, w, s.pool_);
      s.recompute_until_stable();
      if (opt.materialize_tables) {
        s.build_tables();
      } else {
        s.rank_landmarks();
        s.port_at_landmark_.assign(n, kInvalidPort);
        parallel_for(
            *s.pool_, 0, n,
            [&s](std::size_t i) {
              s.port_at_landmark_[i] =
                  s.compute_port_at_landmark(static_cast<NodeId>(i));
            },
            /*grain=*/64);
        s.ball_tables_.assign(n, {});
      }
    } else {
      s.build_streaming(w, opt.materialize_tables, s.landmark_batch_,
                        /*promote=*/true);
    }
    return s;
  }

  // Pinned-landmark full rebuild on the weight map `w` through the
  // materialized path: recomputes every tree, assignment, ball, cluster
  // count and table, but keeps the landmark *set* fixed (no promotion).
  // It is the independent oracle apply_event's streamed rebuild is
  // tested against. Landmarks stay pinned under churn so repair is a
  // pure function of the weights — the price is that clusters may grow
  // past cluster_cap_ until the operator rebuilds with promotion
  // (`build`); cluster_size() exposes the drift (docs/dynamic_topology.md
  // derives the staleness bound).
  void rebuild_from(const EdgeMap<W>& w) {
    trees_ = all_pairs_trees(alg_, csr_, w, pool_);
    assign_landmarks();
    refresh_cluster_sizes(ball_radii());
    build_tables();
  }

  // Repair for one churn event on edge e: a pinned-landmark streamed
  // rebuild on the post-event weight map `w`, then a diff against the
  // previous state into the FibDelta the compiled plane absorbs. old_w
  // and new_w (φ encoding, φ = down) are not needed by the rebuild; the
  // signature matches the other schemes' apply_event. The result is
  // byte-identical to rebuild_from(w) — pinned per event by
  // tests/test_churn_differential.cpp — and needs only the streamed
  // build's Θ(n·|L|) memory: no tree is ever made resident.
  CowenRepairStats apply_event(EdgeId e, const W& /*old_w*/,
                               const W& /*new_w*/, const EdgeMap<W>& w) {
    CowenRepairStats stats;
    const std::size_t n = graph_->node_count();
    if (n == 0 || e >= graph_->edge_count()) return stats;

    const auto old_tables = std::move(ball_tables_);
    std::vector<Port> old_ports = std::move(landmark_ports_);
    const std::vector<NodeId> old_landmark_of = std::move(landmark_of_);
    const std::vector<Port> old_port_at_landmark = std::move(port_at_landmark_);
    // Trees from a materialized build describe the pre-event weights; drop
    // them so tree() cannot serve stale paths.
    std::vector<PathTree<W>>().swap(trees_);
    build_streaming(w, /*materialize_tables=*/true, landmark_batch_,
                    /*promote=*/false);
    // A stats-only build had no matrix: every port it gains has moved.
    old_ports.resize(landmark_ports_.size(), kInvalidPort);

    // One full-row patch per ball table that moved, one column patch per
    // node listing its moved landmark ports as packed (rank, port) words,
    // plus 4-byte slot patches for landmark / port-at-landmark changes, in
    // node-id order so the arena's patcher streams forward. Landmarks and
    // ranks are pinned, so the old and new matrices have the same shape
    // and a column patch is keyed by node, never by a u·|L| slot index.
    const std::size_t lc = landmarks_.size();
    std::vector<std::uint64_t> row, moved;
    for (NodeId v = 0; v < n; ++v) {
      const bool table_moved = ball_tables_[v] != old_tables[v];
      const bool lm_moved = landmark_of_[v] != old_landmark_of[v];
      const bool lport_moved = port_at_landmark_[v] != old_port_at_landmark[v];
      moved.clear();
      for (std::size_t r = 0; r < lc; ++r) {
        const Port p = landmark_ports_[v * lc + r];
        if (p != old_ports[v * lc + r]) {
          moved.push_back(fib_pack_entry(static_cast<std::uint32_t>(r), p));
        }
      }
      if (!(table_moved || lm_moved || lport_moved || !moved.empty())) {
        continue;
      }
      ++stats.fib_delta.touched_nodes;
      if (table_moved) {
        row.clear();
        for (const auto& [target, port] : ball_tables_[v]) {
          row.push_back(fib_pack_entry(target, port));
        }
        stats.fib_delta.patches.push_back(
            fib_patch_row_u64(fib_section::kCowenRows, v, row));
      }
      if (!moved.empty()) {
        stats.fib_delta.patches.push_back(
            fib_patch_row_u64(fib_section::kCowenLandmarkCols, v, moved));
      }
      if (lm_moved) {
        stats.fib_delta.patches.push_back(
            fib_patch_u32(fib_section::kCowenLandmark, v, landmark_of_[v]));
      }
      if (lport_moved) {
        stats.fib_delta.patches.push_back(fib_patch_u32(
            fib_section::kCowenLandmarkPort, v, port_at_landmark_[v]));
      }
    }
    return stats;
  }

  Header make_header(NodeId target) const {
    Header h;
    h.target = target;
    h.landmark = landmark_of_[target];
    h.port_at_landmark = port_at_landmark_[target];
    return h;
  }

  Decision forward(NodeId u, Header& h) const {
    if (u == h.target) return Decision::delivered();
    if (const Port* direct = table_lookup(u, h.target)) {
      return Decision::via(*direct);
    }
    if (u == h.landmark) return Decision::via(h.port_at_landmark);
    if (const Port* toward = table_lookup(u, h.landmark)) {
      return Decision::via(*toward);
    }
    return Decision::via(kInvalidPort);
  }

  std::size_t local_memory_bits(NodeId u) const {
    BitWriter bits;
    const std::size_t n = graph_->node_count();
    const auto entries = table(u);
    bits.write_varint(entries.size());
    for (const auto& [target, port] : entries) {
      bits.write_bounded(target, n);
      bits.write_bounded(port, std::max<std::size_t>(graph_->degree(u), 1));
    }
    return bits.bit_count();
  }

  std::size_t label_bits(NodeId v) const {
    return encode_header(make_header(v)).second;
  }

  // Bit-exact label codec for the (target, landmark, port-at-landmark)
  // triplet; round-tripped in the tests so the reported label sizes are
  // decodable, like the tree router's.
  std::pair<std::vector<std::uint8_t>, std::size_t> encode_header(
      const Header& h) const {
    BitWriter bits;
    const std::size_t n = graph_->node_count();
    bits.write_bounded(h.target, n);
    bits.write_bounded(h.landmark, n);
    bits.write_bit(h.port_at_landmark != kInvalidPort);
    if (h.port_at_landmark != kInvalidPort) {
      bits.write_bounded(
          h.port_at_landmark,
          std::max<std::size_t>(graph_->degree(h.landmark), 1));
    }
    return {bits.bytes(), bits.bit_count()};
  }

  Header decode_header(const std::vector<std::uint8_t>& bytes) const {
    BitReader reader(bytes);
    const std::size_t n = graph_->node_count();
    Header h;
    h.target = static_cast<NodeId>(reader.read_bounded(n));
    h.landmark = static_cast<NodeId>(reader.read_bounded(n));
    if (reader.read_bit()) {
      h.port_at_landmark = static_cast<Port>(reader.read_bounded(
          std::max<std::size_t>(graph_->degree(h.landmark), 1)));
    }
    return h;
  }

  std::size_t landmark_count() const { return landmarks_.size(); }
  std::size_t cluster_size(NodeId u) const {
    return cluster_sizes_.empty() ? 0 : cluster_sizes_[u];
  }
  bool strict_balls() const { return strict_balls_; }
  // The graph the scheme was built over. Wrapping schemes (the TZ
  // name-independent layer) route their size accounting through it.
  const Graph& graph() const { return *graph_; }
  NodeId landmark_of(NodeId v) const { return landmark_of_[v]; }
  bool is_landmark(NodeId v) const { return is_landmark_[v]; }
  // Construction counters for the bench trajectory: how many landmarks
  // the initial √(n ln n) sample drew, and how many the cluster-cap
  // promotion rounds added on top.
  std::size_t initial_landmark_count() const { return initial_landmark_count_; }
  std::size_t promoted_landmark_count() const {
    return promoted_landmark_count_;
  }
  // Whether all n preferred-path trees are resident: true after a
  // kMaterialized build or rebuild_from; false after a streaming build
  // and after any apply_event.
  bool trees_materialized() const {
    return trees_.size() == graph_->node_count();
  }
  const PathTree<W>& tree(NodeId t) const {
    if (!trees_materialized()) {
      throw std::logic_error(
          "CowenScheme::tree: trees not resident after a streaming build "
          "(use CowenOptions::Construction::kMaterialized or rebuild_from)");
    }
    return trees_[t];
  }
  // Node u's whole logical (target, port) table — its ball entries and a
  // landmark entry wherever u reaches the landmark, ascending by target —
  // assembled by value from the two stored halves. Empty in the
  // stats-only mode (materialize_tables = false).
  std::vector<std::pair<NodeId, Port>> table(NodeId u) const {
    const auto& ball = ball_tables_[u];
    if (landmark_ports_.empty()) return ball;
    const std::size_t lc = landmarks_.size();
    std::vector<std::pair<NodeId, Port>> out;
    out.reserve(ball.size() + lc);
    auto it = ball.begin();
    for (std::size_t r = 0; r < lc; ++r) {
      const NodeId l = landmarks_[r];
      while (it != ball.end() && it->first < l) out.push_back(*it++);
      const Port p = landmark_ports_[u * lc + r];
      if (p != kInvalidPort) out.emplace_back(l, p);
    }
    out.insert(out.end(), it, ball.end());
    return out;
  }
  // The stored halves of table(u), the shapes compile_fib serializes:
  // u's ball row (sorted by target, no landmark targets), each node's
  // landmark rank (kNoLandmarkRank for non-landmarks), and the row-major
  // n × landmark_count() port matrix (kInvalidPort where u does not
  // reach the landmark, and at the landmark itself).
  const std::vector<std::pair<NodeId, Port>>& ball_table(NodeId u) const {
    return ball_tables_[u];
  }
  std::uint32_t landmark_rank(NodeId v) const { return landmark_rank_[v]; }
  const std::vector<Port>& landmark_ports() const { return landmark_ports_; }
  Port port_at_landmark(NodeId v) const { return port_at_landmark_[v]; }

 private:
  CowenScheme(const A& alg, const Graph& g) : alg_(alg), graph_(&g) {}

  // u's entry toward target: one matrix load for a landmark target, a
  // binary search of u's ball row otherwise; nullptr when there is none
  // (forwarding then falls back to the landmark route).
  const Port* table_lookup(NodeId u, NodeId target) const {
    if (target >= landmark_rank_.size()) return nullptr;  // kInvalidNode
    const std::uint32_t r = landmark_rank_[target];
    if (r != kNoLandmarkRank) {
      if (landmark_ports_.empty()) return nullptr;
      const Port* p = &landmark_ports_[u * landmarks_.size() + r];
      return *p != kInvalidPort ? p : nullptr;
    }
    const auto& t = ball_tables_[u];
    const auto it = std::lower_bound(
        t.begin(), t.end(), target,
        [](const std::pair<NodeId, Port>& e, NodeId v) { return e.first < v; });
    return (it != t.end() && it->first == target) ? &it->second : nullptr;
  }

  // The landmark list (ascending, so index = rank) and rank map of the
  // current landmark set.
  void rank_landmarks() {
    const std::size_t n = graph_->node_count();
    landmarks_.clear();
    landmark_rank_.assign(n, kNoLandmarkRank);
    for (NodeId l = 0; l < n; ++l) {
      if (!is_landmark_[l]) continue;
      landmark_rank_[l] = static_cast<std::uint32_t>(landmarks_.size());
      landmarks_.push_back(l);
    }
  }

  // Fills the n × |L| port matrix from each landmark's parent array
  // (parent_of(r) for the landmark of rank r): u's port toward l is its
  // port to its parent in l's tree. Node blocks keep the block's matrix
  // rows in cache while the landmarks' parent slices stream through.
  template <typename ParentOf>
  void fill_landmark_ports(const ParentOf& parent_of) {
    const std::size_t n = graph_->node_count();
    const std::size_t lc = landmarks_.size();
    landmark_ports_.assign(n * lc, kInvalidPort);
    constexpr std::size_t kBlock = 64;
    parallel_for(*pool_, 0, (n + kBlock - 1) / kBlock, [&](std::size_t bi) {
      const std::size_t lo = bi * kBlock;
      const std::size_t hi = std::min(n, lo + kBlock);
      for (std::size_t r = 0; r < lc; ++r) {
        const std::vector<NodeId>& par = parent_of(r);
        for (std::size_t u = lo; u < hi; ++u) {
          if (u == landmarks_[r] || par[u] == kInvalidNode) continue;
          landmark_ports_[u * lc + r] =
              csr_.port_to(static_cast<NodeId>(u), par[u]);
        }
      }
    });
  }

  // ⪯-distance from u to node x, read off tree(x)'s flat arrays.
  bool has_dist(NodeId u, NodeId x) const { return trees_[x].has_weight(u); }
  const W& dist_at(NodeId u, NodeId x) const { return trees_[x].weights[u]; }

  // Deterministic "closer landmark" comparison: algebra order, then hops,
  // then id.
  bool landmark_better(NodeId u, NodeId a, NodeId b) const {
    const bool ha = has_dist(u, a);
    const bool hb = has_dist(u, b);
    if (ha != hb) return ha;
    if (!ha) return a < b;
    const W& wa = dist_at(u, a);
    const W& wb = dist_at(u, b);
    if (alg_.less(wa, wb)) return true;
    if (alg_.less(wb, wa)) return false;
    if (trees_[a].hops[u] != trees_[b].hops[u]) {
      return trees_[a].hops[u] < trees_[b].hops[u];
    }
    return a < b;
  }

  // Ball radius of v (⪯-distance to its landmark); absent for landmarks
  // and disconnected nodes. Shared by the cluster scan and the table fill;
  // flat value array + presence flags so the O(n²) scans stream it.
  struct BallRadii {
    std::vector<W> value;
    std::vector<std::uint8_t> present;
    bool has(NodeId v) const { return present[v] != 0; }
  };
  BallRadii ball_radii() const {
    const std::size_t n = graph_->node_count();
    BallRadii radius;
    radius.value.assign(n, alg_.phi());
    radius.present.assign(n, 0);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t v) {
          if (is_landmark_[v]) return;  // B(landmark) = ∅
          const NodeId lv = landmark_of_[v];
          if (lv == kInvalidNode) return;
          if (!has_dist(static_cast<NodeId>(v), lv)) return;
          radius.value[v] = dist_at(static_cast<NodeId>(v), lv);
          radius.present[v] = 1;
        },
        /*grain=*/64);
    return radius;
  }

  // Nearest landmark per node; each u scans the landmarks in ascending
  // id order, so the deterministic tie-break is schedule-independent.
  void assign_landmarks() {
    const std::size_t n = graph_->node_count();
    std::vector<NodeId> landmarks;
    for (NodeId l = 0; l < n; ++l) {
      if (is_landmark_[l]) landmarks.push_back(l);
    }
    landmark_of_.assign(n, kInvalidNode);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          const NodeId u = static_cast<NodeId>(i);
          landmark_of_[u] = nearest_landmark(u, landmarks);
        },
        /*grain=*/16);
  }

  NodeId nearest_landmark(NodeId u, const std::vector<NodeId>& landmarks) const {
    if (is_landmark_[u]) return u;
    NodeId best = kInvalidNode;
    for (NodeId l : landmarks) {
      if (best == kInvalidNode || landmark_better(u, l, best)) best = l;
    }
    return best;
  }

  // u ∈ B(v) under the current radius row?
  bool in_ball(const PathTree<W>& tree_u, NodeId v, const BallRadii& radius) const {
    if (!radius.has(v) || !tree_u.has_weight(v)) return false;
    const W& d = tree_u.weights[v];
    return strict_balls_ ? alg_.less(d, radius.value[v])
                         : leq(alg_, d, radius.value[v]);
  }

  std::size_t count_cluster(NodeId u, const BallRadii& radius) const {
    // dist(v, u) for all v is tree u's flat weight row — the whole scan
    // streams two arrays plus the radius row.
    const PathTree<W>& tree_u = trees_[u];
    const std::size_t n = graph_->node_count();
    std::size_t count = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (v != u && in_ball(tree_u, v, radius)) ++count;
    }
    return count;
  }

  // Cluster sizes: C(u) = { v : u ∈ B(v) }, counted from u's side so each
  // task owns exactly one counter slot (no shared accumulators).
  void refresh_cluster_sizes(const BallRadii& radius) {
    const std::size_t n = graph_->node_count();
    cluster_sizes_.assign(n, 0);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          cluster_sizes_[i] = count_cluster(static_cast<NodeId>(i), radius);
        },
        /*grain=*/8);
  }

  void recompute_until_stable() {
    const std::size_t n = graph_->node_count();
    for (int round = 0;; ++round) {
      assign_landmarks();
      refresh_cluster_sizes(ball_radii());
      // Ordered promotion reduction on the calling thread.
      bool promoted = false;
      for (NodeId u = 0; u < n; ++u) {
        if (!is_landmark_[u] && cluster_sizes_[u] > cluster_cap_) {
          is_landmark_[u] = true;
          ++promoted_landmark_count_;
          promoted = true;
        }
      }
      if (!promoted) break;
    }
  }

  // Streaming construction (CowenOptions::Construction::kStreaming). The
  // memory-bound phases of the materialized path — all_pairs_trees and
  // the Θ(n²) ball/cluster scans over it — are replaced by:
  //
  //   1. Full SSSP trees for *landmarks only*, swept in fixed-size
  //      batches (bounding resident trees to `batch`) and folded into a
  //      per-node nearest-landmark record. The fold implements exactly
  //      landmark_better's tie-break (reachability, ⪯, hops, id); its
  //      argmin is unique under that strict order, so folding promoted
  //      landmarks after the initial sample — any order at all — yields
  //      the same assignment nearest_landmark's ascending scan does.
  //      Only the parent arrays are retained (Θ(n·|L|), the size of the
  //      port matrix they feed): they carry the landmark ports and the
  //      port-at-landmark labels. Weights/hops die with the batch once
  //      folded.
  //
  //   2. Per-source truncated Dijkstras (truncated_ball, dijkstra.hpp)
  //      that stop at the source's nearest-landmark radius and hence
  //      enumerate exactly its ball. Ball membership of u in B(v) is an
  //      order-level predicate, so testing it at d(v,u) — what the
  //      truncated run measures — instead of the materialized path's
  //      d(u,v) changes nothing: with an undirected graph and the
  //      commutative combine the per-root trees already rely on, the
  //      two are order-equal. Each round runs this sweep once, emitting
  //      (member u, source v, port) triples into per-block buffers whose
  //      concatenation order is fixed (blocks are indexed, sources
  //      ascending within a block, settle order deterministic). Cluster
  //      sizes are counted from the buffers, and promotion stays the same
  //      ordered scan on the calling thread.
  //
  //   3. The final round's buffers become the ball tables: a counting
  //      sort by member — sized exactly by the final cluster counts —
  //      then a per-member sort by source reproduces fill_table's ball
  //      rows byte for byte. The port matrix is filled straight from the
  //      retained parent arrays.
  //
  // With promote = false the landmark set stays pinned (one round, no
  // promotion scan): that is apply_event's rebuild, equal to the
  // materialized rebuild_from. Equivalence with the materialized oracle at
  // 1 and 8 threads is pinned by tests/test_cowen_streaming.cpp.
  void build_streaming(const EdgeMap<W>& w, bool materialize_tables,
                       std::size_t batch, bool promote) {
    constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
    const std::size_t n = graph_->node_count();

    // CSR-slot-aligned weights, shared read-only by every sweep (same
    // gather all_pairs_trees does).
    std::vector<W> slot_w;
    slot_w.reserve(2 * csr_.edge_count());
    for (NodeId v = 0; v < n; ++v) {
      for (const auto& adj : csr_.neighbors(v)) slot_w.push_back(w[adj.edge]);
    }
    const auto slot_weight = [this, &slot_w](NodeId u, std::size_t port,
                                             const Graph::Adjacency&)
        -> const W& { return slot_w[csr_.row_begin(u) + port]; };

    // Per-node nearest-landmark fold state; `weight` is bit-identical to
    // the materialized radius (both copy the landmark tree's row).
    std::vector<std::uint8_t> best_has(n, 0);
    std::vector<W> best_w(n, alg_.phi());
    std::vector<std::uint32_t> best_hops(n, 0);
    std::vector<NodeId> best_id(n, kInvalidNode);
    const auto fold = [&](NodeId u, NodeId l, const PathTree<W>& t) {
      const bool has = t.has_weight(u);
      bool take;
      if (best_id[u] == kInvalidNode) {
        take = true;
      } else if (has != (best_has[u] != 0)) {
        take = has;
      } else if (!has) {
        take = l < best_id[u];
      } else if (alg_.less(t.weights[u], best_w[u])) {
        take = true;
      } else if (alg_.less(best_w[u], t.weights[u])) {
        take = false;
      } else if (t.hops[u] != best_hops[u]) {
        take = t.hops[u] < best_hops[u];
      } else {
        take = l < best_id[u];
      }
      if (take) {
        best_has[u] = has ? 1 : 0;
        best_w[u] = t.weights[u];
        best_hops[u] = t.hops[u];
        best_id[u] = l;
      }
    };

    // Retained landmark parent arrays (materialize_tables mode), indexed
    // by insertion order through landmark_slot.
    std::vector<std::vector<NodeId>> landmark_parent;
    std::vector<std::uint32_t> landmark_slot(n, kNoSlot);
    std::vector<PathTree<W>> batch_trees;
    const auto sweep_landmarks = [&](const std::vector<NodeId>& fresh) {
      for (std::size_t b0 = 0; b0 < fresh.size(); b0 += batch) {
        const std::size_t b1 = std::min(fresh.size(), b0 + batch);
        batch_trees.resize(b1 - b0);
        parallel_for(*pool_, 0, b1 - b0, [&](std::size_t i) {
          detail::dijkstra_dispatch(alg_, csr_, fresh[b0 + i], batch_trees[i],
                                    slot_weight);
        });
        parallel_for(
            *pool_, 0, n,
            [&](std::size_t ui) {
              const NodeId u = static_cast<NodeId>(ui);
              for (std::size_t i = 0; i < b1 - b0; ++i) {
                if (u == fresh[b0 + i]) continue;
                fold(u, fresh[b0 + i], batch_trees[i]);
              }
            },
            /*grain=*/256);
        if (materialize_tables) {
          for (std::size_t i = 0; i < b1 - b0; ++i) {
            landmark_slot[fresh[b0 + i]] =
                static_cast<std::uint32_t>(landmark_parent.size());
            landmark_parent.push_back(std::move(batch_trees[i].parent));
          }
        }
      }
    };

    // The round's ball sweep over every eligible source, into per-block
    // buffers whose concatenation order is schedule-independent.
    struct BallEntry {
      NodeId owner;
      NodeId target;
      Port port;
    };
    constexpr std::size_t kBlock = 256;
    std::vector<std::vector<BallEntry>> block_entries((n + kBlock - 1) /
                                                      kBlock);
    const auto sweep_balls = [&] {
      parallel_for(*pool_, 0, block_entries.size(), [&](std::size_t bi) {
        auto& out = block_entries[bi];
        out.clear();
        const std::size_t lo = bi * kBlock;
        const std::size_t hi = std::min(n, lo + kBlock);
        for (std::size_t vi = lo; vi < hi; ++vi) {
          const NodeId v = static_cast<NodeId>(vi);
          // Mirrors ball_radii: landmarks carry no ball, nor do nodes no
          // landmark reaches.
          if (is_landmark_[v]) continue;
          if (best_id[v] == kInvalidNode || !best_has[v]) continue;
          auto& scratch = detail::ball_scratch<W>();
          truncated_ball(alg_, csr_, v, best_w[v], strict_balls_, scratch,
                         slot_weight,
                         [&](NodeId u, NodeId parent, const W&,
                             std::uint32_t) {
                           out.push_back({u, v, csr_.port_to(u, parent)});
                         });
        }
      });
    };

    // Promotion rounds, mirroring recompute_until_stable: fold fresh
    // landmark trees → assignment → ball sweep and cluster counts →
    // ordered promotion scan.
    std::vector<NodeId> fresh;
    for (NodeId l = 0; l < n; ++l) {
      if (is_landmark_[l]) fresh.push_back(l);
    }
    cluster_sizes_.assign(n, 0);
    for (;;) {
      sweep_landmarks(fresh);
      fresh.clear();
      landmark_of_.assign(n, kInvalidNode);
      parallel_for(
          *pool_, 0, n,
          [&](std::size_t u) {
            landmark_of_[u] =
                is_landmark_[u] ? static_cast<NodeId>(u) : best_id[u];
          },
          /*grain=*/512);
      sweep_balls();
      std::fill(cluster_sizes_.begin(), cluster_sizes_.end(), 0);
      for (const auto& blk : block_entries) {
        for (const BallEntry& e : blk) ++cluster_sizes_[e.owner];
      }
      if (!promote) break;
      bool promoted = false;
      for (NodeId u = 0; u < n; ++u) {
        if (!is_landmark_[u] && cluster_sizes_[u] > cluster_cap_) {
          is_landmark_[u] = true;
          ++promoted_landmark_count_;
          fresh.push_back(u);
          promoted = true;
        }
      }
      if (!promoted) break;
    }
    rank_landmarks();

    // First hop out of l_v toward v, walking v's parent chain in l_v's
    // tree — compute_port_at_landmark verbatim, against a parent array.
    const auto chain_port = [&](NodeId v, NodeId lv,
                                const std::vector<NodeId>& par) -> Port {
      NodeId x = v;
      while (par[x] != lv) {
        x = par[x];
        if (x == kInvalidNode) break;
      }
      return x != kInvalidNode ? csr_.port_to(lv, x) : kInvalidPort;
    };

    port_at_landmark_.assign(n, kInvalidPort);
    ball_tables_.assign(n, {});
    landmark_ports_.clear();
    if (materialize_tables) {
      parallel_for(
          *pool_, 0, n,
          [&](std::size_t vi) {
            const NodeId v = static_cast<NodeId>(vi);
            const NodeId lv = landmark_of_[v];
            if (lv == kInvalidNode || lv == v) return;
            port_at_landmark_[v] =
                chain_port(v, lv, landmark_parent[landmark_slot[lv]]);
          },
          /*grain=*/64);
      fill_landmark_ports([&](std::size_t r) -> const std::vector<NodeId>& {
        return landmark_parent[landmark_slot[landmarks_[r]]];
      });
      landmark_parent.clear();
      landmark_parent.shrink_to_fit();

      // Counting sort by owner; the final cluster counts size each
      // owner's segment exactly (same sweep, same members).
      std::vector<std::size_t> offset(n + 1, 0);
      for (std::size_t u = 0; u < n; ++u) {
        offset[u + 1] = offset[u] + cluster_sizes_[u];
      }
      std::vector<std::pair<NodeId, Port>> ball_sorted(offset[n]);
      {
        std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
        for (const auto& blk : block_entries) {
          for (const BallEntry& e : blk) {
            ball_sorted[cursor[e.owner]++] = {e.target, e.port};
          }
        }
      }
      block_entries.clear();
      block_entries.shrink_to_fit();

      // Per-owner: sort the ball segment by target — the same
      // ascending-target stream fill_table's scan appends.
      parallel_for(
          *pool_, 0, n,
          [&](std::size_t u) {
            const auto seg0 = ball_sorted.begin() + offset[u];
            const auto seg1 = ball_sorted.begin() + offset[u + 1];
            std::sort(seg0, seg1);  // targets unique within a segment
            ball_tables_[u].assign(seg0, seg1);
          },
          /*grain=*/8);
    } else {
      // Stats-only mode: tables are skipped, but labels stay exact — a
      // second batched landmark sweep recomputes each tree transiently
      // for the port-at-landmark chain walks.
      std::vector<std::uint32_t> in_batch(n, kNoSlot);
      for (std::size_t b0 = 0; b0 < landmarks_.size(); b0 += batch) {
        const std::size_t b1 = std::min(landmarks_.size(), b0 + batch);
        batch_trees.resize(b1 - b0);
        parallel_for(*pool_, 0, b1 - b0, [&](std::size_t i) {
          detail::dijkstra_dispatch(alg_, csr_, landmarks_[b0 + i],
                                    batch_trees[i], slot_weight);
        });
        for (std::size_t i = 0; i < b1 - b0; ++i) {
          in_batch[landmarks_[b0 + i]] = static_cast<std::uint32_t>(i);
        }
        parallel_for(
            *pool_, 0, n,
            [&](std::size_t vi) {
              const NodeId v = static_cast<NodeId>(vi);
              const NodeId lv = landmark_of_[v];
              if (lv == kInvalidNode || lv == v) return;
              const std::uint32_t i = in_batch[lv];
              if (i == kNoSlot) return;
              port_at_landmark_[v] = chain_port(v, lv, batch_trees[i].parent);
            },
            /*grain=*/64);
        for (std::size_t i = 0; i < b1 - b0; ++i) {
          in_batch[landmarks_[b0 + i]] = kNoSlot;
        }
      }
    }
  }

  // The (target v, port) ball entry of node u's table, if any: u ∈ B(v)
  // for a non-landmark v (landmarks carry no ball; their entries live in
  // the port matrix).
  bool entry_port(NodeId u, NodeId v, const BallRadii& radius,
                  Port* out) const {
    if (v == u || is_landmark_[v]) return false;
    if (!in_ball(trees_[u], v, radius)) return false;
    if (!trees_[v].reachable(u)) return false;
    *out = csr_.port_to(u, trees_[v].parent[u]);
    return true;
  }

  // One node's ball row in a single ascending scan over the targets.
  // Scanning targets in id order appends the flat row already sorted —
  // no per-entry allocation, no rebalancing — and the encoded rows stay
  // schedule-independent. Port lookups go through the CSR view.
  void fill_table(NodeId u, const BallRadii& radius) {
    const std::size_t n = graph_->node_count();
    auto& table = ball_tables_[u];
    table.clear();
    for (NodeId v = 0; v < n; ++v) {
      Port p;
      if (entry_port(u, v, radius, &p)) table.emplace_back(v, p);
    }
  }

  // Label ingredient: first hop out of l_v on the preferred l_v→v path,
  // found by walking v's parent chain in tree(l_v).
  Port compute_port_at_landmark(NodeId v) const {
    const NodeId lv = landmark_of_[v];
    if (lv == kInvalidNode || lv == v) return kInvalidPort;
    NodeId x = v;
    while (trees_[lv].parent[x] != lv) {
      x = trees_[lv].parent[x];
      if (x == kInvalidNode) break;
    }
    return x != kInvalidNode ? csr_.port_to(lv, x) : kInvalidPort;
  }

  void build_tables() {
    const std::size_t n = graph_->node_count();
    const auto radius = ball_radii();
    ball_tables_.assign(n, {});
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) { fill_table(static_cast<NodeId>(i), radius); },
        /*grain=*/8);
    rank_landmarks();
    fill_landmark_ports([this](std::size_t r) -> const std::vector<NodeId>& {
      return trees_[landmarks_[r]].parent;
    });
    port_at_landmark_.assign(n, kInvalidPort);
    parallel_for(
        *pool_, 0, n,
        [&](std::size_t i) {
          port_at_landmark_[i] = compute_port_at_landmark(static_cast<NodeId>(i));
        },
        /*grain=*/64);
  }

  const A alg_;
  const Graph* graph_;
  CsrGraph csr_;
  ThreadPool* pool_ = nullptr;
  std::vector<PathTree<W>> trees_;
  std::size_t landmark_batch_ = 32;
  std::vector<bool> is_landmark_;
  std::vector<NodeId> landmark_of_;
  std::vector<std::size_t> cluster_sizes_;
  // Landmarks in ascending id order (index = rank) and the node → rank map.
  std::vector<NodeId> landmarks_;
  std::vector<std::uint32_t> landmark_rank_;
  // Per-node ball rows (sorted by target) and the row-major n × |L|
  // landmark port matrix — together, table(u).
  std::vector<std::vector<std::pair<NodeId, Port>>> ball_tables_;
  std::vector<Port> landmark_ports_;
  std::vector<Port> port_at_landmark_;
  std::size_t cluster_cap_ = 0;
  std::size_t initial_landmark_count_ = 0;
  std::size_t promoted_landmark_count_ = 0;
  bool strict_balls_ = true;
};

}  // namespace cpr
