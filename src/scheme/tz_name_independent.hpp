// Thorup–Zwick-style name-independent stretch-3 routing.
//
// Every other scheme in the repo is *name-dependent*: it may rename
// nodes, so its routing labels coincide with node ids and a sender
// "knows" the topological address of its destination for free. The
// name-independent model (Awerbuch et al.; the TZ scheme evaluated for
// Internet graphs in "Compact Routing on Internet-Like Graphs" and "On
// Compact Routing for the Internet", PAPERS.md) removes that fiction:
// nodes keep arbitrary external *names*, the scheme privately assigns
// *labels* (routing/label.hpp), and resolution from name to label is
// part of the scheme's storage bill.
//
// Construction here follows the classic landmark recipe:
//
//   1. Build a Cowen landmark scheme (scheme/cowen.hpp) — the √(n ln n)
//      landmark sample, per-node vicinity balls via the streaming
//      truncated-Dijkstra machinery of PR 9, stretch ≤ 3 by Theorem 3.
//   2. Draw a seeded label permutation (never the identity) and re-key
//      every routing structure by label: node ball rows become sorted
//      (label, port) rows, and the per-label landmark/port/rank arrays
//      are indexed by label. The landmark port matrix needs no re-keying:
//      it is indexed by node and landmark rank, both label-free.
//   3. Partition the name→label dictionary into hash buckets
//      (fib_dict_bucket, shared with the FIB loader/walkers) — the
//      hash-partitioned distributed dictionary of the TZ scheme, with
//      bucket b charged to the node that stores it.
//
// A packet addressed to name t resolves t's label once (make_header —
// the object-path analog of the kTz walker's dictionary probe), then
// forwards purely in label space with the Cowen precedence: deliver on
// label match, direct ball entry, the landmark's own hop, the entry
// toward the landmark. Labels are a bijection of names, so every
// decision — and with it delivery and the stretch ≤ 3 bound — carries
// over from the underlying Cowen scheme verbatim.
//
// Churn: apply_event delegates to the Cowen repair and *translates* the
// resulting FibDelta into label space (ball rows re-keyed and re-sorted,
// landmark slot patches re-indexed from node to label; column patches
// pass through unchanged). Names and
// labels are stable across weight churn, so the label map and
// dictionary never appear in a translated delta; their patch sections
// exist for operator-driven relabeling and are exercised directly by
// the FIB tests.
#pragma once

#include "fib/flat_fib.hpp"
#include "routing/label.hpp"
#include "scheme/cowen.hpp"
#include "scheme/scheme.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace cpr {

struct TzOptions {
  // The underlying landmark construction. Balls::kAuto follows the
  // algebra's strict-monotonicity flag, exactly as a direct Cowen build.
  CowenOptions cowen;
};

template <RoutingAlgebra A>
class TzNameIndependentScheme {
 public:
  using W = typename A::Weight;

  struct Header {
    NodeId target = kInvalidNode;  // the *name* the packet is addressed to
    Label target_label = kInvalidLabel;
    Label landmark_label = kInvalidLabel;
    Port port_at_landmark = kInvalidPort;

    bool operator==(const Header&) const = default;
  };

  static TzNameIndependentScheme build(const A& alg, const Graph& g,
                                       const EdgeMap<W>& w, Rng& rng,
                                       TzOptions opt = {}) {
    TzNameIndependentScheme s(
        CowenScheme<A>::build(alg, g, w, rng, opt.cowen));
    // The permutation draws from the same rng stream, after the landmark
    // sample — one seed reproduces both.
    s.labels_ = random_label_map(g.node_count(), rng);
    s.rank_landmark_labels();
    s.rebuild_labeled_tables();
    s.rebuild_dictionary();
    return s;
  }

  Header make_header(NodeId target) const {
    Header h;
    h.target = target;
    h.target_label = resolve(target);
    const NodeId lm = cowen_.landmark_of(target);
    h.landmark_label =
        lm == kInvalidNode ? kInvalidLabel : labels_.label_of(lm);
    h.port_at_landmark = cowen_.port_at_landmark(target);
    return h;
  }

  Decision forward(NodeId u, Header& h) const {
    const Label ul = labels_.label_of(u);
    if (ul == h.target_label) return Decision::delivered();
    if (const Port* direct = labeled_lookup(u, h.target_label)) {
      return Decision::via(*direct);
    }
    if (ul == h.landmark_label) return Decision::via(h.port_at_landmark);
    if (const Port* toward = labeled_lookup(u, h.landmark_label)) {
      return Decision::via(*toward);
    }
    return Decision::via(kInvalidPort);
  }

  // The name-independent storage bill for node u: its labeled ball
  // table, its own label, and its share of the distributed dictionary —
  // bucket b is stored at node b (bucket_count ≤ n, so the assignment is
  // injective), which is what "hash-partitioned" costs in the TZ
  // accounting.
  std::size_t local_memory_bits(NodeId u) const {
    BitWriter bits;
    const std::size_t n = labels_.size();
    const auto entries = labeled_table(u);
    bits.write_varint(entries.size());
    for (const auto& [lbl, port] : entries) {
      bits.write_bounded(lbl, n);
      bits.write_bounded(port, std::max<std::size_t>(graph().degree(u), 1));
    }
    bits.write_bounded(labels_.label_of(u).value, n);
    if (u < dict_buckets_.size()) {
      bits.write_varint(dict_buckets_[u].size());
      for (const std::uint64_t e : dict_buckets_[u]) {
        bits.write_bounded(fib_entry_key(e), n);
        bits.write_bounded(fib_entry_port(e), n);
      }
    }
    return bits.bit_count();
  }

  std::size_t label_bits(NodeId v) const {
    return encode_header(make_header(v)).second;
  }

  // Bit-exact codec for the (name, target label, landmark label, port)
  // quadruple, mirroring the Cowen codec with the two label fields.
  std::pair<std::vector<std::uint8_t>, std::size_t> encode_header(
      const Header& h) const {
    BitWriter bits;
    const std::size_t n = labels_.size();
    bits.write_bounded(h.target, n);
    bits.write_bounded(h.target_label.value, n);
    bits.write_bit(h.landmark_label != kInvalidLabel);
    if (h.landmark_label != kInvalidLabel) {
      bits.write_bounded(h.landmark_label.value, n);
    }
    bits.write_bit(h.port_at_landmark != kInvalidPort);
    if (h.port_at_landmark != kInvalidPort) {
      const NodeId lm = labels_.node_of(h.landmark_label);
      bits.write_bounded(h.port_at_landmark,
                         std::max<std::size_t>(graph().degree(lm), 1));
    }
    return {bits.bytes(), bits.bit_count()};
  }

  Header decode_header(const std::vector<std::uint8_t>& bytes) const {
    BitReader reader(bytes);
    const std::size_t n = labels_.size();
    Header h;
    h.target = static_cast<NodeId>(reader.read_bounded(n));
    h.target_label = make_label(static_cast<std::uint32_t>(reader.read_bounded(n)));
    if (reader.read_bit()) {
      h.landmark_label =
          make_label(static_cast<std::uint32_t>(reader.read_bounded(n)));
    }
    if (reader.read_bit()) {
      const NodeId lm = labels_.node_of(h.landmark_label);
      h.port_at_landmark = static_cast<Port>(reader.read_bounded(
          std::max<std::size_t>(graph().degree(lm), 1)));
    }
    return h;
  }

  // Churn repair: delegate to the Cowen repair, then translate its
  // FibDelta into label space. Ball row patches are re-keyed (node-id
  // keys → labels) and re-sorted; landmark slot patches move from node
  // index to label index and their values from landmark node to landmark
  // label; column patches (node × rank) pass through as they are.
  // The repaired scheme stays byte-identical to a fresh build on the
  // post-event weights with the same labels (pinned by test_fib_delta).
  CowenRepairStats apply_event(EdgeId e, const W& old_w, const W& new_w,
                               const EdgeMap<W>& w) {
    CowenRepairStats stats = cowen_.apply_event(e, old_w, new_w, w);
    FibDelta translated;
    translated.touched_nodes = stats.fib_delta.touched_nodes;
    std::vector<std::uint64_t> row;
    for (const FibRowPatch& p : stats.fib_delta.patches) {
      switch (p.section) {
        case fib_section::kCowenRows: {
          const NodeId v = p.row;
          relabel_table(v);
          row.clear();
          for (const auto& [lbl, port] : labeled_ball_tables_[v]) {
            row.push_back(fib_pack_entry(lbl, port));
          }
          translated.patches.push_back(
              fib_patch_row_u64(fib_section::kCowenRows, v, row));
          break;
        }
        case fib_section::kCowenLandmarkCols:
          translated.patches.push_back(p);
          break;
        case fib_section::kCowenLandmark: {
          const NodeId v = p.row;
          const NodeId lm = cowen_.landmark_of(v);
          translated.patches.push_back(fib_patch_u32(
              fib_section::kCowenLandmark, labels_.label_of(v).value,
              lm == kInvalidNode ? kInvalidNode
                                 : labels_.label_of(lm).value));
          break;
        }
        case fib_section::kCowenLandmarkPort: {
          const NodeId v = p.row;
          translated.patches.push_back(fib_patch_u32(
              fib_section::kCowenLandmarkPort, labels_.label_of(v).value,
              cowen_.port_at_landmark(v)));
          break;
        }
        default:
          // The Cowen repair emits only the four sections above; seeing
          // anything else means the contract changed under us.
          translated.recompile = true;
          break;
      }
    }
    stats.fib_delta = std::move(translated);
    return stats;
  }

  // --- compile surface ---------------------------------------------
  // Deliberately *not* named ball_table/landmark_of/port_at_landmark:
  // those names select the Cowen-shaped compile_fib adapter
  // (fib/compile.hpp), which would serialize a kCowen arena and lose the
  // label layer. The TZ-shaped adapter matches on these accessors
  // instead.
  //
  // Node u's whole logical table in label space — its ball entries and
  // a landmark entry wherever u reaches the landmark — ascending by
  // label, assembled by value from the two stored halves.
  std::vector<std::pair<std::uint32_t, Port>> labeled_table(NodeId u) const {
    const auto& ball = labeled_ball_tables_[u];
    const auto& ports = cowen_.landmark_ports();
    if (ports.empty()) return ball;
    const std::size_t lc = cowen_.landmark_count();
    std::vector<std::pair<std::uint32_t, Port>> out;
    out.reserve(ball.size() + lc);
    auto it = ball.begin();
    for (const auto& [lbl, r] : landmarks_by_label_) {
      while (it != ball.end() && it->first < lbl) out.push_back(*it++);
      const Port p = ports[u * lc + r];
      if (p != kInvalidPort) out.emplace_back(lbl, p);
    }
    out.insert(out.end(), it, ball.end());
    return out;
  }
  // u's ball row re-keyed by label (no landmark labels), sorted.
  const std::vector<std::pair<std::uint32_t, Port>>& labeled_ball_table(
      NodeId u) const {
    return labeled_ball_tables_[u];
  }
  // Landmark rank of the node labeled `lbl` (kNoLandmarkRank if none).
  std::uint32_t landmark_rank_at(std::uint32_t lbl) const {
    return cowen_.landmark_rank(labels_.node_of(make_label(lbl)));
  }
  const std::vector<Port>& landmark_ports() const {
    return cowen_.landmark_ports();
  }
  std::uint32_t label_of_node(NodeId v) const {
    return labels_.label_of(v).value;
  }
  // Landmark state indexed by *label*, the shape the kTz arena stores:
  // landmark_label_at(L) is the label of the landmark of the node whose
  // label is L (kInvalidNode when it has none).
  std::uint32_t landmark_label_at(std::uint32_t lbl) const {
    const NodeId lm = cowen_.landmark_of(labels_.node_of(make_label(lbl)));
    return lm == kInvalidNode ? kInvalidNode : labels_.label_of(lm).value;
  }
  Port port_at_landmark_at(std::uint32_t lbl) const {
    return cowen_.port_at_landmark(labels_.node_of(make_label(lbl)));
  }

  const LabelMap& labels() const { return labels_; }
  const CowenScheme<A>& cowen() const { return cowen_; }
  std::size_t landmark_count() const { return cowen_.landmark_count(); }

 private:
  explicit TzNameIndependentScheme(CowenScheme<A> cowen)
      : cowen_(std::move(cowen)) {}

  const Graph& graph() const { return cowen_.graph(); }

  // Name → label resolution through the same bucketed dictionary the
  // arena serves (identical layout by construction; the compile adapter
  // rebuilds it from the label map with the shared sizing helpers).
  Label resolve(NodeId name) const {
    const std::uint64_t b = fib_dict_bucket(name, dict_buckets_.size());
    for (const std::uint64_t e : dict_buckets_[b]) {
      if (fib_entry_key(e) == name) return make_label(fib_entry_port(e));
    }
    return kInvalidLabel;
  }

  // u's entry toward label lbl: one matrix load for a landmark label, a
  // binary search of u's labeled ball row otherwise.
  const Port* labeled_lookup(NodeId u, Label lbl) const {
    if (lbl.value >= labels_.size()) return nullptr;  // kInvalidLabel
    const std::uint32_t r = landmark_rank_at(lbl.value);
    if (r != kNoLandmarkRank) {
      const auto& ports = cowen_.landmark_ports();
      if (ports.empty()) return nullptr;
      const Port* p = &ports[u * cowen_.landmark_count() + r];
      return *p != kInvalidPort ? p : nullptr;
    }
    const auto& t = labeled_ball_tables_[u];
    const auto it = std::lower_bound(
        t.begin(), t.end(), lbl.value,
        [](const std::pair<std::uint32_t, Port>& e, std::uint32_t v) {
          return e.first < v;
        });
    return (it != t.end() && it->first == lbl.value) ? &it->second : nullptr;
  }

  void relabel_table(NodeId v) {
    auto& out = labeled_ball_tables_[v];
    out.clear();
    for (const auto& [target, port] : cowen_.ball_table(v)) {
      out.emplace_back(labels_.label_of(target).value, port);
    }
    std::sort(out.begin(), out.end());
  }

  void rebuild_labeled_tables() {
    labeled_ball_tables_.resize(labels_.size());
    for (NodeId v = 0; v < labels_.size(); ++v) relabel_table(v);
  }

  // (label, rank) of every landmark, ascending by label: the order
  // labeled_table merges the matrix entries in.
  void rank_landmark_labels() {
    landmarks_by_label_.clear();
    for (NodeId v = 0; v < labels_.size(); ++v) {
      const std::uint32_t r = cowen_.landmark_rank(v);
      if (r != kNoLandmarkRank) {
        landmarks_by_label_.emplace_back(labels_.label_of(v).value, r);
      }
    }
    std::sort(landmarks_by_label_.begin(), landmarks_by_label_.end());
  }

  void rebuild_dictionary() {
    const std::size_t n = labels_.size();
    dict_buckets_.assign(fib_dict_bucket_count(n), {});
    // Ascending name order keeps every bucket's entries sorted by name.
    for (std::uint32_t name = 0; name < n; ++name) {
      dict_buckets_[fib_dict_bucket(name, dict_buckets_.size())].push_back(
          fib_pack_entry(name, labels_.label_of(name).value));
    }
  }

  CowenScheme<A> cowen_;
  LabelMap labels_;
  // Per-node ball rows re-keyed by label, sorted by label.
  std::vector<std::vector<std::pair<std::uint32_t, Port>>> labeled_ball_tables_;
  // (label, rank) per landmark, ascending by label.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> landmarks_by_label_;
  // Hash-partitioned name dictionary; bucket b is charged to node b.
  std::vector<std::vector<std::uint64_t>> dict_buckets_;
};

}  // namespace cpr
