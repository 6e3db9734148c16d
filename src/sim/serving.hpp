// Churn served through the multi-process plane, end to end.
//
// measure_resilience_under_churn (sim/resilience.hpp) exercises the
// in-process patch path: one MaintainedFib, readers on the same arena.
// This module drives the *deployment* topology on top of it — a writer
// role that absorbs churn and publishes generations into an ArenaStore,
// and a reader role that discovers, validates and mmaps those
// generations between batches, exactly as a separate serving process
// would (the fork-based tests run the reader in a real child process;
// here both roles live in one process so sims and benches can measure
// the pipeline without fork plumbing).
//
// The reader intentionally serves whatever generation the store last
// made durable, which lags the writer's in-memory arena by up to
// `publish_every` events: the staleness window of a router fleet whose
// compiler pushes FIB updates in batches. The report separates what the
// writer did (publishes, compactions) from what the reader saw
// (distinct generations, delivery under the *current* failure mask), so
// a sim can dial publish_every and watch staleness eat delivery.
#pragma once

#include "fib/arena_store.hpp"
#include "fib/compile.hpp"
#include "fib/fib_delta.hpp"
#include "fib/forward_engine.hpp"
#include "fib/patch_channel.hpp"
#include "sim/churn.hpp"

#include <filesystem>
#include <utility>
#include <vector>

namespace cpr {

struct StoreServeReport {
  std::size_t events = 0;
  std::size_t published = 0;         // generations the writer made durable
  std::size_t generations_seen = 0;  // distinct arenas the reader adopted
  std::uint64_t last_generation = 0; // newest generation the reader served
  std::size_t queries = 0;
  std::size_t delivered = 0;         // against the live failure mask
  FibMaintainStats maintain;         // the writer's patch/compaction mix

  double delivery_fraction() const {
    return queries ? static_cast<double>(delivered) / queries : 1.0;
  }
};

// Plays `trace` through scheme + engine while serving every event's
// queries from the store: the writer absorbs each event into a
// MaintainedFib and publishes the arena every `publish_every` events
// (and always after the last), the reader re-resolves the current
// generation between batches and serves forward_batch from the mmap'd
// blob. S must be FIB-compilable; with a Cowen scheme the absorbs are
// mostly in-place seqlock patches and publishes are cheap blob dumps.
template <RoutingAlgebra A, typename S>
StoreServeReport serve_churn_through_store(
    S& scheme, ChurnEngine<A>& engine,
    const std::vector<ChurnEvent<typename A::Weight>>& trace,
    const std::filesystem::path& dir, std::size_t pairs_per_event, Rng& rng,
    std::size_t publish_every = 1) {
  const Graph& g = engine.graph();
  StoreServeReport report;
  if (g.node_count() == 0) return report;

  ArenaStore writer(dir);
  ArenaStore reader(dir);  // separate instance: its own mmap lifecycle
  MaintainedFib<S> plane(scheme, g);
  writer.publish(plane.fib());
  ++report.published;

  std::uint64_t last_seen = 0;
  const auto serve_batch = [&](const std::vector<bool>& down) {
    const auto arena = reader.current();
    if (!arena) return;  // nothing validated yet
    if (arena->generation() != last_seen) {
      last_seen = arena->generation();
      report.last_generation = last_seen;
      ++report.generations_seen;
    }
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(pairs_per_event);
    while (pairs.size() < pairs_per_event) {
      const NodeId s = static_cast<NodeId>(rng.index(g.node_count()));
      const NodeId t = static_cast<NodeId>(rng.index(g.node_count()));
      if (s != t) pairs.emplace_back(s, t);
    }
    if (pairs.empty()) return;
    FibBatchOptions opt;
    opt.record_paths = false;
    opt.edge_down = &down;
    const FibBatchOutput out = forward_batch(arena->fib(), pairs, opt);
    for (const FibRouteResult& r : out.results) {
      ++report.queries;
      report.delivered += r.delivered;
    }
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto applied = engine.apply(trace[i]);
    ++report.events;
    const auto repair = scheme.apply_event(applied.edge, applied.old_weight,
                                           applied.new_weight,
                                           engine.weights());
    if constexpr (requires { repair.fib_delta; }) {
      plane.absorb(repair.fib_delta, scheme);
    } else {
      FibDelta recompile;
      recompile.recompile = true;
      plane.absorb(recompile, scheme);
    }
    if ((i + 1) % publish_every == 0 || i + 1 == trace.size()) {
      writer.publish(plane.fib());
      ++report.published;
    }
    serve_batch(engine.down_mask());
  }
  report.maintain = plane.stats();
  return report;
}

// ---- The patch-channel deployment (live segment, zero-republish) ----

struct ChannelServeReport {
  std::size_t events = 0;
  std::size_t published = 0;         // full generations (initial + refused)
  std::size_t patched = 0;           // deltas absorbed live, zero republish
  std::size_t refused = 0;           // deltas the channel compacted instead
  std::size_t noops = 0;             // empty deltas: nothing to send
  std::size_t generations_seen = 0;  // distinct arenas the reader adopted
  std::uint64_t last_generation = 0;
  std::uint64_t patches_visible = 0; // reader-side header counter, final
  std::size_t channel_batches = 0;   // batches served through the segment
  std::size_t queries = 0;
  std::size_t delivered = 0;         // against the live failure mask

  double delivery_fraction() const {
    return queries ? static_cast<double>(delivered) / queries : 1.0;
  }
};

// The same pipeline over the shared-memory patch channel: the writer
// publishes ONE generation's segment, then streams every event's delta
// through PatchChannelWriter::apply — seqlock-bracketed stores in the
// MAP_SHARED mapping — and the reader serves each batch from its live
// PatchChannelReader snapshot. Unlike serve_churn_through_store there is
// no publish_every staleness dial: a patched row is visible to the next
// batch with no republish at all, and `published` only grows when a
// delta demands recompile (slack exhausted / structural change), which
// is the channel's compaction path. `patched`, `patches_visible` and
// `generations_seen` together prove which route every update took;
// events whose repair left the tables unchanged count as `noops`.
template <RoutingAlgebra A, typename S>
ChannelServeReport serve_churn_through_channel(
    S& scheme, ChurnEngine<A>& engine,
    const std::vector<ChurnEvent<typename A::Weight>>& trace,
    const std::filesystem::path& dir, std::size_t pairs_per_event, Rng& rng,
    std::uint64_t fence_token = 1) {
  const Graph& g = engine.graph();
  ChannelServeReport report;
  if (g.node_count() == 0) return report;

  // Slacked compile so single-row repairs patch in place instead of
  // forcing a republish per event (same options the maintainer uses).
  const FibCompileOptions copt = fib_churn_maintain_options().compile;
  PatchChannelWriter writer = PatchChannelWriter::acquire(dir, fence_token);
  writer.publish(compile_fib(scheme, g, copt));
  ++report.published;
  PatchChannelReader reader(dir);

  const auto serve_batch = [&](const std::vector<bool>& down) {
    const auto arena = reader.current();
    if (!arena) return;
    if (arena->arena_generation() != report.last_generation ||
        report.generations_seen == 0) {
      report.last_generation = arena->arena_generation();
      ++report.generations_seen;
    }
    report.patches_visible = arena->patches_applied();
    report.channel_batches += arena->via_channel() ? 1 : 0;
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(pairs_per_event);
    while (pairs.size() < pairs_per_event) {
      const NodeId s = static_cast<NodeId>(rng.index(g.node_count()));
      const NodeId t = static_cast<NodeId>(rng.index(g.node_count()));
      if (s != t) pairs.emplace_back(s, t);
    }
    if (pairs.empty()) return;
    FibBatchOptions opt;
    opt.record_paths = false;
    opt.edge_down = &down;
    // The segment is live under the writer; ride out patch windows.
    opt.seqlock_max_retries = 1u << 20;
    const FibBatchOutput out = forward_batch(arena->fib(), pairs, opt);
    for (const FibRouteResult& r : out.results) {
      ++report.queries;
      report.delivered += r.delivered;
    }
  };

  for (const auto& ev : trace) {
    const auto applied = engine.apply(ev);
    ++report.events;
    const auto repair = scheme.apply_event(applied.edge, applied.old_weight,
                                           applied.new_weight,
                                           engine.weights());
    FibDelta delta;
    if constexpr (requires { repair.fib_delta; }) {
      delta = repair.fib_delta;
    } else {
      delta.recompile = true;
    }
    if (delta.empty()) {
      ++report.noops;
    } else if (writer.apply(delta)) {
      ++report.patched;
    } else {
      writer.publish(compile_fib(scheme, g, copt));
      ++report.published;
      ++report.refused;
    }
    serve_batch(engine.down_mask());
  }
  return report;
}

}  // namespace cpr
