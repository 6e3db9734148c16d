// Structured churn deltas against a compiled FIB arena.
//
// The repair paths (SpanningTreeScheme::apply_event,
// CowenScheme::apply_event) know exactly which forwarding rows an event
// moved; a FibDelta carries that knowledge across the scheme → arena
// boundary so FlatFib::apply_delta can patch the compiled plane in place
// instead of recompiling it. A delta is one of three shapes:
//
//   empty      : the event provably left every compiled row unchanged
//                (non-tree edge down, rank-only reordering, clean dirty
//                scan) — the arena needs no touch at all;
//   row patches: the new bytes of every changed row, keyed by
//                (section id, row index) — Cowen table rows plus the
//                landmark / port-at-landmark label slots;
//   recompile  : the repair restructured global state (a tree swap
//                renumbers the whole DFS order; the Cowen dirty-fraction
//                fallback rebuilt everything), so patching cannot beat a
//                fresh compile_fib and the maintainer must compact.
//
// Deltas describe *rows*, not byte offsets: the arena owns its layout
// (including the per-row slack reserved at compile time), so the same
// delta applies to any arena compiled from the same scheme regardless of
// slack options, and slack exhaustion is apply_delta's verdict, not the
// emitter's.
#pragma once

#include "fib/flat_fib.hpp"

#include <cstdint>
#include <cstring>
#include <vector>

namespace cpr {

// One row rewrite: the full new payload of row `row` in section
// `section`. Variable-length rows (kCowenRows) may shrink or grow up to
// the compiled capacity; fixed-stride rows (the landmark arrays) must
// match the element size exactly.
struct FibRowPatch {
  std::uint32_t section = 0;
  std::uint32_t row = 0;
  std::vector<std::uint8_t> bytes;
};

struct FibDelta {
  // Patching cannot reproduce the repair (global renumbering or full
  // rebuild): the maintainer must fall back to a fresh compile_fib.
  bool recompile = false;
  // Distinct nodes with at least one changed row — the maintainer's
  // compaction threshold compares this against the node count.
  std::size_t touched_nodes = 0;
  std::vector<FibRowPatch> patches;

  bool empty() const { return !recompile && patches.empty(); }
};

inline FibRowPatch fib_patch_u32(std::uint32_t section, std::uint32_t row,
                                 std::uint32_t value) {
  FibRowPatch p{section, row, std::vector<std::uint8_t>(4)};
  std::memcpy(p.bytes.data(), &value, 4);
  return p;
}

inline FibRowPatch fib_patch_row_u64(std::uint32_t section, std::uint32_t row,
                                     const std::vector<std::uint64_t>& words) {
  FibRowPatch p{section, row, std::vector<std::uint8_t>(words.size() * 8)};
  // An empty row (a row patched down to no entries) has no buffer to
  // copy from, and memcpy's pointers must be valid even for zero bytes.
  if (!words.empty()) {
    std::memcpy(p.bytes.data(), words.data(), p.bytes.size());
  }
  return p;
}

}  // namespace cpr
