// The control block the writer and its reader process share: a small
// file in the run directory, mapped MAP_SHARED by both. Flags move the
// reader through its phases; event slots carry each churn event's
// scheduled time and the serving-plane state that makes it visible, and
// the reader stamps the moment it first observes that state.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>

namespace perfbench {

inline constexpr std::size_t kMaxEvents = 4096;

// Trace id of churn event `event` in set-up `setup`: every set-up replays
// the same leading events, so the index alone would not be unique.
inline std::uint64_t event_trace_id(std::uint64_t setup, std::size_t event) {
  return setup * kMaxEvents + event;
}

// A plane state the reader can observe: the store generation it serves
// and, on the patch channel, the deltas applied to that generation.
struct PlaneState {
  std::uint64_t generation = 0;
  std::uint64_t patches = 0;

  bool covers(const PlaneState& need) const {
    return generation > need.generation ||
           (generation == need.generation && patches >= need.patches);
  }
};

struct alignas(64) EventSlot {
  std::atomic<std::int64_t> scheduled_ns{0};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> patches{0};
  std::atomic<std::int64_t> visible_ns{0};  // reader: first observation
};

enum class Finish : std::uint32_t {
  kRunning = 0,
  kProbe = 1,  // answer the correctness probe on the served arena, exit
  kExit = 2,   // exit without probing (a discarded set-up)
};

struct Control {
  // Writer → reader.
  std::atomic<std::uint32_t> go{0};    // the measured window starts
  std::atomic<std::uint32_t> stop{0};  // the measured window ends
  std::atomic<std::uint32_t> finish{0};
  std::atomic<std::uint64_t> final_generation{0};
  std::atomic<std::uint64_t> final_patches{0};
  std::atomic<std::uint32_t> events_published{0};  // slots ready to observe

  // Reader → writer.
  std::atomic<std::uint32_t> ready{0};  // watching the store, no arena yet
  std::atomic<std::int64_t> adopted_ns{0};
  std::atomic<std::int64_t> first_batch_ns{0};
  std::atomic<std::uint32_t> armed{0};  // query batches generated
  std::atomic<std::uint32_t> observed{0};  // events observed (a prefix)

  EventSlot events[kMaxEvents];
};

static_assert(std::atomic<std::int64_t>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

// Owns one mapping of the control file. The writer creates the file
// (zero-filled, then constructed in place); the reader attaches.
class ControlMap {
 public:
  static ControlMap create(const std::filesystem::path& file);
  static ControlMap attach(const std::filesystem::path& file);
  ~ControlMap();
  ControlMap(const ControlMap&) = delete;
  ControlMap& operator=(const ControlMap&) = delete;

  Control* operator->() const { return ctl_; }
  Control& operator*() const { return *ctl_; }

 private:
  explicit ControlMap(Control* ctl) : ctl_(ctl) {}
  Control* ctl_ = nullptr;
};

}  // namespace perfbench
