// In-memory span recorder for the traced run.
//
// Spans are recorded only in the benchmark's own code, around each call
// into a layer of the program (bgp, scheme, fib, sim); the set-up and
// churn-event roots belong to the benchmark itself ("bench"). Each span
// keeps its name, start, end, the span that caused it and a trace id
// shared by everything one set-up, churn event or batch caused; the
// reader's observe spans carry the writer's event id, which is how the
// merged trace links them across processes. Nothing is written until
// the run ends. With tracing off, scopes cost one branch.
#pragma once

#include "common.hpp"

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t { kBench, kBgp, kScheme, kFib, kSim };
inline constexpr std::array<const char*, 5> kLayerNames = {
    "bench", "bgp", "scheme", "fib", "sim"};

enum SpanName : std::uint16_t {
  kSetup,            // one whole set-up, input to first served batch
  kBgpLoad,          // read_as_rel_gz + as_rel_underlay
  kSchemeBuild,      // CowenScheme::build / TzNameIndependentScheme::build
  kFibCompile,       // compile_fib
  kStorePublish,     // ArenaStore::publish
  kChannelPublish,   // PatchChannelWriter::publish
  kStoreAdopt,       // reader: first ArenaStore::current() that adopts
  kChannelAdopt,     // reader: first PatchChannelReader::current() that adopts
  kChannelCutover,   // reader: current() that moves to a newer generation
  kForward,          // reader: one forward_batch
  kEvent,            // one churn event, end to end on the writer
  kChurnApply,       // ChurnEngine::apply
  kApplyEvent,       // scheme apply_event (repair)
  kChannelApply,     // PatchChannelWriter::apply
  kRepublish,        // compile + publish after a refused delta
  kObserve,          // reader: event first visible (trace id = event id)
  kSpanNameCount
};

struct SpanInfo {
  const char* name;
  Layer layer;
};

inline constexpr std::array<SpanInfo, kSpanNameCount> kSpanInfo = {{
    {"bench.setup", Layer::kBench},
    {"bgp.load", Layer::kBgp},
    {"scheme.build", Layer::kScheme},
    {"fib.compile", Layer::kFib},
    {"fib.store.publish", Layer::kFib},
    {"fib.channel.publish", Layer::kFib},
    {"fib.store.adopt", Layer::kFib},
    {"fib.channel.adopt", Layer::kFib},
    {"fib.channel.cutover", Layer::kFib},
    {"fib.forward", Layer::kFib},
    {"bench.event", Layer::kBench},
    {"sim.churn.apply", Layer::kSim},
    {"scheme.apply_event", Layer::kScheme},
    {"fib.channel.apply", Layer::kFib},
    {"fib.channel.republish", Layer::kFib},
    {"fib.channel.observe", Layer::kFib},
}};

struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;  // index in the same process's recorder
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Recorder {
 public:
  explicit Recorder(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }

  // RAII span: opened as a child of the innermost open scope.
  class Scope {
   public:
    Scope(Recorder& r, SpanName name, std::uint64_t trace_id) : r_(&r) {
      if (!r.on_) return;
      index_ = static_cast<std::int32_t>(r.spans_.size());
      Span s;
      s.name = name;
      s.parent = r.open_.empty() ? -1 : r.open_.back();
      s.trace_id = trace_id;
      s.start_ns = now_ns();
      r.spans_.push_back(s);
      r.open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      r_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
      r_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* r_;
    std::int32_t index_ = -1;
  };

  Scope scope(SpanName name, std::uint64_t trace_id) {
    return Scope(*this, name, trace_id);
  }

  // A span whose interval the caller already measured.
  void add(SpanName name, std::uint64_t trace_id, std::int64_t start_ns,
           std::int64_t end_ns) {
    if (!on_) return;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.trace_id = trace_id;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Self time per layer over one process's spans: each span's duration
// minus the part of its interval that its children cover.
std::array<double, kLayerNames.size()> self_seconds_by_layer(
    const std::vector<Span>& spans);

// Durations in seconds of every span with this name.
std::vector<double> durations_s(const std::vector<Span>& spans, SpanName name);

// Cost of recording one span, measured on a scratch recorder; the traced
// run charges spans × this cost as its tracing overhead.
double span_cost_ns();

// One JSON object per span; `proc` tags the process ("w" writer, "r"
// reader). Reader observe spans name their writer event span as parent.
void write_spans_jsonl(std::ostream& out, const std::vector<Span>& writer,
                       const std::vector<Span>& reader);

}  // namespace perfbench
