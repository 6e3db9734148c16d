#include "trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::array<double, kLayerNames.size()> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::array<double, kLayerNames.size()> out{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    const auto layer = static_cast<std::size_t>(kSpanInfo[s.name].layer);
    out[layer] += ns_to_s(s.end_ns - s.start_ns - covered);
  }
  return out;
}

std::vector<double> durations_s(const std::vector<Span>& spans,
                                SpanName name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(ns_to_s(s.end_ns - s.start_ns));
  }
  return out;
}

double span_cost_ns() {
  constexpr int kSpans = 200000;
  Recorder scratch(true);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    const auto s = scratch.scope(kForward, static_cast<std::uint64_t>(i));
  }
  return static_cast<double>(now_ns() - t0) / kSpans;
}

void write_spans_jsonl(std::ostream& out, const std::vector<Span>& writer,
                       const std::vector<Span>& reader) {
  std::unordered_map<std::uint64_t, std::size_t> event_span;
  for (std::size_t i = 0; i < writer.size(); ++i) {
    if (writer[i].name == kEvent) event_span[writer[i].trace_id] = i;
  }
  const auto emit = [&](const char* proc, std::size_t i, const Span& s,
                        const std::string& parent) {
    out << "{\"proc\":\"" << proc << "\",\"id\":" << i << ",\"name\":\""
        << kSpanInfo[s.name].name << "\",\"layer\":\""
        << kLayerNames[static_cast<std::size_t>(kSpanInfo[s.name].layer)]
        << "\",\"trace_id\":" << s.trace_id << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << parent << "}\n";
  };
  for (std::size_t i = 0; i < writer.size(); ++i) {
    const Span& s = writer[i];
    emit("w", i, s,
         s.parent < 0 ? "null" : "\"w:" + std::to_string(s.parent) + "\"");
  }
  for (std::size_t i = 0; i < reader.size(); ++i) {
    const Span& s = reader[i];
    std::string parent = "null";
    if (s.parent >= 0) {
      parent = "\"r:" + std::to_string(s.parent) + "\"";
    } else if (s.name == kObserve) {
      if (const auto it = event_span.find(s.trace_id); it != event_span.end()) {
        parent = "\"w:" + std::to_string(it->second) + "\"";
      }
    }
    emit("r", i, s, parent);
  }
}

}  // namespace perfbench
