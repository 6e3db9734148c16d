// Result output: the human-readable metric lines, the report file with
// provenance, and the one-line JSON result that ends standard output.
#pragma once

#include "roles.hpp"
#include "trace.hpp"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Metrics {
  std::vector<Metric> items;
  void add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), value, std::move(unit)});
  }
};

using Counts = std::map<std::string, double>;

// Prints every metric with its unit, writes the report (and, traced, the
// spans) under cfg.report_dir, and prints the result line last: the
// end-to-end metrics untraced, the per-layer metrics traced. Returns the
// process exit code: nonzero when any operation failed.
int emit_result(const RunConfig& cfg, const Metrics& e2e, const Metrics& layer,
                const Counts& counts, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Span>& writer_spans,
                const std::vector<Span>& reader_spans);

}  // namespace perfbench
