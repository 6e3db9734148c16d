// Shared helpers for the benchmark's writer and reader processes: the
// clock both sides stamp with, order statistics, resident-memory probes
// and the fixed correctness probe.
#pragma once

#include "graph/graph.hpp"
#include "util/random.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

namespace perfbench {

using cpr::NodeId;

// CLOCK_MONOTONIC is system-wide, so writer and reader stamps compare
// directly: event visibility is a reader stamp minus a writer stamp.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// Resident set size from /proc/self/status: "VmRSS" now, "VmHWM" the
// high-water mark. Both belong to the process's own address space, so
// unlike getrusage's ru_maxrss a spawned reader does not inherit the
// writer's peak across exec.
inline double status_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key.size() > 1 && key.compare(0, key.size() - 1, field) == 0) {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

inline double rss_now_mib() { return status_mib("VmRSS"); }
inline double peak_rss_mib() { return status_mib("VmHWM"); }

// The CPUs this process may run on, split in two halves: the reader
// process takes the upper half and the writer, when it works beside a
// serving reader (churn), the lower half, so neither preempts the other.
struct CpuSplit {
  std::vector<int> writer;
  std::vector<int> reader;
};

inline CpuSplit cpu_split() {
  cpu_set_t all;
  CPU_ZERO(&all);
  sched_getaffinity(0, sizeof all, &all);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  const auto half = static_cast<std::ptrdiff_t>(cpus.size() - cpus.size() / 2);
  return {{cpus.begin(), cpus.begin() + half}, {cpus.begin() + half, cpus.end()}};
}

// Pins the calling thread, and every thread it creates afterwards.
inline void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// The correctness probe: kProbeTargets targets with kProbeSources
// sources each, drawn from a fixed seed so every run checks the same
// pairs of a given graph. Grouping by target lets the stretch check run
// one exact SSSP per target.
inline constexpr std::uint64_t kProbeSeed = 0x70726f6265ull;
inline constexpr std::size_t kProbeTargets = 128;
inline constexpr std::size_t kProbeSources = 64;

inline std::vector<std::pair<NodeId, NodeId>> probe_queries(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> q;
  if (n < 2) return q;
  cpr::Rng rng(kProbeSeed);
  for (const std::size_t t :
       rng.sample_without_replacement(n, std::min(kProbeTargets, n))) {
    for (std::size_t i = 0; i < kProbeSources; ++i) {
      NodeId s = static_cast<NodeId>(rng.index(n));
      if (s == t) s = static_cast<NodeId>((s + 1) % n);
      q.emplace_back(s, static_cast<NodeId>(t));
    }
  }
  return q;
}

}  // namespace perfbench
