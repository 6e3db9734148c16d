// The benchmark's two processes. The writer (run_workload) owns the
// pipeline from input to publish and, on churn, the open-loop event
// stream; for every set-up it spawns one reader process (reader_main)
// that adopts the published arena and serves forward_batch in a closed
// loop from one client thread.
#pragma once

#include "common.hpp"

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Re-runs a reader batch may take while the patch channel rewrites rows
// under it (FibBatchOptions::seqlock_max_retries), as in the library's
// own channel server: a patch window on a freshly published segment can
// stay open for milliseconds while the filesystem faults the page in,
// and each retry takes microseconds.
inline constexpr std::size_t kSeqlockRetries = std::size_t{1} << 20;

struct ReaderArgs {
  std::filesystem::path control;
  std::filesystem::path store;
  std::filesystem::path out;
  bool channel = false;  // PatchChannelReader instead of ArenaStore
  bool zipf = false;     // Zipf(1.1) targets instead of uniform
  std::size_t batch = 0;
  std::vector<int> cpus;  // pinned here; see reader_threads
  std::uint64_t seed = 0;
  std::uint64_t setup = 0;
  bool trace = false;
};

int reader_main(const ReaderArgs& args);

// The reader's forward_batch pool size on `cores` CPUs: the client
// thread works through each batch beside the pool, so pool plus client
// fill the reader's half of the machine exactly.
inline std::size_t reader_threads(std::size_t cores) {
  return cores > 1 ? cores - 1 : 1;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::filesystem::path run_dir;     // scratch: stores, control file
  std::filesystem::path report_dir;  // kept: report and span files
  std::filesystem::path data_dir;  // the repository's tests/data
  std::filesystem::path self_exe;  // this binary, for the reader process
  std::map<std::string, std::string> provenance;  // from the launcher
  CpuSplit cpus;  // taken before any pinning
};

// Runs one workload and prints its metrics; returns the exit code
// (nonzero when the correctness gate failed).
int run_workload(const RunConfig& cfg);

}  // namespace perfbench
