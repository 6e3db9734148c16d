#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/vfs.h>

namespace perfbench {
namespace {

// Shortest decimal that round-trips: every digit the value has, no more.
std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) return "unavailable";
  const auto a = line.find('[');
  const auto b = line.find(']');
  return a != std::string::npos && b > a ? line.substr(a + 1, b - a - 1) : line;
}

// Filesystem of the store directory: publish cost differs between a
// journaled disk filesystem and tmpfs.
std::string fs_type(const std::filesystem::path& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
      return os.str();
    }
  }
}

std::map<std::string, std::string> provenance(const RunConfig& cfg) {
  auto p = cfg.provenance;
  p["build_type"] = CPR_PERFBENCH_BUILD_TYPE;
  p["cpu_model"] = cpu_model();
  p["avx2"] = __builtin_cpu_supports("avx2") ? "true" : "false";
  p["avx512f"] = __builtin_cpu_supports("avx512f") ? "true" : "false";
  p["transparent_hugepage"] = thp_mode();
  p["nproc"] = std::to_string(std::thread::hardware_concurrency());
  p["store_fs"] = fs_type(cfg.run_dir);
  p["workload"] = cfg.workload;
  p["seed"] = std::to_string(cfg.seed);
  p["seconds"] = std::to_string(cfg.seconds);
  p["trace"] = cfg.trace ? "1" : "0";
  return p;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    const Metric& x = m.items[i];
    out += (i ? ", " : "") + quoted(x.name) + ": {\"value\": " + num(x.value) +
           ", \"unit\": " + quoted(x.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int emit_result(const RunConfig& cfg, const Metrics& e2e, const Metrics& layer,
                const Counts& counts, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Span>& writer_spans,
                const std::vector<Span>& reader_spans) {
  const auto prov = provenance(cfg);
  const double fail_frac =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0;
  const Metrics& shown = cfg.trace ? layer : e2e;

  std::cout << "# " << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace << "\n";
  for (const auto& [k, v] : prov) std::cout << "#   " << k << ": " << v << "\n";
  for (const auto& [k, v] : counts) std::cout << "#   " << k << ": " << num(v) << "\n";
  for (const Metric& m : shown.items) {
    std::cout << m.name << " " << num(m.value) << " " << m.unit << "\n";
  }
  std::cout << "fail_frac " << num(fail_frac) << " ratio (" << failed << " of "
            << attempted << ")\n";

  const std::string stem = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                           "-trace" + (cfg.trace ? "1" : "0");
  std::filesystem::create_directories(cfg.report_dir);
  {
    std::ofstream rep(cfg.report_dir / (stem + ".json"));
    rep << "{\n  \"provenance\": {";
    bool first = true;
    for (const auto& [k, v] : prov) {
      rep << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
      first = false;
    }
    rep << "},\n  \"counts\": {";
    first = true;
    for (const auto& [k, v] : counts) {
      rep << (first ? "" : ", ") << quoted(k) << ": " << num(v);
      first = false;
    }
    rep << "},\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
        << ",\n  \"fail_frac\": " << num(fail_frac)
        << ",\n  \"end_to_end\": " << metrics_json(e2e)
        << ",\n  \"per_layer\": " << (cfg.trace ? metrics_json(layer) : "null")
        << "\n}\n";
  }
  if (cfg.trace) {
    std::ofstream spans(cfg.report_dir / (stem + ".spans.jsonl"));
    write_spans_jsonl(spans, writer_spans, reader_spans);
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(shown) << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
