// cpr_perfbench: the end-to-end benchmark binary. run.py builds it and
// launches the writer role:
//
//   cpr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --run-dir <dir> --report-dir <dir> --data-dir tests/data
//                 [--prov key=value ...]
//
// The writer spawns this same binary with --role reader for each
// set-up's serving process.
#include "common.hpp"
#include "roles.hpp"

#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<int> parse_cpus(const std::string& list) {
  std::vector<int> cpus;
  std::size_t at = 0;
  while (at < list.size()) {
    std::size_t end = list.find(',', at);
    if (end == std::string::npos) end = list.size();
    cpus.push_back(std::stoi(list.substr(at, end - at)));
    at = end + 1;
  }
  return cpus;
}

std::uint64_t to_u64(const std::string& s) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(s, &used);
  if (used != s.size()) throw std::invalid_argument("not a number: " + s);
  return v;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> opt;
  std::map<std::string, std::string> prov;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got " + key);
    }
    const std::string value = argv[i + 1];
    if (key == "--prov") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--prov k=v");
      prov[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      opt[key.substr(2)] = value;
    }
  }
  const auto get = [&](const char* k) {
    const auto it = opt.find(k);
    if (it == opt.end()) throw std::invalid_argument(std::string("missing --") + k);
    return it->second;
  };

  if (opt.count("role") && opt["role"] == "reader") {
    ReaderArgs a;
    a.control = get("control");
    a.store = get("store");
    a.out = get("out");
    a.channel = get("channel") == "1";
    a.zipf = get("zipf") == "1";
    a.batch = to_u64(get("batch"));
    a.cpus = parse_cpus(get("cpus"));
    a.seed = to_u64(get("seed"));
    a.setup = to_u64(get("setup"));
    a.trace = get("trace") == "1";
    return reader_main(a);
  }

  RunConfig cfg;
  cfg.workload = get("workload");
  cfg.seed = to_u64(get("seed"));
  cfg.seconds = static_cast<int>(to_u64(get("seconds")));
  const std::string trace = get("trace");
  if (trace != "0" && trace != "1") throw std::invalid_argument("--trace 0|1");
  cfg.trace = trace == "1";
  if (cfg.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  cfg.run_dir = std::filesystem::absolute(get("run-dir"));
  cfg.report_dir = std::filesystem::absolute(get("report-dir"));
  cfg.data_dir = std::filesystem::absolute(get("data-dir"));
  cfg.self_exe = std::filesystem::read_symlink("/proc/self/exe");
  cfg.provenance = prov;
  cfg.cpus = cpu_split();
  return run_workload(cfg);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cpr_perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
