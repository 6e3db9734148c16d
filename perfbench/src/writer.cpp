// The writer process: input → scheme build → compile_fib → publish, the
// reader processes it serves, the open-loop churn stream, and the
// correctness gate. Every call into the program goes straight to a
// layer's public entry point (no sim/serving.hpp wrapper), with library
// defaults throughout, so each call can carry its own span.
#include "common.hpp"
#include "control.hpp"
#include "report.hpp"
#include "roles.hpp"
#include "trace.hpp"

#include "algebra/primitives.hpp"
#include "bgp/as_io.hpp"
#include "fib/arena_store.hpp"
#include "fib/compile.hpp"
#include "fib/forward_engine.hpp"
#include "fib/patch_channel.hpp"
#include "graph/generators.hpp"
#include "routing/dijkstra.hpp"
#include "routing/path.hpp"
#include "scheme/cowen.hpp"
#include "scheme/scheme.hpp"
#include "scheme/tz_name_independent.hpp"
#include "sim/churn.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Alg = cpr::ShortestPath;
using W = Alg::Weight;

// ---- Workloads ------------------------------------------------------------

enum class Input { kAsRel, kPa };
enum class Family { kTz, kCowen };

struct Workload {
  const char* name;
  Input input;
  std::size_t nodes;    // preferential_attachment size (kPa)
  bool weighted;        // integer weights in [1, 1024] instead of unit
  Family family;
  bool churn;           // patch channel + open-loop churn stream
  bool zipf;            // Zipf(1.1) query targets instead of uniform
  std::size_t batch;    // queries per forward_batch
  int setups;           // set-ups per run; setup_s is their median
  std::size_t warmup_events;
  double event_rate;    // churn events per second (open loop)
};

// Why each exists is recorded in NOTES.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"asrel-tz-uniform", Input::kAsRel, 0, false, Family::kTz, false, false,
     4096, 25, 0, 0.0},
    {"pa50k-cowen-zipf", Input::kPa, 50000, false, Family::kCowen, false,
     true, 4096, 3, 0, 0.0},
    {"pa2k-cowen-churn", Input::kPa, 2000, true, Family::kCowen, true, false,
     1024, 3, 1, 1.0},
};

constexpr char kAsRelFixture[] = "as_rel_caida_excerpt.txt.gz";

// ---- Reader process -------------------------------------------------------

class ReaderProcess {
 public:
  ReaderProcess(const fs::path& exe, const std::vector<std::string>& args) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& s : args) argv.push_back(const_cast<char*>(s.c_str()));
    argv.push_back(nullptr);
    if (::posix_spawn(&pid_, exe.c_str(), nullptr, nullptr, argv.data(),
                      environ) != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn the reader process");
    }
  }
  ~ReaderProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int st = 0;
      ::waitpid(pid_, &st, 0);
    }
  }
  ReaderProcess(const ReaderProcess&) = delete;
  ReaderProcess& operator=(const ReaderProcess&) = delete;

  bool alive() {
    if (pid_ <= 0) return false;
    int st = 0;
    if (::waitpid(pid_, &st, WNOHANG) == pid_) {
      pid_ = -1;
      status_ = st;
      return false;
    }
    return true;
  }

  // Waits for the process to exit; throws unless it exited with 0.
  void join(double timeout_s) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (alive()) {
      if (now_ns() > deadline) {
        throw std::runtime_error("reader process did not exit in time");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!WIFEXITED(status_) || WEXITSTATUS(status_) != 0) {
      throw std::runtime_error("reader process failed (status " +
                               std::to_string(status_) + ")");
    }
  }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
};

// Polls `ready` until it holds; throws if the reader dies or time runs out.
template <typename F>
void wait_for(ReaderProcess& reader, F ready, double timeout_s,
              const char* what) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!ready()) {
    if (!reader.alive()) {
      throw std::runtime_error(std::string("reader exited while ") + what);
    }
    if (now_ns() > deadline) {
      throw std::runtime_error(std::string("timed out while ") + what);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

struct ReaderReport {
  std::map<std::string, double> scalars;
  std::vector<double> lat_us;
  std::vector<double> cutover_ms;
  std::vector<std::pair<bool, cpr::NodePath>> paths;
  bool final_state = false;
  std::vector<Span> spans;
};

ReaderReport parse_reader(const fs::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("reader output missing: " + file.string());
  ReaderReport r;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "path") {
      int delivered = 0;
      std::size_t len = 0;
      ls >> delivered >> len;
      cpr::NodePath p(len);
      for (NodeId& v : p) ls >> v;
      r.paths.emplace_back(delivered != 0, std::move(p));
    } else if (key == "lat_us" || key == "cutover_ms") {
      auto& dst = key == "lat_us" ? r.lat_us : r.cutover_ms;
      double x = 0;
      while (ls >> x) dst.push_back(x);
    } else if (key == "span") {
      Span s;
      ls >> s.name >> s.parent >> s.trace_id >> s.start_ns >> s.end_ns;
      if (s.name >= kSpanNameCount) throw std::runtime_error("bad span");
      r.spans.push_back(s);
    } else if (key == "final_state") {
      int v = 0;
      ls >> v;
      r.final_state = v != 0;
    } else if (!key.empty()) {
      double v = 0;
      ls >> v;
      r.scalars[key] = v;
    }
  }
  return r;
}

// ---- One run --------------------------------------------------------------

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int c : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

std::size_t table_entries(const cpr::CowenScheme<Alg>& s, std::size_t n) {
  std::size_t e = 0;
  for (NodeId u = 0; u < n; ++u) e += s.table(u).size();
  return e;
}
std::size_t table_entries(const cpr::TzNameIndependentScheme<Alg>& s,
                          std::size_t n) {
  std::size_t e = 0;
  for (NodeId u = 0; u < n; ++u) e += s.labeled_table(u).size();
  return e;
}

template <typename S>
class Run {
 public:
  Run(const RunConfig& cfg, const Workload& wl)
      : cfg_(cfg), wl_(wl), alg_(1024), rec_(cfg.trace) {}

  int execute();

 private:
  // One set-up's deployment: everything the writer holds for it.
  // Declaration order is teardown order reversed: the graph outlives the
  // scheme and churn engine that point into it.
  struct Plane {
    std::unique_ptr<cpr::AsUnderlay> underlay;
    cpr::EdgeMap<W> unit;
    const cpr::Graph* g = nullptr;
    const cpr::EdgeMap<W>* w = nullptr;
    std::optional<S> scheme;
    std::optional<cpr::ChurnEngine<Alg>> engine;
    std::optional<cpr::ArenaStore> store;
    std::optional<cpr::PatchChannelWriter> channel;
    std::uint64_t generation = 0;
    std::size_t arena_bytes = 0;
  };

  fs::path store_dir(int k) const {
    return cfg_.run_dir / ("store-" + std::to_string(k));
  }
  std::vector<std::string> reader_args(int k) const;
  void prepare_input();
  void setup(int k, Plane& plane, ReaderProcess& reader, Control& ctl);
  void process_event(int k, std::size_t i, std::int64_t scheduled,
                     Plane& plane, Control& ctl, bool window);
  void window(Plane& plane, ReaderProcess& reader, Control& ctl);
  void check(Plane& plane, const ReaderReport& rr);
  int finish(Plane& plane);

  const RunConfig& cfg_;
  const Workload& wl_;
  const Alg alg_;
  Recorder rec_;

  // Benchmark-generated inputs (off the clock).
  cpr::Graph pa_graph_;
  cpr::EdgeMap<W> pa_weights_;
  std::vector<cpr::ChurnEvent<W>> trace_;
  fs::path fixture_;

  // Measurements.
  std::vector<double> setup_s_, visible_ms_, lateness_ms_;
  double build_rss_mib_ = 0, repair_rss_mib_ = 0;
  std::size_t window_events_ = 0, full_rebuilds_ = 0, refusals_ = 0;
  std::size_t delta_rows_ = 0, unobserved_ = 0;
  std::vector<ReaderReport> readers_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  double avg_stretch_ = 0;
  std::size_t landmarks_ = 0, entries_ = 0;
};

template <typename S>
std::vector<std::string> Run<S>::reader_args(int k) const {
  return {"--role", "reader",
          "--control", (cfg_.run_dir / "control").string(),
          "--store", store_dir(k).string(),
          "--out", (cfg_.run_dir / ("reader-" + std::to_string(k) + ".txt")).string(),
          "--channel", wl_.churn ? "1" : "0",
          "--zipf", wl_.zipf ? "1" : "0",
          "--batch", std::to_string(wl_.batch),
          "--cpus", cpu_list(cfg_.cpus.reader),
          "--seed", std::to_string(cfg_.seed),
          "--setup", std::to_string(k),
          "--trace", cfg_.trace ? "1" : "0"};
}

template <typename S>
void Run<S>::prepare_input() {
  if (wl_.input == Input::kAsRel) {
    // No silent skip: a build without zlib or a checkout without the
    // fixture fails this workload outright.
    fixture_ = cfg_.data_dir / kAsRelFixture;
    if (!cpr::as_rel_gz_supported()) {
      throw std::runtime_error(
          "asrel workload needs zlib: this build cannot read " +
          fixture_.string());
    }
    if (!fs::is_regular_file(fixture_)) {
      throw std::runtime_error("as-rel fixture missing: " + fixture_.string());
    }
    return;
  }
  cpr::Rng rng(cfg_.seed);
  pa_graph_ = cpr::preferential_attachment(wl_.nodes, 2, 0.25, rng);
  pa_weights_ = wl_.weighted
                    ? cpr::random_integer_weights(pa_graph_, 1, 1024, rng)
                    : cpr::EdgeMap<W>(pa_graph_.edge_count(), 1);
  if (wl_.churn) {
    const auto events = wl_.warmup_events +
                        static_cast<std::size_t>(std::ceil(
                            wl_.event_rate * cfg_.seconds)) +
                        1;
    if (events > kMaxEvents) throw std::runtime_error("too many events");
    cpr::Rng trng(cfg_.seed ^ 0x636875726eull);
    trace_ = cpr::random_churn_trace(alg_, pa_graph_, pa_weights_, events, trng);
    if (trace_.size() != events) {
      throw std::runtime_error("churn trace generator fell short");
    }
  }
}

template <typename S>
void Run<S>::setup(int k, Plane& plane, ReaderProcess& reader, Control& ctl) {
  wait_for(reader, [&] { return ctl.ready.load() != 0; }, 60,
           "starting the reader");
  const double rss0 = rss_now_mib();
  const std::int64_t t0 = now_ns();
  {
    const auto span = rec_.scope(kSetup, static_cast<std::uint64_t>(k));
    if (wl_.input == Input::kAsRel) {
      const auto load = rec_.scope(kBgpLoad, static_cast<std::uint64_t>(k));
      plane.underlay = std::make_unique<cpr::AsUnderlay>(
          cpr::as_rel_underlay(cpr::read_as_rel_gz(fixture_.string())));
      plane.g = &plane.underlay->graph;
      plane.unit.assign(plane.g->edge_count(), 1);
      plane.w = &plane.unit;
    } else {
      plane.g = &pa_graph_;
      plane.w = &pa_weights_;
    }
    {
      const auto build = rec_.scope(kSchemeBuild, static_cast<std::uint64_t>(k));
      cpr::Rng rng(cfg_.seed ^ 0x6275696c64ull);
      plane.scheme.emplace(S::build(alg_, *plane.g, *plane.w, rng));
    }
    if (k == 0) build_rss_mib_ = peak_rss_mib() - rss0;
    std::optional<cpr::FlatFib> fib;
    {
      const auto compile = rec_.scope(kFibCompile, static_cast<std::uint64_t>(k));
      // Churn compiles carry the slack the channel patches into, as the
      // library's own channel server does.
      fib.emplace(wl_.churn
                      ? cpr::compile_fib(*plane.scheme, *plane.g,
                                         cpr::fib_churn_maintain_options().compile)
                      : cpr::compile_fib(*plane.scheme, *plane.g));
    }
    plane.arena_bytes = fib->byte_size();
    const std::int64_t publish_start = now_ns();
    if (wl_.churn) {
      const auto pub = rec_.scope(kChannelPublish, static_cast<std::uint64_t>(k));
      plane.channel.emplace(cpr::PatchChannelWriter::acquire(store_dir(k), 1));
      plane.generation = plane.channel->publish(*fib);
    } else {
      const auto pub = rec_.scope(kStorePublish, static_cast<std::uint64_t>(k));
      plane.store.emplace(store_dir(k));
      plane.generation = plane.store->publish(*fib);
    }
    fib.reset();  // the reader serves the published copy
    wait_for(reader, [&] { return ctl.first_batch_ns.load() != 0; }, 120,
             "waiting for the first served batch");
    if (!wl_.churn) {
      visible_ms_.push_back(
          static_cast<double>(ctl.adopted_ns.load() - publish_start) * 1e-6);
    } else {
      // Warm-up: the first event materializes the SSSP trees every repair
      // needs, so it belongs to set-up, not to the measured stream.
      plane.engine.emplace(alg_, *plane.g, *plane.w);
      const double rss1 = rss_now_mib();
      for (std::size_t i = 0; i < wl_.warmup_events; ++i) {
        process_event(k, i, now_ns(), plane, ctl, false);
      }
      if (k == 0) repair_rss_mib_ = peak_rss_mib() - rss1;
      wait_for(reader,
               [&] { return ctl.observed.load() >= wl_.warmup_events; }, 60,
               "waiting for the warm-up events to become visible");
    }
  }
  const std::int64_t end =
      wl_.churn ? ctl.events[wl_.warmup_events - 1].visible_ns.load()
                : ctl.first_batch_ns.load();
  setup_s_.push_back(ns_to_s(end - t0));
}

template <typename S>
void Run<S>::process_event(int k, std::size_t i, std::int64_t scheduled,
                           Plane& plane, Control& ctl, bool window) {
  EventSlot& slot = ctl.events[i];
  slot.scheduled_ns.store(scheduled, std::memory_order_relaxed);
  const std::uint64_t id = event_trace_id(static_cast<std::uint64_t>(k), i);
  {
    const auto span = rec_.scope(kEvent, id);
    cpr::AppliedChurn<W> applied;
    {
      const auto s = rec_.scope(kChurnApply, id);
      applied = plane.engine->apply(trace_[i]);
    }
    cpr::CowenRepairStats repair;
    {
      const auto s = rec_.scope(kApplyEvent, id);
      repair = plane.scheme->apply_event(applied.edge, applied.old_weight,
                                         applied.new_weight,
                                         plane.engine->weights());
    }
    bool patched = false;
    {
      const auto s = rec_.scope(kChannelApply, id);
      patched = plane.channel->apply(repair.fib_delta);
    }
    if (!patched) {
      const auto s = rec_.scope(kRepublish, id);
      std::optional<cpr::FlatFib> fib;
      {
        const auto c = rec_.scope(kFibCompile, id);
        fib.emplace(cpr::compile_fib(*plane.scheme, *plane.g,
                                     cpr::fib_churn_maintain_options().compile));
      }
      const auto p = rec_.scope(kChannelPublish, id);
      plane.channel->publish(*fib);
    }
    if (window) {
      ++window_events_;
      full_rebuilds_ += repair.full_rebuild ? 1 : 0;
      refusals_ += patched ? 0 : 1;
      delta_rows_ += repair.fib_delta.patches.size();
    }
  }
  slot.generation.store(plane.channel->generation_now(),
                        std::memory_order_relaxed);
  slot.patches.store(plane.channel->patches_applied(),
                     std::memory_order_relaxed);
  ctl.events_published.store(static_cast<std::uint32_t>(i + 1),
                             std::memory_order_release);
}

template <typename S>
void Run<S>::window(Plane& plane, ReaderProcess& reader, Control& ctl) {
  wait_for(reader, [&] { return ctl.armed.load() != 0; }, 60,
           "waiting for the reader's query batches");
  // The reader serves one unmeasured second first, while the kernel
  // settles the set-ups' file churn and the reader's caches warm.
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const std::int64_t start = now_ns();
  const std::int64_t end = start + std::int64_t{cfg_.seconds} * 1'000'000'000;
  ctl.go.store(1, std::memory_order_release);
  if (!wl_.churn) {
    std::this_thread::sleep_for(std::chrono::seconds(cfg_.seconds));
  } else {
    // Open loop: event j is due at start + j / rate whatever the state of
    // earlier ones; visibility is timed from that due time.
    const double gap_ns = 1e9 / wl_.event_rate;
    for (std::size_t j = 0;; ++j) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(gap_ns * static_cast<double>(j));
      if (due >= end) break;
      const std::size_t i = wl_.warmup_events + j;
      if (i >= trace_.size()) throw std::runtime_error("churn trace too short");
      const std::int64_t wait = due - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      lateness_ms_.push_back(static_cast<double>(now_ns() - due) * 1e-6);
      process_event(wl_.setups - 1, i, due, plane, ctl, true);
    }
  }
  ctl.stop.store(1, std::memory_order_release);
  if (wl_.churn) {
    const std::uint32_t published = ctl.events_published.load();
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (ctl.observed.load() < published && now_ns() < deadline &&
           reader.alive()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (std::size_t i = wl_.warmup_events; i < published; ++i) {
      const std::int64_t seen = ctl.events[i].visible_ns.load();
      if (seen == 0) {
        ++unobserved_;
      } else {
        visible_ms_.push_back(
            static_cast<double>(seen - ctl.events[i].scheduled_ns.load()) * 1e-6);
      }
    }
  }
}

// The correctness gate. Every probe query must match the object-path
// oracle path for path, deliver within stretch 3 of exact SSSP, and on
// churn also match a fresh compile of the writer's final scheme.
template <typename S>
void Run<S>::check(Plane& plane, const ReaderReport& rr) {
  const cpr::Graph& g = *plane.g;
  const cpr::EdgeMap<W>& w = wl_.churn ? plane.engine->weights() : *plane.w;
  const auto probe = probe_queries(g.node_count());
  const std::size_t checks = wl_.churn ? 3 : 2;
  attempted_ += probe.size() * checks + 1;
  if (!rr.final_state) ++failed_;  // the final state never became visible
  if (rr.paths.size() != probe.size()) {
    failed_ += probe.size() * checks;
    return;
  }
  const auto oracle = cpr::route_batch_object(*plane.scheme, g, probe);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (oracle[i].delivered != rr.paths[i].first ||
        oracle[i].path != rr.paths[i].second) {
      ++failed_;
    }
  }
  if (wl_.churn) {
    const cpr::FlatFib fresh = cpr::compile_fib(
        *plane.scheme, g, cpr::fib_churn_maintain_options().compile);
    cpr::FibBatchOptions opt;
    opt.record_paths = true;
    const cpr::FibBatchOutput out = cpr::forward_batch(fresh, probe, opt);
    for (std::size_t i = 0; i < probe.size(); ++i) {
      const auto p = out.path(i);
      if ((out.results[i].delivered != 0) != rr.paths[i].first ||
          !std::equal(p.begin(), p.end(), rr.paths[i].second.begin(),
                      rr.paths[i].second.end())) {
        ++failed_;
      }
    }
  }
  double sum = 0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < probe.size(); i += kProbeSources) {
    const NodeId t = probe[i].second;
    const auto truth = cpr::dijkstra(alg_, g, w, t);
    for (std::size_t j = i; j < i + kProbeSources; ++j) {
      const auto& [delivered, path] = rr.paths[j];
      const auto best = truth.weight(probe[j].first);
      const auto got = cpr::weight_of_path(alg_, g, w, path);
      if (!delivered || path.empty() || path.back() != t ||
          !best.has_value() || !got.has_value()) {
        ++failed_;
        continue;
      }
      const double stretch =
          static_cast<double>(*got) / static_cast<double>(*best);
      if (stretch > 3.0 + 1e-9) ++failed_;
      sum += stretch;
      ++counted;
    }
  }
  avg_stretch_ = counted ? sum / static_cast<double>(counted) : 0.0;
}

template <typename S>
int Run<S>::execute() {
  prepare_input();
  std::unique_ptr<Plane> plane;
  for (int k = 0; k < wl_.setups; ++k) {
    const bool last = k + 1 == wl_.setups;
    plane.reset();
    for (int old = 0; old < k; ++old) fs::remove_all(store_dir(old));
    fs::create_directories(store_dir(k));
    ControlMap ctl = ControlMap::create(cfg_.run_dir / "control");
    ReaderProcess reader(cfg_.self_exe, reader_args(k));
    plane = std::make_unique<Plane>();
    setup(k, *plane, reader, *ctl);
    if (last) {
      window(*plane, reader, *ctl);
      ctl->final_generation.store(plane->channel ? plane->channel->generation_now()
                                                 : plane->generation);
      ctl->final_patches.store(plane->channel ? plane->channel->patches_applied()
                                              : 0);
    }
    ctl->finish.store(static_cast<std::uint32_t>(last ? Finish::kProbe
                                                      : Finish::kExit),
                      std::memory_order_release);
    reader.join(120);
    readers_.push_back(
        parse_reader(cfg_.run_dir / ("reader-" + std::to_string(k) + ".txt")));
  }
  const ReaderReport& rr = readers_.back();
  const std::uint64_t queries = static_cast<std::uint64_t>(rr.scalars.at("queries"));
  attempted_ += queries + window_events_;
  failed_ += static_cast<std::uint64_t>(rr.scalars.at("undelivered") +
                                        rr.scalars.at("failed_queries")) +
             unobserved_;
  check(*plane, rr);
  landmarks_ = plane->scheme->landmark_count();
  entries_ = table_entries(*plane->scheme, plane->g->node_count());
  const int code = finish(*plane);
  plane.reset();
  fs::remove_all(cfg_.run_dir);
  return code;
}

template <typename S>
int Run<S>::finish(Plane& plane) {
  const ReaderReport& rr = readers_.back();
  const auto& sc = rr.scalars;
  const double n = sc.at("nodes");
  const double queries = sc.at("queries");

  Metrics e2e;
  e2e.add("setup_s", median(setup_s_), "s");
  // Forwarding rate per second of reader CPU time: time the hypervisor
  // steals, and a worker's sleep while its partner finishes the batch,
  // are left out, so the figure repeats on a shared host (NOTES.md).
  e2e.add("forward_qps_per_cpu",
          sc.at("cpu_ns") > 0 ? queries / (sc.at("cpu_ns") * 1e-9) : 0.0,
          "queries/cpu-s");
  e2e.add("batch_p50_us", quantile(rr.lat_us, 0.50), "us");
  double reader_peak = 0;
  for (const ReaderReport& r : readers_) {
    reader_peak = std::max(reader_peak, r.scalars.at("peak_rss_mib"));
  }
  e2e.add("peak_rss_mib", peak_rss_mib() + reader_peak, "MiB");
  e2e.add("arena_bits_per_node", 8.0 * sc.at("arena_bytes") / n, "bits");
  e2e.add("avg_stretch", avg_stretch_, "ratio");

  // Per-layer metrics come from the spans; a layer a workload never
  // calls reports 0 (see NOTES.md).
  std::vector<Span> reader_spans;
  for (const ReaderReport& r : readers_) {
    reader_spans.insert(reader_spans.end(), r.spans.begin(), r.spans.end());
  }
  const auto& ws = rec_.spans();
  const auto setup_child = [&](SpanName name) {
    std::vector<double> v;
    for (const Span& s : ws) {
      if (s.name == name && s.parent >= 0 &&
          ws[static_cast<std::size_t>(s.parent)].name == kSetup) {
        v.push_back(ns_to_s(s.end_ns - s.start_ns));
      }
    }
    return v;
  };
  // Event spans carry event_trace_id; warm-up events come first.
  const auto window_spans_ms = [&](SpanName name) {
    std::vector<double> v;
    for (const Span& s : ws) {
      if (s.name == name && s.trace_id % kMaxEvents >= wl_.warmup_events) {
        v.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
      }
    }
    return v;
  };
  // apply_event spans sit under event spans; warm-up events' event spans
  // sit under a set-up span, window events' do not.
  std::vector<double> repair_ms;
  std::map<std::uint64_t, double> warmup_by_setup;
  for (const Span& s : ws) {
    if (s.name != kApplyEvent) continue;
    const Span& ev = ws[static_cast<std::size_t>(s.parent)];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    if (ev.parent >= 0) {
      warmup_by_setup[ws[static_cast<std::size_t>(ev.parent)].trace_id] += ms * 1e-3;
    } else {
      repair_ms.push_back(ms);
    }
  }
  std::vector<double> warmup_s;
  for (const auto& [k, v] : warmup_by_setup) warmup_s.push_back(v);
  std::vector<double> publish_s = setup_child(kStorePublish);
  for (const double x : setup_child(kChannelPublish)) publish_s.push_back(x);
  std::vector<double> adopt_s = durations_s(reader_spans, kStoreAdopt);
  for (const double x : durations_s(reader_spans, kChannelAdopt)) adopt_s.push_back(x);
  const double hops = sc.at("hops");
  const double batches = static_cast<double>(rr.lat_us.size());
  const double events = static_cast<double>(window_events_);

  Metrics layer;
  // Wall-clock serving figures that do not repeat within any bound on a
  // shared host (NOTES.md), so they are reported traced.
  layer.add("serve.forward_qps",
            sc.at("window_ns") > 0 ? queries / (sc.at("window_ns") * 1e-9) : 0.0,
            "queries/s");
  layer.add("serve.batch_p99_us", quantile(rr.lat_us, 0.99), "us");
  layer.add("serve.visible_p50_ms", quantile(visible_ms_, 0.50), "ms");
  layer.add("serve.visible_p99_ms", quantile(visible_ms_, 0.99), "ms");
  layer.add("bgp.load_s", median(setup_child(kBgpLoad)), "s");
  layer.add("scheme.build_s", median(setup_child(kSchemeBuild)), "s");
  layer.add("scheme.build_rss_mib", build_rss_mib_, "MiB");
  layer.add("scheme.landmarks", static_cast<double>(landmarks_), "count");
  layer.add("scheme.table_entries", static_cast<double>(entries_), "count");
  layer.add("fib.compile_s", median(setup_child(kFibCompile)), "s");
  layer.add("fib.arena_bytes", static_cast<double>(plane.arena_bytes), "bytes");
  layer.add("fib.store.publish_s", median(publish_s), "s");
  layer.add("fib.store.adopt_s", median(adopt_s), "s");
  layer.add("fib.forward.ns_per_hop", hops > 0 ? sc.at("busy_ns") / hops : 0.0, "ns");
  layer.add("fib.forward.hops_per_query", queries > 0 ? hops / queries : 0.0, "hops");
  layer.add("fib.forward.seqlock_retries_per_kbatch",
            batches > 0 ? 1000.0 * sc.at("retries") / batches : 0.0, "count");
  layer.add("scheme.repair_ms.p50", quantile(repair_ms, 0.50), "ms");
  layer.add("scheme.repair_ms.p99", quantile(repair_ms, 0.99), "ms");
  layer.add("scheme.repair.full_rebuild_frac",
            events > 0 ? static_cast<double>(full_rebuilds_) / events : 0.0, "ratio");
  layer.add("scheme.repair.warmup_s", median(warmup_s), "s");
  layer.add("scheme.repair_rss_mib", repair_rss_mib_, "MiB");
  layer.add("fib.delta.rows_per_event",
            events > 0 ? static_cast<double>(delta_rows_) / events : 0.0, "rows");
  layer.add("fib.channel.apply_us.p50",
            quantile(window_spans_ms(kChannelApply), 0.50) * 1e3, "us");
  layer.add("fib.channel.refusal_frac",
            events > 0 ? static_cast<double>(refusals_) / events : 0.0, "ratio");
  layer.add("fib.channel.republish_ms.p50",
            quantile(window_spans_ms(kRepublish), 0.50), "ms");
  layer.add("fib.channel.adopt_ms.p50", quantile(rr.cutover_ms, 0.50), "ms");
  layer.add("sim.churn.lateness_ms.max", max_of(lateness_ms_), "ms");

  const auto self_w = self_seconds_by_layer(ws);
  const auto self_r = self_seconds_by_layer(reader_spans);
  for (std::size_t l = 0; l < kLayerNames.size(); ++l) {
    layer.add(std::string(kLayerNames[l]) + ".self_s", self_w[l] + self_r[l], "s");
  }
  // Tracing cost: spans recorded times the measured cost of one span,
  // over the traced run's set-up and serving time.
  double overhead = 0;
  if (cfg_.trace) {
    double wall_ns = sc.at("window_ns");
    for (const double x : setup_s_) wall_ns += x * 1e9;
    overhead = (static_cast<double>(ws.size()) * span_cost_ns() +
                static_cast<double>(reader_spans.size()) * sc.at("span_cost_ns")) /
               wall_ns;
  }
  layer.add("trace.overhead_frac", overhead, "ratio");

  Counts counts;
  counts["batches"] = batches;
  counts["queries"] = queries;
  counts["setups"] = static_cast<double>(setup_s_.size());
  counts["visible_samples"] = static_cast<double>(visible_ms_.size());
  counts["window_events"] = events;
  counts["nodes"] = n;
  counts["edges"] = static_cast<double>(plane.g->edge_count());
  counts["reader_threads"] = sc.at("threads");
  counts["writer_threads"] = static_cast<double>(cpr::ThreadPool::global().thread_count());
  counts["batch_size"] = static_cast<double>(wl_.batch);
  counts["event_rate_per_s"] = wl_.event_rate;

  return emit_result(cfg_, e2e, layer, counts, attempted_, failed_, ws,
                     reader_spans);
}

}  // namespace

int run_workload(const RunConfig& cfg) {
  for (const Workload& wl : kWorkloads) {
    if (cfg.workload != wl.name) continue;
    fs::remove_all(cfg.run_dir);
    fs::create_directories(cfg.run_dir);
    if (wl.churn) {
      // The writer repairs while the reader serves: it keeps the other
      // half of the CPUs, with the library's global pool sized to them
      // (CPR_THREADS is read when the pool starts). Elsewhere the reader
      // idles through set-up and the writer through the window, so the
      // writer keeps every CPU.
      pin_to(cfg.cpus.writer);
      ::setenv("CPR_THREADS", std::to_string(cfg.cpus.writer.size()).c_str(),
               1);
    }
    if (wl.family == Family::kTz) {
      return Run<cpr::TzNameIndependentScheme<Alg>>(cfg, wl).execute();
    }
    return Run<cpr::CowenScheme<Alg>>(cfg, wl).execute();
  }
  throw std::runtime_error("unknown workload: " + cfg.workload);
}

}  // namespace perfbench
