// The serving process: adopts the writer's published arena, serves
// forward_batch in a closed loop from one client thread and its pool, and
// notes when each churn event becomes visible.
#include "common.hpp"
#include "control.hpp"
#include "roles.hpp"
#include "trace.hpp"

#include "fib/arena_store.hpp"
#include "fib/forward_engine.hpp"
#include "fib/patch_channel.hpp"
#include "sim/workload.hpp"
#include "util/thread_pool.hpp"

#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/inotify.h>
#include <sys/prctl.h>
#include <unistd.h>

namespace perfbench {
namespace {

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

using Query = std::pair<NodeId, NodeId>;

// inotify on the store directory: publishes land by rename(2), so the
// reader wakes on IN_MOVED_TO instead of polling CURRENT.
class StoreWatch {
 public:
  explicit StoreWatch(const std::filesystem::path& dir)
      : fd_(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {
    if (fd_ < 0 ||
        ::inotify_add_watch(fd_, dir.c_str(),
                            IN_MOVED_TO | IN_CLOSE_WRITE | IN_CREATE) < 0) {
      throw std::runtime_error("reader: cannot watch " + dir.string());
    }
  }
  ~StoreWatch() { ::close(fd_); }
  StoreWatch(const StoreWatch&) = delete;
  StoreWatch& operator=(const StoreWatch&) = delete;

  void wait(int timeout_ms) const {
    pollfd p{fd_, POLLIN, 0};
    ::poll(&p, 1, timeout_ms);
  }

  // Consumes pending events; true when there were any.
  bool drain() const {
    alignas(inotify_event) char buf[4096];
    bool any = false;
    while (::read(fd_, buf, sizeof buf) > 0) any = true;
    return any;
  }

 private:
  int fd_;
};

// The arena the reader serves, from whichever store flavour the
// workload publishes through.
class Served {
 public:
  Served(bool channel, const std::filesystem::path& dir) {
    if (channel) {
      channel_.emplace(dir);
    } else {
      store_.emplace(dir);
    }
  }

  // Re-resolves the store head; true when the served arena changed.
  bool refresh() {
    if (channel_) {
      auto next = channel_->current();
      if (!next || next == chan_) return false;
      chan_ = std::move(next);
      return true;
    }
    auto next = store_->current();
    if (!next || next == file_) return false;
    file_ = std::move(next);
    return true;
  }

  const cpr::FlatFib& fib() const {
    return chan_ ? chan_->fib() : file_->fib();
  }

  PlaneState state() const {
    if (chan_) return {chan_->arena_generation(), chan_->patches_applied()};
    return {file_ ? file_->generation() : 0, 0};
  }

 private:
  std::optional<cpr::ArenaStore> store_;
  std::optional<cpr::PatchChannelReader> channel_;
  std::shared_ptr<const cpr::ServedArena> file_;
  std::shared_ptr<const cpr::ChannelArena> chan_;
};

constexpr std::size_t kBatchPool = 64;
constexpr std::size_t kZipfPermutations = 8;

}  // namespace

int reader_main(const ReaderArgs& a) {
  // Never outlive the writer, however it ends.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  pin_to(a.cpus);
  ControlMap ctl = ControlMap::attach(a.control);
  Recorder rec(a.trace);
  cpr::ThreadPool pool(reader_threads(a.cpus.size()));
  StoreWatch watch(a.store);
  Served served(a.channel, a.store);
  ctl->ready.store(1, std::memory_order_release);

  // Adopt the first generation the writer publishes.
  while (true) {
    if (ctl->finish.load(std::memory_order_acquire) !=
        static_cast<std::uint32_t>(Finish::kRunning)) {
      return 0;
    }
    watch.wait(5);
    watch.drain();
    const std::int64_t t0 = now_ns();
    if (served.refresh()) {
      const std::int64_t t1 = now_ns();
      rec.add(a.channel ? kChannelAdopt : kStoreAdopt, a.setup, t0, t1);
      ctl->adopted_ns.store(t1, std::memory_order_release);
      break;
    }
  }

  const std::size_t n = served.fib().node_count();
  const cpr::Graph shape(n);  // the generators read only the node count
  // Zipf popularity is a seeded rank-to-node permutation; rotating several
  // through the batch pool keeps one draw of hot targets from deciding a
  // run's figures.
  const std::size_t streams = a.zipf ? kZipfPermutations : 1;
  std::vector<std::unique_ptr<cpr::Rng>> rngs;
  std::vector<std::unique_ptr<cpr::WorkloadGenerator>> gens;
  std::vector<std::vector<Query>> batches;
  const auto make_batch = [&] {
    const std::size_t stream = batches.size() % streams;
    if (stream == gens.size()) {
      rngs.push_back(std::make_unique<cpr::Rng>(
          a.seed * 0x9e3779b97f4a7c15ull + 0x51 + stream));
      gens.push_back(std::make_unique<cpr::WorkloadGenerator>(
          a.zipf ? cpr::WorkloadGenerator::Kind::kZipf
                 : cpr::WorkloadGenerator::Kind::kUniform,
          shape, *rngs.back()));
    }
    std::vector<Query> b;
    b.reserve(a.batch);
    for (std::size_t i = 0; i < a.batch; ++i) {
      const cpr::Demand d = gens[stream]->next();
      b.emplace_back(d.source, d.target);
    }
    batches.push_back(std::move(b));
  };

  cpr::FibBatchOptions opt;
  opt.pool = &pool;
  opt.record_paths = false;
  opt.seqlock_max_retries = kSeqlockRetries;

  std::uint32_t next_event = 0;
  const auto observe = [&] {
    const std::uint32_t published =
        ctl->events_published.load(std::memory_order_acquire);
    if (next_event >= published) return;
    const std::int64_t t0 = now_ns();
    const PlaneState st = served.state();
    while (next_event < published) {
      EventSlot& e = ctl->events[next_event];
      const PlaneState need{e.generation.load(std::memory_order_acquire),
                            e.patches.load(std::memory_order_acquire)};
      if (!st.covers(need)) break;
      const std::int64_t t = now_ns();
      e.visible_ns.store(t, std::memory_order_release);
      rec.add(kObserve, event_trace_id(a.setup, next_event), t0, t);
      ++next_event;
    }
    ctl->observed.store(next_event, std::memory_order_release);
  };

  std::vector<double> lat_us;  // each measured batch
  lat_us.reserve(1 << 18);
  std::uint64_t queries = 0, hops = 0, undelivered = 0, retries = 0;
  std::uint64_t failed_queries = 0, batches_served = 0;
  std::int64_t win_start = 0, win_end = 0, busy_ns = 0;
  std::int64_t cpu_start = 0, cpu_end = 0;
  std::vector<double> cutover_ms;

  const auto serve = [&](const std::vector<Query>& b, bool measured) {
    const std::int64_t t0 = now_ns();
    std::optional<cpr::FibBatchOutput> out;
    try {
      out = cpr::forward_batch(served.fib(), b, opt);
    } catch (const std::exception&) {
      // Seqlock retries exhausted: the batch is lost.
    }
    const std::int64_t t1 = now_ns();
    rec.add(kForward, batches_served, t0, t1);
    ++batches_served;
    if (!measured) return t1;
    busy_ns += t1 - t0;
    lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    queries += b.size();
    if (!out) {
      failed_queries += b.size();
      return t1;
    }
    retries += out->seqlock_retries;
    for (const cpr::FibRouteResult& r : out->results) {
      hops += r.hops();
      undelivered += r.delivered ? 0 : 1;
    }
    return t1;
  };

  make_batch();
  ctl->first_batch_ns.store(serve(batches.front(), false),
                            std::memory_order_release);
  while (batches.size() < kBatchPool) make_batch();
  ctl->armed.store(1, std::memory_order_release);

  // Serve until the window closes; afterwards only keep observing.
  std::int64_t last_refresh = now_ns();
  while (ctl->finish.load(std::memory_order_acquire) ==
         static_cast<std::uint32_t>(Finish::kRunning)) {
    const bool go = ctl->go.load(std::memory_order_acquire) != 0;
    const bool stop = ctl->stop.load(std::memory_order_acquire) != 0;
    if (go && win_start == 0) {
      win_start = now_ns();
      cpu_start = process_cpu_ns();
    }
    if (stop && win_start != 0 && win_end == 0) {
      win_end = now_ns();
      cpu_end = process_cpu_ns();
    }
    // A missed inotify event costs at most the 50 ms backstop.
    if (watch.drain() || now_ns() - last_refresh > 50'000'000) {
      const std::int64_t t0 = now_ns();
      if (served.refresh()) {
        const std::int64_t t1 = now_ns();
        rec.add(kChannelCutover, served.state().generation, t0, t1);
        cutover_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      }
      last_refresh = now_ns();
    }
    observe();
    if (win_end != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    serve(batches[batches_served % batches.size()], win_start != 0);
  }

  if (win_start != 0 && win_end == 0) {
    win_end = now_ns();
    cpu_end = process_cpu_ns();
  }

  std::ofstream out(a.out);
  out.precision(17);
  if (static_cast<Finish>(ctl->finish.load()) == Finish::kProbe) {
    // The correctness probe runs on the arena a client would be served
    // once the writer's final state is visible.
    const PlaneState need{ctl->final_generation.load(),
                          ctl->final_patches.load()};
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (!served.state().covers(need) && now_ns() < deadline) {
      watch.wait(5);
      watch.drain();
      served.refresh();
    }
    const auto probe = probe_queries(n);
    cpr::FibBatchOptions popt = opt;
    popt.record_paths = true;
    const cpr::FibBatchOutput po = cpr::forward_batch(served.fib(), probe, popt);
    out << "final_state " << (served.state().covers(need) ? 1 : 0) << "\n";
    for (std::size_t i = 0; i < probe.size(); ++i) {
      const auto path = po.path(i);
      out << "path " << int{po.results[i].delivered} << " " << path.size();
      for (const NodeId v : path) out << " " << v;
      out << "\n";
    }
  }
  out << "nodes " << n << "\n";
  out << "arena_bytes " << served.fib().byte_size() << "\n";
  out << "window_ns " << (win_end - win_start) << "\n";
  out << "busy_ns " << busy_ns << "\n";
  out << "cpu_ns " << (cpu_end - cpu_start) << "\n";
  out << "queries " << queries << "\n";
  out << "hops " << hops << "\n";
  out << "undelivered " << undelivered << "\n";
  out << "retries " << retries << "\n";
  out << "failed_queries " << failed_queries << "\n";
  out << "threads " << pool.thread_count() << "\n";
  out << "peak_rss_mib " << peak_rss_mib() << "\n";
  out << "lat_us";
  for (const double x : lat_us) out << " " << x;
  out << "\n";
  out << "cutover_ms";
  for (const double x : cutover_ms) out << " " << x;
  out << "\n";
  if (rec.on()) out << "span_cost_ns " << span_cost_ns() << "\n";
  for (const Span& s : rec.spans()) {
    out << "span " << s.name << " " << s.parent << " " << s.trace_id << " "
        << s.start_ns << " " << s.end_ns << "\n";
  }
  out.close();
  return out ? 0 : 1;
}

}  // namespace perfbench
