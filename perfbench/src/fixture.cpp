#include "fixture.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "net/leader_server.h"
#include "svc/multigroup_service.h"
#include "util.h"

namespace perfbench {

using namespace omega;

namespace {

/// CPUs the generator started with, and the share its children get once
/// isolate_generator() took the first for itself.
cpu_set_t g_all_cpus;
cpu_set_t g_server_cpus;
bool g_isolated = false;

/// Readies a forked child: it dies with the generator, runs on the server
/// CPUs (on one of them, given a slot), and closes every descriptor it
/// inherited (the client sockets above all: a respawned node holding them
/// would keep the generator's dead connections open on the other nodes).
void close_inherited(std::initializer_list<int> keep, int cpu_slot = -1) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(1);
  if (g_isolated) {
    cpu_set_t cpus = g_server_cpus;
    if (cpu_slot >= 0) {
      // One server CPU per slot (round robin): a node's threads share one
      // core, the same in every cluster, instead of wherever the scheduler
      // puts them, which moved a cluster's rate by up to 1.7x.
      const int k = cpu_slot % CPU_COUNT(&g_server_cpus);
      CPU_ZERO(&cpus);
      for (int c = 0, seen = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &g_server_cpus) && seen++ == k) CPU_SET(c, &cpus);
      }
    }
    ::sched_setaffinity(0, sizeof cpus, &cpus);
  }
  const long max_fd = std::min<long>(::sysconf(_SC_OPEN_MAX), 65536);
  for (int fd = 3; fd < max_fd; ++fd) {
    bool kept = false;
    for (const int k : keep) kept = kept || k == fd;
    if (!kept) ::close(fd);
  }
}

/// The log every node hosts: n=3, B=64, durable and quorum-acked, with
/// epoch-fenced leader leases so reads take the lease and read-index
/// paths. Sized so the largest run stays far below capacity.
smr::SmrSpec log_spec(bool steady) {
  smr::SmrSpec spec;
  spec.n = 3;
  spec.capacity = 65536;
  spec.window = 4;
  spec.max_batch = 64;
  spec.max_pending = 8192;
  spec.quorum_ack = true;
  spec.lease_ttl_us = 400000;
  spec.lease_skew_us = 20000;
  // A follower whose apply trails the sealer by more spill-ring rows than
  // this reads overwritten payloads and stalls for good; the default 64
  // rows wedged one write_durable run in a dozen. 1024 rows are about
  // 0.2 s of the closed write loop.
  if (steady) spec.ring_slack = 1024;
  return spec;
}

/// 50 ms failure-detection ticks with adaptive pacing, as the multi-node
/// deployment is tuned: a live leader is never suspected, a killed one is
/// replaced in a few ticks.
svc::SvcConfig node_svc_config() {
  svc::SvcConfig cfg;
  cfg.workers = 1;
  cfg.tick_us = 50000;
  cfg.wheel_slot_us = 4096;
  cfg.ops_per_sweep = 64;
  cfg.pace_us = 50;
  cfg.max_pace_us = 2000;
  cfg.worker_nice = 10;
  return cfg;
}

/// The fleet: two workers, 50 ms ticks, a paced sweep that backs off to
/// 8 ms when idle — heartbeats stay far inside the monitor timeout, and
/// the fleet leaves the generator most of the machine.
svc::SvcConfig fleet_svc_config() {
  svc::SvcConfig cfg;
  cfg.workers = 2;
  cfg.tick_us = 50000;
  cfg.wheel_slot_us = 4096;
  cfg.ops_per_sweep = 2;
  cfg.pace_us = 2000;
  cfg.max_pace_us = 8000;
  cfg.worker_nice = 10;
  return cfg;
}

[[noreturn]] void run_node(smr::NodeTopology topo, std::uint32_t self,
                           const std::string& wal_dir, bool steady) {
  close_inherited({}, steady ? static_cast<int>(self) : -1);
  try {
    topo.self = self;
    wal::WalOptions wopts;
    wopts.dir = wal_dir;
    smr::SmrNode node(topo, node_svc_config(), {}, wopts);
    node.add_log(kLogGid, log_spec(steady));
    node.start();
    for (;;) ::pause();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "node %u failed: %s\n", self, e.what());
  }
  ::_exit(1);
}

bool write_all(int fd, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  while (n > 0) {
    const ssize_t w = ::write(fd, b, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    b += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* p, std::size_t n) {
  auto* b = static_cast<std::uint8_t*>(p);
  while (n > 0) {
    const ssize_t r = ::read(fd, b, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    b += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

[[noreturn]] void run_fleet(std::uint32_t groups, std::uint16_t port,
                            std::vector<std::int64_t> offsets,
                            std::vector<std::uint64_t> gids, int start_fd,
                            int report_fd) {
  close_inherited({start_fd, report_fd});
  try {
    svc::MultiGroupLeaderService service(fleet_svc_config());
    for (svc::GroupId g = 0; g < groups; ++g) service.add_group(g);
    service.start();
    net::NetConfig ncfg;
    ncfg.port = port;
    net::LeaderServer server(service, ncfg);
    server.start();
    std::int64_t t0 = 0;
    if (!read_all(start_fd, &t0, sizeof t0)) ::_exit(0);
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      const std::int64_t at = t0 + offsets[i];
      while (now_ns() < at) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::int64_t>(at - now_ns(), 1000000)));
      }
      FleetServer::Crash c;
      c.gid = gids[i];
      c.pid = service.leader(gids[i]).leader;
      if (c.pid != kNoProcess) service.crash(gids[i], c.pid);
      c.at_ns = now_ns();
      if (!write_all(report_fd, &c, sizeof c)) ::_exit(1);
    }
    for (;;) ::pause();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet server failed: %s\n", e.what());
  }
  ::_exit(1);
}

void reap(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

void isolate_generator() {
  if (g_isolated || ::sched_getaffinity(0, sizeof g_all_cpus, &g_all_cpus) != 0) return;
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_ZERO(&g_server_cpus);
  bool first = true;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &g_all_cpus)) continue;
    CPU_SET(c, first ? &mine : &g_server_cpus);
    first = false;
  }
  if (CPU_COUNT(&g_server_cpus) == 0) return;
  g_isolated = ::sched_setaffinity(0, sizeof mine, &mine) == 0;
}

void release_generator() {
  if (g_isolated) ::sched_setaffinity(0, sizeof g_all_cpus, &g_all_cpus);
  g_isolated = false;
}

std::vector<std::uint16_t> pick_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      throw std::runtime_error("port probe failed");
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

bool connect_retry(net::Client& c, std::uint16_t port,
                   std::int64_t deadline_ns) {
  for (;;) {
    try {
      c.connect("127.0.0.1", port, 500);
      return true;
    } catch (const net::NetError&) {
      if (now_ns() >= deadline_ns) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

void ProcWatch::track(int slot, pid_t pid) { slots_[slot].pid = pid; }

void ProcWatch::retire(int slot) {
  Entry& e = slots_[slot];
  ProcStat s;
  if (e.pid > 0 && read_proc_stat(e.pid, s)) e.retired_cpu_us += perfbench::cpu_us(s);
  e.pid = -1;
}

double ProcWatch::cpu_us(int slot) const {
  const auto it = slots_.find(slot);
  if (it == slots_.end()) return 0;
  double us = it->second.retired_cpu_us;
  ProcStat s;
  if (it->second.pid > 0 && read_proc_stat(it->second.pid, s)) {
    us += perfbench::cpu_us(s);
  }
  return us;
}

void ProcWatch::sample_rss() {
  double sum = 0;
  for (const auto& [slot, e] : slots_) {
    ProcStat s;
    if (e.pid > 0 && read_proc_stat(e.pid, s)) sum += rss_bytes(s);
  }
  peak_rss_ = std::max(peak_rss_, sum);
}

Cluster::Cluster(std::string wal_root, bool steady) : steady_(steady) {
  const std::vector<std::uint16_t> ports = pick_ports(2 * kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    topo_.nodes.push_back(
        smr::NodeEndpoint{i, "127.0.0.1", ports[2 * i], ports[2 * i + 1]});
    wal_dirs_.push_back(wal_root + "/node" + std::to_string(i));
    std::filesystem::remove_all(wal_dirs_.back());
    std::filesystem::create_directories(wal_dirs_.back());
  }
}

Cluster::~Cluster() {
  for (std::uint32_t i = 0; i < kNodes; ++i) reap(pids_[i]);
}

void Cluster::spawn(std::uint32_t node) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) run_node(topo_, node, wal_dirs_[node], steady_);
  pids_[node] = pid;
  procs_.track(static_cast<int>(node), pid);
}

void Cluster::kill(std::uint32_t node) {
  procs_.retire(static_cast<int>(node));
  reap(pids_[node]);
  pids_[node] = -1;
}

ProcessId Cluster::await_leader(std::int64_t deadline_ns) const {
  do {
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      if (!alive(node)) continue;
      try {
        net::Client c;
        c.connect("127.0.0.1", port(node), 200);
        const auto r = c.leader(kLogGid);
        if (r.ok() && r.view.leader != kNoProcess &&
            alive(node_of(r.view.leader))) {
          return r.view.leader;
        }
      } catch (const net::NetError&) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (now_ns() < deadline_ns);
  return kNoProcess;
}

FleetServer::FleetServer(std::uint32_t groups, std::vector<std::int64_t> offsets,
                         std::vector<std::uint64_t> gids)
    : groups_(groups), offsets_(std::move(offsets)), gids_(std::move(gids)) {
  port_ = pick_ports(1)[0];
}

FleetServer::~FleetServer() {
  if (start_fd_ >= 0) ::close(start_fd_);
  if (report_fd_ >= 0) ::close(report_fd_);
  reap(pid_);
}

void FleetServer::spawn() {
  int start[2];
  int report[2];
  if (::pipe(start) != 0 || ::pipe(report) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    run_fleet(groups_, port_, offsets_, gids_, start[0], report[1]);
  }
  ::close(start[0]);
  ::close(report[1]);
  start_fd_ = start[1];
  report_fd_ = report[0];
  procs_.track(0, pid_);
}

void FleetServer::start_crashes(std::int64_t t0_ns) {
  if (!write_all(start_fd_, &t0_ns, sizeof t0_ns)) {
    throw std::runtime_error("fleet server is gone");
  }
}

std::vector<FleetServer::Crash> FleetServer::crashes(std::int64_t deadline_ns) {
  std::vector<Crash> out;
  while (out.size() < offsets_.size()) {
    const std::int64_t left = deadline_ns - now_ns();
    pollfd p{report_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left / 1000000) + 1) <= 0) break;
    Crash c;
    if (!read_all(report_fd_, &c, sizeof c)) break;
    out.push_back(c);
  }
  return out;
}

void ScrapeDelta::add(const std::vector<obs::MetricSample>& before,
                      const std::vector<obs::MetricSample>& after) {
  std::map<std::string, const obs::MetricSample*> base;
  for (const auto& s : before) base[s.name] = &s;
  for (const auto& s : after) {
    const auto it = base.find(s.name);
    const obs::MetricSample* b = it == base.end() ? nullptr : it->second;
    counts_[s.name] +=
        static_cast<double>(s.value) - (b ? static_cast<double>(b->value) : 0);
    if (s.kind != obs::MetricSample::Kind::kHistogram) continue;
    Buckets& h = hists_[s.name];
    for (const auto& [bucket, n] : s.buckets) h[bucket] += static_cast<double>(n);
    if (b == nullptr) continue;
    for (const auto& [bucket, n] : b->buckets) h[bucket] -= static_cast<double>(n);
  }
}

double ScrapeDelta::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

double ScrapeDelta::hist_count(const std::string& name) const {
  const auto it = hists_.find(name);
  if (it == hists_.end()) return 0;
  double total = 0;
  for (const double n : it->second) total += std::max(0.0, n);
  return total;
}

double ScrapeDelta::quantile(const std::string& name, double q) const {
  const auto it = hists_.find(name);
  const double total = hist_count(name);
  if (it == hists_.end() || total <= 0) return 0;
  // Bucket b >= 1 holds [2^(b-1), 2^b - 1]; spread its samples evenly.
  const double target = q * total;
  double below = 0;
  for (std::size_t b = 0; b < it->second.size(); ++b) {
    const double n = std::max(0.0, it->second[b]);
    if (n <= 0) continue;
    if (below + n >= target) {
      if (b == 0) return 0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(b)) - 1;
      return lo + (hi - lo) * (target - below) / n;
    }
    below += n;
  }
  return 0;
}

std::vector<obs::MetricSample> scrape(net::Client& c) {
  try {
    auto m = c.metrics();
    if (m.ok()) return std::move(m.metrics);
  } catch (const net::NetError&) {
  }
  return {};
}

}  // namespace perfbench
