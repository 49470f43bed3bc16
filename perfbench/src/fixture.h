// The systems under test, forked from the (single-threaded) generator:
// a 3-node SmrNode cluster with durable, quorum-acked B=64 appends and
// leader leases, or one process hosting an Ω fleet behind a LeaderServer.
// Both are driven and observed only from outside: the wire protocol,
// METRICS scrapes and /proc.
#pragma once

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/client.h"
#include "smr/node.h"

namespace perfbench {

inline constexpr omega::svc::GroupId kLogGid = 11;
inline constexpr std::uint32_t kNodes = 3;

/// Gives the generator the first CPU it may run on and every process it
/// forks afterwards the others (when it may use at least two), so the
/// load thread never shares a core with the system under test and runs do
/// not differ by where the scheduler happened to put it.
void isolate_generator();
/// Lets the generator use all its CPUs again (for the in-process replays).
void release_generator();

/// `n` free loopback ports. Every probe socket stays open until all are
/// picked, so the kernel cannot hand one port out twice.
std::vector<std::uint16_t> pick_ports(std::size_t n);

/// Dials `port` until it accepts or `deadline_ns` passes.
bool connect_retry(omega::net::Client& c, std::uint16_t port,
                   std::int64_t deadline_ns);

/// CPU and peak RSS bookkeeping of a set of child processes, including
/// incarnations that were killed (their last reading is kept).
class ProcWatch {
 public:
  void track(int slot, pid_t pid);
  /// Takes a last reading of `slot`'s process before it dies.
  void retire(int slot);
  /// CPU-µs used so far by `slot`, live and retired incarnations.
  double cpu_us(int slot) const;
  /// Samples current RSS of every live process; keeps the peak sum.
  void sample_rss();
  double peak_rss_bytes() const { return peak_rss_; }

 private:
  struct Entry {
    pid_t pid = -1;
    double retired_cpu_us = 0;
  };
  std::map<int, Entry> slots_;
  double peak_rss_ = 0;
};

class Cluster {
 public:
  /// Picks ports and wipes `wal_root`/node<i>; forks nothing yet.
  /// `steady` (the workloads with a closed loop) pins node i to the i-th
  /// server CPU and gives the spill ring 1024 rows of slack (see
  /// README.md); otherwise nodes run where the scheduler puts them, with
  /// the default slack, which 1000 requests/s never come near.
  Cluster(std::string wal_root, bool steady);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Forks node `node` over its WAL directory (a fresh start or a restart
  /// in place). Call only while the calling process has no threads.
  void spawn(std::uint32_t node);
  /// SIGKILLs and reaps node `node`.
  void kill(std::uint32_t node);

  bool alive(std::uint32_t node) const { return pids_[node] > 0; }
  std::uint16_t port(std::uint32_t node) const {
    return topo_.nodes[node].serve_port;
  }
  std::uint32_t node_of(omega::ProcessId replica) const {
    return topo_.node_of(replica);
  }
  const std::string& wal_dir(std::uint32_t node) const {
    return wal_dirs_[node];
  }
  /// Replica named by a live node's LEADER answer, if it is on a live
  /// node; kNoProcess when none qualifies by `deadline_ns`.
  omega::ProcessId await_leader(std::int64_t deadline_ns) const;

  ProcWatch& procs() { return procs_; }

 private:
  omega::smr::NodeTopology topo_;
  std::vector<std::string> wal_dirs_;
  std::array<pid_t, kNodes> pids_{-1, -1, -1};
  ProcWatch procs_;
  bool steady_;
};

/// One process serving `groups` Ω groups (n=3, no log). On a start
/// signal it crashes the current leader of each scheduled group at its
/// offset through svc.crash, and reports (gid, crashed pid, time) back.
class FleetServer {
 public:
  struct Crash {
    std::uint64_t gid = 0;
    omega::ProcessId pid = omega::kNoProcess;
    std::int64_t at_ns = 0;
  };

  FleetServer(std::uint32_t groups, std::vector<std::int64_t> offsets,
              std::vector<std::uint64_t> gids);
  ~FleetServer();
  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  void spawn();
  /// Starts the crash schedule at `t0_ns` (CLOCK_MONOTONIC).
  void start_crashes(std::int64_t t0_ns);
  /// Waits for the child's crash reports (up to `deadline_ns`).
  std::vector<Crash> crashes(std::int64_t deadline_ns);

  std::uint16_t port() const { return port_; }
  ProcWatch& procs() { return procs_; }

 private:
  std::uint32_t groups_;
  std::vector<std::int64_t> offsets_;
  std::vector<std::uint64_t> gids_;
  std::uint16_t port_ = 0;
  pid_t pid_ = -1;
  int start_fd_ = -1;   ///< parent -> child: t0
  int report_fd_ = -1;  ///< child -> parent: crash records
  ProcWatch procs_;
};

/// Window-edge METRICS deltas, summed over processes and incarnations.
class ScrapeDelta {
 public:
  using Buckets = std::array<double, 64>;

  /// Adds `after - before` of every counter, gauge and histogram.
  void add(const std::vector<omega::obs::MetricSample>& before,
           const std::vector<omega::obs::MetricSample>& after);
  double count(const std::string& name) const;
  /// Interpolated quantile of a histogram delta (ns); 0 when empty.
  double quantile(const std::string& name, double q) const;

 private:
  double hist_count(const std::string& name) const;

  std::map<std::string, double> counts_;
  std::map<std::string, Buckets> hists_;
};

/// A full METRICS scrape; empty on any transport error.
std::vector<omega::obs::MetricSample> scrape(omega::net::Client& c);

}  // namespace perfbench
