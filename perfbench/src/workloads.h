// The four workloads. Each forks its system under test, drives it from
// this one process (at most 4 client connections, one load thread plus a
// watcher), checks the outputs, and returns its metrics: the end-to-end
// set on a plain run, the per-layer set on a traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "util.h"

namespace perfbench {

struct RunConfig {
  Shape shape;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch space (WAL directories, journals)
  std::string spans_path;  ///< traced runs write their client spans here
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
};

class ScrapeDelta;

/// What a traced window observed from outside the system: the METRICS
/// deltas of its processes, /proc CPU, and the generator's own records.
/// Latencies are 0 for an operation class the workload does not send.
struct WindowObs {
  const ScrapeDelta* delta = nullptr;
  double appends = 0;   ///< acked appends in the window
  double faults = 0;    ///< kills (cluster) or crashes (fleet) completed
  double window_s = 0;
  double ops = 0;       ///< operations completed in the window
  double leader_cpu_us = 0;    ///< leader node (fleet: the server)
  double follower_cpu_us = 0;  ///< both followers (fleet: none)
  double loadgen_cpu_us = 0;
  double late_p99_us = 0;  ///< how late the generator sent, p99
  double refusals = 0;     ///< refused requests the generator retried
  double behind_acked = 0;  ///< reads older than an append acked before them
  double samples = 0;      ///< open-loop latency samples of the primary op
  double send_ns = 0;      ///< median client send span
  double append_p50_us = 0, append_p99_us = 0;
  double read_p50_us = 0, read_p99_us = 0;
  double failover_ms = 0, rejoin_ms = 0;
  double reelect_ms = 0, fleet_cpu_us = 0;
  double overhead_pct = 0;  ///< traced vs untraced open-loop median
  double spans = 0;
};

/// Appends the window's per-layer metrics (the same names on every
/// workload; a layer the workload leaves idle reads 0).
void push_window_metrics(const WindowObs& w, std::vector<Metric>& out);

RunResult run_cluster_workload(const RunConfig& cfg);
RunResult run_fleet_workload(const RunConfig& cfg);

/// Per-layer replays: the workload's own seeded inputs pushed in-process
/// through each layer's public functions, each call timed from outside.
/// `replay_dir` names a WAL directory to time a replay of (empty: the
/// replay's own journal).
void measure_layers(const Shape& shape, const Inputs& in, std::uint64_t seed,
                    const std::string& workdir, const std::string& replay_dir,
                    std::vector<Metric>& out);

}  // namespace perfbench
