#include "inputs.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "util.h"

namespace perfbench {

namespace {

// Open-loop rates sit well below saturation on a 4-core box and are high
// enough that a run holds dozens of 1000-sample groups: the reported p99
// is the median of the groups' p99s, which one stall cannot move. Cluster
// workloads spread each run over several fresh clusters, so one cluster's
// placement (which node leads, where its threads land) and one stretch of
// a busy host cannot set a run's numbers.
const Shape kShapes[] = {
    // Appends only: consensus, mirror and WAL carry the load. The open rate
    // is modest because every lone append is its own fdatasync on three
    // nodes, and a WAL of many small synced writes is slow to delete.
    {"write_durable", 2000, 0.6, 0.0, 0.0, 0, 6, 0, 0, 0, 0},
    // 95% point reads over all nodes, 1 in 20 of them read-your-writes.
    {"read_mostly", 10000, 0.6, 0.95, 0.05, 1024, 6, 0, 0, 0, 0},
    // A steady mix while the leader is killed and respawned: one kill per
    // cluster (a second kill after a restart in place can stall the log;
    // see README.md). A takeover lasts 50-100 ms depending on where the
    // kill falls in the failure detector's tick, so the run's tail needs a
    // dozen kills to repeat.
    {"failover", 1000, 1.0, 0.5, 0.0, 256, 12, 12, 0, 0, 0},
    // LEADER queries over a fleet of Omega groups, some crashed mid-run.
    {"leader_fleet", 10000, 0.6, 0.0, 0.0, 0, 1, 0, 1000, 4, 64},
};

constexpr std::size_t kClosedInputs = 1 << 16;
constexpr double kZipfExponent = 0.99;

}  // namespace

bool shape_of(const std::string& workload, Shape& out) {
  for (const Shape& s : kShapes) {
    if (s.name == workload) {
      out = s;
      return true;
    }
  }
  return false;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Shape& s : kShapes) names.push_back(s.name);
  return names;
}

Inputs make_inputs(const Shape& shape, std::uint64_t seed, double open_s,
                   double window_s) {
  // One stream per input kind, so changing one (say the fault count) never
  // shifts another.
  std::uint64_t salt = 0;
  for (const char c : shape.name) salt = salt * 131 + static_cast<unsigned char>(c);
  Rand pool_rng(seed ^ (salt * 0x100000001B3ULL) ^ 0x1);
  Rand open_rng(seed ^ (salt * 0x100000001B3ULL) ^ 0x2);
  Rand closed_rng(seed ^ (salt * 0x100000001B3ULL) ^ 0x3);
  Rand fault_rng(seed ^ (salt * 0x100000001B3ULL) ^ 0x4);

  Inputs in;
  for (std::uint32_t i = 0; i < shape.pool; ++i) {
    in.pool.push_back(to_command(pool_rng.next()));
  }

  const Zipf zipf(std::max<std::uint32_t>(shape.pool, 1), kZipfExponent);
  const double gap_ns = 1e9 / shape.open_rate;
  const double end_ns = open_s * 1e9;
  for (double t = open_rng.exponential(gap_ns); t < end_ns;
       t += open_rng.exponential(gap_ns)) {
    Op op;
    op.due_ns = static_cast<std::int64_t>(t);
    if (shape.groups > 0) {
      op.kind = OpKind::kLeader;
      op.rank = static_cast<std::uint32_t>(open_rng.below(shape.groups));
    } else if (open_rng.unit() < shape.read_share) {
      op.kind = OpKind::kRead;
      op.node = static_cast<std::uint8_t>(open_rng.below(3));
      op.ryw = open_rng.unit() < shape.ryw_share;
      op.rank = static_cast<std::uint32_t>(zipf.draw(open_rng));
    } else {
      op.kind = OpKind::kAppend;
      op.command = to_command(open_rng.next());
    }
    in.open.push_back(op);
  }

  for (std::size_t i = 0; i < kClosedInputs; ++i) {
    if (shape.groups > 0) {
      in.closed.push_back(closed_rng.below(shape.groups));
    } else if (shape.read_share > 0) {
      in.closed.push_back(zipf.draw(closed_rng));
    } else {
      in.closed.push_back(to_command(closed_rng.next()));
    }
  }

  // Faults land one per equal slice of the window, at a seeded point of
  // its middle, so each has time to heal before the next.
  const std::uint32_t faults = shape.kills + shape.crashes;
  for (std::uint32_t k = 0; k < faults; ++k) {
    const double at = window_s * (k + 0.2 + 0.4 * fault_rng.unit()) / faults;
    in.faults.push_back(static_cast<std::int64_t>(at * 1e9));
  }
  std::unordered_set<std::uint64_t> taken;
  while (in.fault_gids.size() < shape.crashes) {
    const std::uint64_t g = fault_rng.below(shape.groups);
    if (taken.insert(g).second) in.fault_gids.push_back(g);
  }
  in.watch_gids = in.fault_gids;
  while (in.watch_gids.size() < shape.watched) {
    const std::uint64_t g = fault_rng.below(shape.groups);
    if (taken.insert(g).second) in.watch_gids.push_back(g);
  }
  return in;
}

std::vector<std::uint8_t> serialize(const Inputs& in) {
  std::vector<std::uint8_t> out;
  const auto put = [&out](const void* p, std::size_t n) {
    const std::size_t at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, p, n);
  };
  const auto put_vec = [&](const auto& v) {
    const std::uint64_t n = v.size();
    put(&n, sizeof n);
    for (const auto& x : v) put(&x, sizeof x);
  };
  put_vec(in.pool);
  const std::uint64_t n = in.open.size();
  put(&n, sizeof n);
  for (const Op& op : in.open) {
    put(&op.due_ns, sizeof op.due_ns);
    const std::uint8_t kind = static_cast<std::uint8_t>(op.kind);
    put(&kind, 1);
    put(&op.node, 1);
    const std::uint8_t ryw = op.ryw ? 1 : 0;
    put(&ryw, 1);
    put(&op.rank, sizeof op.rank);
    put(&op.command, sizeof op.command);
  }
  put_vec(in.closed);
  put_vec(in.faults);
  put_vec(in.fault_gids);
  put_vec(in.watch_gids);
  return out;
}

}  // namespace perfbench
