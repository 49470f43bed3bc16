// Seeded workload inputs. Everything a run sends — the key pool, the
// open-loop schedule, the fault schedule — is generated here from the
// workload name and the seed before the system under test is touched, so
// the same seed gives a byte-identical input stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class OpKind : std::uint8_t { kAppend = 0, kRead = 1, kLeader = 2 };

/// One open-loop request.
struct Op {
  std::int64_t due_ns = 0;  ///< offset from the start of the open-loop phase
  OpKind kind = OpKind::kAppend;
  std::uint8_t node = 0;  ///< reads: the node asked first
  bool ryw = false;       ///< read-your-writes: follower read fenced at the
                          ///< newest acked append's index, on its key
  std::uint32_t rank = 0;     ///< reads: Zipf rank in the pool; leader: gid
  std::uint64_t command = 0;  ///< appends: the value, in [1, 65534]
};

/// Fixed shape of one workload (rates, phase split, fault counts).
struct Shape {
  std::string name;
  double open_rate = 0;       ///< open-loop requests per second
  double open_share = 1.0;    ///< share of --seconds spent open loop
  double read_share = 0;      ///< share of open-loop requests that read
  double ryw_share = 0;       ///< share of reads that are read-your-writes
  std::uint32_t pool = 0;     ///< acked keys reads are drawn from
  std::uint32_t clusters = 1; ///< fresh clusters per run, each measuring an
                              ///< equal slice of the window (cluster workloads)
  std::uint32_t kills = 0;    ///< leader SIGKILLs per run, one per cluster
  std::uint32_t groups = 0;   ///< election groups (leader_fleet)
  std::uint32_t crashes = 0;  ///< replica crashes per run (leader_fleet)
  std::uint32_t watched = 0;  ///< groups held under WATCH (leader_fleet)
};

/// The shape of a named workload; false for an unknown name.
bool shape_of(const std::string& workload, Shape& out);
std::vector<std::string> workload_names();

struct Inputs {
  std::vector<std::uint64_t> pool;   ///< commands appended before the window
  std::vector<Op> open;              ///< the open-loop schedule, by due time
  std::vector<std::uint64_t> closed; ///< closed-loop commands / keys / gids
  std::vector<std::int64_t> faults;  ///< kill or crash offsets in the window
  std::vector<std::uint64_t> fault_gids;  ///< leader_fleet: group per crash
  std::vector<std::uint64_t> watch_gids;  ///< leader_fleet: watched groups
};

/// Inputs of `shape` for `seed`, with an open-loop phase of `open_s`
/// seconds and a fault window of `window_s` seconds.
Inputs make_inputs(const Shape& shape, std::uint64_t seed, double open_s,
                   double window_s);

/// Canonical byte encoding of the inputs (the determinism self-test
/// compares these).
std::vector<std::uint8_t> serialize(const Inputs& in);

/// A command value in the log's range [1, 65534].
inline std::uint64_t to_command(std::uint64_t r) { return 1 + r % 65534; }

}  // namespace perfbench
