// Per-layer costs. Window metrics come from the METRICS deltas and /proc
// readings of the forked processes; replay metrics push the workload's own
// seeded inputs in-process through each layer's public functions and time
// every call from outside. Nothing here changes the code it measures.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "consensus/log_pump.h"
#include "fixture.h"
#include "net/frame.h"
#include "registers/mirror.h"
#include "rt/atomic_memory.h"
#include "sim/scenario.h"
#include "smr/command_queue.h"
#include "smr/smr_service.h"
#include "svc/multigroup_service.h"
#include "wal/wal.h"
#include "workloads.h"

namespace perfbench {

using namespace omega;

void push_window_metrics(const WindowObs& w, std::vector<Metric>& m) {
  const ScrapeDelta& d = *w.delta;
  const auto q = [&](const char* name, double quant) {
    return d.quantile(name, quant);
  };
  const double appends = std::max(w.appends, 1.0);
  const double faults = std::max(w.faults, 1.0);
  const double ops = std::max(w.ops, 1.0);
  m.push_back({"net.ack_flush_p50_ns", q("net.ack_flush_ns", 0.5), "ns"});
  m.push_back({"net.ack_flush_p99_ns", q("net.ack_flush_ns", 0.99), "ns"});
  m.push_back({"smr.fence_wait_p99_ns", q("smr.fence_wait_ns", 0.99), "ns"});
  for (const char* path : {"lease", "index", "fallback", "refused"}) {
    const std::string name = std::string("smr.reads.") + path;
    m.push_back({name, d.count(name), "count"});
  }
  m.push_back({"smr.reads.behind_acked", w.behind_acked, "count"});
  m.push_back({"consensus.seal_to_decide_p50_ns", q("smr.seal_to_decide_ns", 0.5), "ns"});
  m.push_back({"consensus.seal_to_decide_p99_ns", q("smr.seal_to_decide_ns", 0.99), "ns"});
  m.push_back({"consensus.decide_to_apply_p50_ns", q("smr.decide_to_apply_ns", 0.5), "ns"});
  m.push_back({"consensus.decide_to_apply_p99_ns", q("smr.decide_to_apply_ns", 0.99), "ns"});
  m.push_back({"consensus.failover_tickets_per_kill",
               d.count("smr.failover_tickets") / faults, "count"});
  m.push_back({"mirror.frames_per_append", d.count("mirror.pushed_frames") / appends,
               "count"});
  m.push_back({"mirror.push_lag_p99_ns", q("mirror.push_lag_ns", 0.99), "ns"});
  m.push_back({"wal.fsync_p50_ns", q("wal.fsync_ns", 0.5), "ns"});
  m.push_back({"wal.fsync_p99_ns", q("wal.fsync_ns", 0.99), "ns"});
  m.push_back({"wal.flushes_per_append", d.count("wal.flushes") / appends, "count"});
  m.push_back({"svc.sweep_p50_ns", q("svc.sweep_ns", 0.5), "ns"});
  m.push_back({"svc.sweep_p99_ns", q("svc.sweep_ns", 0.99), "ns"});
  m.push_back({"svc.steps_per_s", d.count("svc.steps") / std::max(w.window_s, 1e-9),
               "1/s"});
  m.push_back({"svc.epoch_changes_per_crash", d.count("svc.epoch_changes") / faults,
               "count"});
  m.push_back({"proc.cpu_us_per_op.leader", w.leader_cpu_us / ops, "us"});
  m.push_back({"proc.cpu_us_per_op.follower", w.follower_cpu_us / ops, "us"});
  m.push_back({"proc.cpu_us_per_op.loadgen", w.loadgen_cpu_us / ops, "us"});
  m.push_back({"loadgen.late_p99_us", w.late_p99_us, "us"});
  m.push_back({"loadgen.refusals", w.refusals, "count"});
  m.push_back({"loadgen.samples", w.samples, "count"});
  m.push_back({"loadgen.send_ns", w.send_ns, "ns"});
  m.push_back({"mix.append_p50_us", w.append_p50_us, "us"});
  m.push_back({"mix.append_p99_us", w.append_p99_us, "us"});
  m.push_back({"mix.read_p50_us", w.read_p50_us, "us"});
  m.push_back({"mix.read_p99_us", w.read_p99_us, "us"});
  m.push_back({"failover.failover_ms", w.failover_ms, "ms"});
  m.push_back({"failover.rejoin_ms", w.rejoin_ms, "ms"});
  m.push_back({"fleet.reelect_ms", w.reelect_ms, "ms"});
  m.push_back({"fleet.cpu_us_per_group_s", w.fleet_cpu_us, "us"});
  m.push_back({"trace.overhead_pct", w.overhead_pct, "%"});
  m.push_back({"trace.spans", w.spans, "count"});
}

namespace {

constexpr int kReps = 5;
constexpr std::size_t kFrames = 4096;
constexpr std::uint32_t kBatch = 64;
constexpr svc::GroupId kReplayGid = 7;

/// Median over kReps of `fn()`'s wall time divided by `per`.
double time_per(std::size_t per, const std::function<void()>& fn) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    v.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(per));
  }
  return median(std::move(v));
}

/// The workload's own values for each frame kind: its appended commands,
/// the keys its reads name, the groups its LEADER queries name. A kind the
/// workload never sends borrows the other inputs so every row is timed.
struct Values {
  std::vector<std::uint64_t> commands, keys, gids;
};

Values values_of(const Shape& shape, const Inputs& in) {
  Values v;
  for (const Op& op : in.open) {
    if (op.kind == OpKind::kAppend) v.commands.push_back(op.command);
    if (op.kind == OpKind::kRead) v.keys.push_back(in.pool[op.rank]);
    if (op.kind == OpKind::kLeader) v.gids.push_back(op.rank);
  }
  std::vector<std::uint64_t> fill = in.pool;
  for (const std::uint64_t c : in.closed) fill.push_back(to_command(c));
  for (auto* dst : {&v.commands, &v.keys, &v.gids}) {
    for (std::size_t i = 0; dst->size() < kFrames && !fill.empty(); ++i) {
      dst->push_back(fill[i % fill.size()]);
    }
    dst->resize(kFrames);
  }
  if (shape.groups == 0) {
    for (auto& g : v.gids) g = kLogGid;
  }
  return v;
}

void codec(const Values& v, std::vector<Metric>& out) {
  struct Kind {
    const char* name;
    std::function<void(std::vector<std::uint8_t>&, std::size_t)> encode;
  };
  const Kind kinds[] = {
      {"append",
       [&](std::vector<std::uint8_t>& buf, std::size_t i) {
         net::encode_append_request(
             buf, i + 1, net::AppendReqBody{kLogGid, 1000000 + i, 1, v.commands[i], i + 1});
       }},
      {"read",
       [&](std::vector<std::uint8_t>& buf, std::size_t i) {
         net::encode_read_request(buf, i + 1, net::ReadReqBody{kLogGid, v.keys[i], 0});
       }},
      {"leader",
       [&](std::vector<std::uint8_t>& buf, std::size_t i) {
         net::encode_request(buf, net::MsgType::kLeader, i + 1, v.gids[i]);
       }},
  };
  for (const Kind& k : kinds) {
    std::vector<std::uint8_t> buf;
    buf.reserve(kFrames * 64);
    const double enc = time_per(kFrames, [&] {
      buf.clear();
      for (std::size_t i = 0; i < kFrames; ++i) k.encode(buf, i);
    });
    std::size_t decoded = 0;
    const double dec = time_per(kFrames, [&] {
      net::FrameDecoder d;
      d.feed(buf.data(), buf.size());
      const std::uint8_t* payload = nullptr;
      std::size_t len = 0;
      net::Frame f;
      while (d.next(payload, len)) {
        decoded += net::decode_payload(payload, len, f) == net::DecodeResult::kOk;
      }
    });
    if (decoded != kFrames * kReps) throw std::runtime_error("codec replay lost frames");
    out.push_back({std::string("net.encode_ns.") + k.name, enc, "ns"});
    out.push_back({std::string("net.decode_ns.") + k.name, dec, "ns"});
  }
}

void queue_cycle(const Values& v, std::vector<Metric>& out) {
  // submit -> pull_batch_owned -> commit_owned, one B=64 batch at a time.
  constexpr std::size_t kCycles = 64;
  std::uint64_t seq = 0;
  std::uint64_t fired = 0;
  std::vector<std::uint64_t> cmds, traces;
  std::vector<smr::CommandQueue::CommitRecord> recs;
  const double ns = time_per(kCycles * kBatch, [&] {
    smr::CommandQueue q(8192);
    std::uint64_t index = 0;
    for (std::size_t c = 0; c < kCycles; ++c) {
      ++seq;
      for (std::uint32_t j = 0; j < kBatch; ++j) {
        q.submit(j + 1, seq, v.commands[(c * kBatch + j) % v.commands.size()],
                 [&fired](smr::AppendOutcome, std::uint64_t) { ++fired; });
      }
      cmds.clear();
      traces.clear();
      recs.clear();
      std::uint64_t ticket = 0;
      const std::uint32_t n = q.pull_batch_owned(kBatch, cmds, ticket, &traces);
      q.commit_owned(ticket, index, recs);
      index += n;
    }
  });
  if (fired != kReps * kCycles * kBatch) throw std::runtime_error("queue replay lost completions");
  out.push_back({"smr.queue_cycle_ns", ns, "ns"});
}

/// One B=64 pump over AtomicMemory at n=3, stepped by the seeded
/// simulator: wall time per committed command, and exact register reads
/// and writes per committed command (the schedule is seeded, so the
/// counts repeat exactly for a seed).
void consensus_slot(const Values& v, std::uint64_t seed, std::vector<Metric>& out,
                    Layout& layout_out) {
  constexpr std::uint32_t kSlots = 16;
  constexpr std::uint32_t kWindow = 4;
  ReplicatedLog log(3, kSlots);
  BatchBuffer buffer("T", 1, kWindow, kBatch);
  ScenarioConfig cfg;
  cfg.n = 3;
  cfg.world = World::kAwb;
  cfg.seed = seed;
  cfg.extra_registers = [&](LayoutBuilder& b) {
    log.declare(b);
    buffer.declare(b);
  };
  auto driver = make_scenario(cfg, [](Layout l, std::uint32_t n) {
    return std::make_unique<AtomicMemory>(std::move(l), n);
  });
  MemoryBackend& mem = driver->memory();
  log.bind(mem.layout());
  buffer.bind(mem.layout());
  SimPumpHost host(*driver);
  LogPump pump(log, host, kWindow, LogPump::BatchPolicy{kBatch, &buffer, 0});

  class Source final : public BatchSource {
   public:
    explicit Source(const std::vector<std::uint64_t>& c) : c_(c) {}
    std::uint32_t pull(std::uint32_t max, std::vector<std::uint64_t>& out,
                       std::uint64_t& ticket, std::vector<std::uint64_t>& traces) override {
      ticket = ++ticket_;
      std::uint32_t n = 0;
      while (n < max && next_ < c_.size()) {
        out.push_back(c_[next_++]);
        traces.push_back(0);
        ++n;
      }
      return n;
    }

   private:
    const std::vector<std::uint64_t>& c_;
    std::size_t next_ = 0;
    std::uint64_t ticket_ = 0;
  };
  std::vector<std::uint64_t> cmds(v.commands.begin(),
                                  v.commands.begin() + kSlots * kBatch);
  Source src(cmds);

  const InstrumentationSnapshot s0 = mem.instr().snapshot();
  std::vector<LogPump::Commit> commits;
  const std::int64_t t0 = now_ns();
  for (;;) {
    const std::uint32_t started = pump.started();
    pump.tick(src, commits);
    if (pump.in_flight() == 0 && pump.started() == started) break;
    if (driver->now() > 50000000) break;
    driver->run_for(2000);
  }
  const double wall = static_cast<double>(now_ns() - t0);
  const InstrumentationSnapshot s1 = mem.instr().snapshot();
  if (commits.size() != cmds.size()) throw std::runtime_error("pump replay did not commit");
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    if (commits[i].value != cmds[i]) throw std::runtime_error("pump replay reordered");
  }
  const double n = static_cast<double>(commits.size());
  out.push_back({"consensus.slot_ns", wall / n, "ns"});
  out.push_back({"consensus.reg_reads_per_cmd",
                 static_cast<double>(s1.total_reads - s0.total_reads) / n, "count"});
  out.push_back({"consensus.reg_writes_per_cmd",
                 static_cast<double>(s1.total_writes - s0.total_writes) / n, "count"});
  layout_out = mem.layout();
}

void mirror_apply(const Layout& layout, std::uint64_t seed, std::vector<Metric>& out) {
  // Pushed cells as a follower applies them: remote owners' stores.
  MirroredMemory mem(layout, 3, /*local_mask=*/0b001);
  Rand r(seed);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> pushes(1 << 14);
  for (auto& [cell, value] : pushes) {
    cell = static_cast<std::uint32_t>(r.below(layout.size()));
    value = r.next() >> 16;
  }
  const double ns = time_per(pushes.size(), [&] {
    for (const auto& [cell, value] : pushes) mem.apply_push(Cell{cell}, value);
  });
  out.push_back({"mirror.apply_push_ns", ns, "ns"});
}

void wal_costs(const Values& v, const std::string& dir, const std::string& replay_dir,
               std::vector<Metric>& out) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr std::size_t kRecords = 20000;
  constexpr int kSyncSamples = 100;
  double append_ns = 0;
  std::vector<double> sync;
  wal::WalStats stats;
  {
    wal::WalOptions opts;
    opts.dir = dir;
    wal::Wal w(opts);
    w.replay();
    w.start();
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kRecords; ++i) {
      w.append_cell(kReplayGid, static_cast<std::uint32_t>(i % 4096),
                    v.commands[i % v.commands.size()]);
    }
    append_ns = static_cast<double>(now_ns() - t0) / kRecords;
    w.flush();
    for (int i = 0; i < kSyncSamples; ++i) {
      const std::int64_t t = now_ns();
      const std::uint64_t seq = w.append_cell(kReplayGid, 1, v.commands[i]);
      while (w.durable_seq() < seq) std::this_thread::yield();
      sync.push_back(static_cast<double>(now_ns() - t));
    }
    stats = w.stats();
    w.stop();
  }
  out.push_back({"wal.append_ns", append_ns, "ns"});
  out.push_back({"wal.sync_ns", median(sync), "ns"});
  out.push_back({"wal.records_per_fsync",
                 static_cast<double>(stats.appended_records) /
                     static_cast<double>(std::max<std::uint64_t>(stats.flushes, 1)),
                 "count"});
  wal::WalOptions opts;
  opts.dir = replay_dir.empty() ? dir : replay_dir;
  wal::Wal probe(opts);
  const std::int64_t t0 = now_ns();
  const wal::ReplayResult r = probe.replay();
  out.push_back({"wal.replay_ms", static_cast<double>(now_ns() - t0) / 1e6, "ms"});
  if (r.corrupt) throw std::runtime_error("journal replay found corruption");
}

void read_point(const Values& v, std::vector<Metric>& out) {
  // A single-process log (leases off: the committed fallback path).
  svc::SvcConfig cfg;
  cfg.workers = 1;
  cfg.tick_us = 1000;
  cfg.pace_us = 200;
  cfg.max_pace_us = 2000;
  svc::MultiGroupLeaderService service(cfg);
  smr::SmrService smr(service);
  smr::SmrSpec spec;
  spec.n = 3;
  spec.capacity = 256;
  spec.max_batch = kBatch;
  smr.add_log(kReplayGid, spec);
  service.start();
  if (service.await_leader(kReplayGid, 10000000) == kNoProcess) {
    throw std::runtime_error("in-process log elected no leader");
  }
  std::atomic<std::uint64_t> done{0};
  const std::size_t n = std::min<std::size_t>(v.keys.size(), 1024);
  for (std::size_t i = 0; i < n; ++i) {
    smr.append(kReplayGid, 1, i + 1, v.keys[i],
               [&done](smr::AppendOutcome, std::uint64_t) { done.fetch_add(1); });
  }
  const std::int64_t deadline = now_ns() + 10000000000LL;
  while (done.load() < n && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (done.load() < n) throw std::runtime_error("in-process appends did not commit");
  std::uint64_t found = 0;
  const double ns = time_per(v.keys.size(), [&] {
    for (const std::uint64_t key : v.keys) {
      svc::LeaderView view;
      smr::LogGroup::ReadAnswer answer;
      smr::LogGroup::ReadMode mode{};
      smr.read_point(kReplayGid, key, 0, view, answer, mode, nullptr);
      found += answer.index > 0;
    }
  });
  service.stop();
  if (found == 0) throw std::runtime_error("read_point replay found no key");
  out.push_back({"smr.read_point_ns", ns, "ns"});
}

/// An in-process fleet of 1000 groups over memories this benchmark
/// supplies, so the Omega registers can be counted: who writes after
/// convergence (Thm 3/7: one process per group) and how often.
void fleet(const Values& v, std::vector<Metric>& out) {
  constexpr std::uint32_t groups = 1000;
  svc::SvcConfig cfg;
  cfg.workers = 2;
  cfg.tick_us = 1000000;
  cfg.wheel_slot_us = 4096;
  cfg.wheel_slots = 512;
  cfg.ops_per_sweep = 2;
  cfg.pace_us = 20000;
  cfg.worker_nice = 19;
  std::mutex mu;
  std::vector<MemoryBackend*> memories;
  svc::GroupSpec spec;
  spec.n = 3;
  spec.memory_factory = [&](Layout layout, std::uint32_t n) {
    auto m = std::make_unique<AtomicMemory>(std::move(layout), n);
    std::lock_guard<std::mutex> lk(mu);
    memories.push_back(m.get());
    return std::unique_ptr<MemoryBackend>(std::move(m));
  };
  svc::MultiGroupLeaderService service(cfg);
  for (svc::GroupId g = 0; g < groups; ++g) service.add_group(g, spec);
  service.start();
  for (svc::GroupId g = 0; g < groups; ++g) {
    if (service.await_leader(g, 10000000) == kNoProcess) {
      service.stop();
      throw std::runtime_error("in-process fleet did not converge");
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto snap = [&] {
    std::vector<std::vector<std::uint64_t>> w;
    std::lock_guard<std::mutex> lk(mu);
    for (MemoryBackend* m : memories) w.push_back(m->instr().snapshot().writes_by);
    return w;
  };
  const auto w0 = snap();
  const std::int64_t t0 = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const auto w1 = snap();
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  double writers = 0, writes = 0;
  for (std::size_t g = 0; g < w1.size(); ++g) {
    for (std::size_t p = 0; p < w1[g].size(); ++p) {
      const double d = static_cast<double>(w1[g][p] - w0[g][p]);
      writers += d > 0;
      writes += d;
    }
  }
  std::uint64_t hits = 0;
  const double ns = time_per(v.gids.size(), [&] {
    for (const std::uint64_t gid : v.gids) {
      svc::LeaderView view;
      hits += service.try_leader(gid % groups, view);
    }
  });
  service.stop();
  if (hits == 0) throw std::runtime_error("try_leader replay found no group");
  out.push_back({"svc.try_leader_ns", ns, "ns"});
  out.push_back({"core.reg_writes_per_group_s", writes / w1.size() / secs, "1/s"});
  out.push_back({"core.writers_after_convergence", writers / w1.size(), "count"});
}

}  // namespace

void measure_layers(const Shape& shape, const Inputs& in, std::uint64_t seed,
                    const std::string& workdir, const std::string& replay_dir,
                    std::vector<Metric>& out) {
  release_generator();
  const Values v = values_of(shape, in);
  codec(v, out);
  queue_cycle(v, out);
  Layout layout;
  consensus_slot(v, seed, out, layout);
  mirror_apply(layout, seed, out);
  wal_costs(v, workdir + "/wal-replay", replay_dir, out);
  read_point(v, out);
  fleet(v, out);
}

}  // namespace perfbench
