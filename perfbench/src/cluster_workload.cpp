// write_durable, read_mostly and failover: the 3-node cluster workloads.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "fixture.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace omega;

namespace {

constexpr std::int64_t kMs = 1000000;
/// A request still unanswered this long after it was due has failed.
constexpr std::int64_t kGiveUpNs = 10000 * kMs;
/// A request unanswered this long after its latest send is sent again.
constexpr std::int64_t kResendNs = 1000 * kMs;
/// Set-ups per cluster of a steady workload (failover: one); the reported
/// set-up time is the median over the run.
constexpr int kSetups = 3;
/// Appends before the window (the read key pool plus filler): warms the
/// log, the sessions and the WAL before anything is timed.
constexpr std::size_t kWarmupAppends = 1024;
/// Requests each pipelined connection keeps outstanding (warm-up, reads).
constexpr std::uint32_t kClosedDepth = 64;
/// Appends each closed-loop write connection keeps in flight: enough that
/// the leader's core, not the round trip through consensus, mirror and
/// fsync, sets the rate. With one B=64 batch in flight the rate followed
/// the host's wake-up and fsync latency and moved by a third between runs.
constexpr std::uint32_t kClosedWriteDepth = 1024;
constexpr std::uint64_t kOpenClientBase = 1000000;
/// Closed loops are measured in slices this long (see ClusterRun::slices_).
constexpr std::int64_t kSliceNs = 100 * kMs;

struct Lane {
  net::Client client;
  bool up = false;
  std::unordered_map<std::uint64_t, std::size_t> appends;  ///< req_id -> op
  std::unordered_map<std::uint64_t, std::size_t> reads;
};

struct Pending {
  std::int64_t due = 0;
  std::int64_t first_sent = 0;
  std::int64_t sent = 0;  ///< latest attempt
  std::uint32_t node = 0;
  std::uint64_t key = 0;
  std::uint64_t min_index = 0;
  std::uint32_t attempts = 0;
  bool started = false;
  bool finished = false;
  bool traced = false;
};

struct ReadRec {
  std::uint32_t node = 0;  ///< the node that answered
  std::int64_t sent = 0;
  std::int64_t recv = 0;
  std::uint64_t key = 0;
  std::uint64_t index = 0;
  std::uint64_t commit = 0;
  std::uint64_t min_index = 0;
};

struct AckRec {
  std::int64_t at = 0;
  std::uint64_t index = 0;  ///< 0-based log position
  std::uint64_t command = 0;
};

/// One slice of a closed loop: ops acked in it and node CPU spent on it.
struct Slice {
  double ops = 0;
  double cpu_us = 0;
  double s = 0;
};

struct Samples {
  std::vector<std::int64_t> ns;
  std::vector<bool> traced;
  void add(std::int64_t v, bool t) {
    ns.push_back(v);
    traced.push_back(t);
  }
};

class ClusterRun {
 public:
  explicit ClusterRun(const RunConfig& cfg)
      : cfg_(cfg),
        open_s_(cfg.seconds * cfg.shape.open_share),
        in_(make_inputs(cfg.shape, cfg.seed, open_s_, open_s_)),
        tracer_(cfg.trace) {}

  RunResult run();

 private:
  bool failover() const { return cfg_.shape.kills > 0; }
  void violation(std::string what) { result_.violations.push_back(std::move(what)); }

  /// One cluster lifetime: boot, warm up, a slice of the window, checks.
  bool cycle(std::uint32_t c, std::uint32_t cycles);
  bool boot(int setups);
  bool warmup();
  void open_phase(std::size_t begin, std::size_t end, std::int64_t shift_ns,
                  std::int64_t len_ns);
  void closed_writes(std::int64_t end_ns);
  void closed_reads(std::int64_t end_ns);
  void check();

  // open-loop machinery
  void issue(std::size_t i, std::int64_t now);
  void defer(std::size_t i, std::int64_t at) { retry_.push_back({at, i}); }
  void finish(std::size_t i, std::int64_t now, bool ok);
  void drain(std::uint32_t node, std::int64_t now);
  void lane_down(std::uint32_t node, std::int64_t now);
  void on_append(std::uint32_t node, std::uint64_t req,
                 const net::Client::AppendResult& r, std::int64_t now);
  void on_read(std::uint32_t node, std::uint64_t req,
               const net::Client::ReadResult& r, std::int64_t now);
  void drive_faults(std::int64_t now);
  double nodes_cpu_us() const;
  void slice_start(std::int64_t now);
  /// Closes the current slice once it is kSliceNs old (not past `end_ns`).
  void slice_tick(std::int64_t now, std::int64_t end_ns);
  std::uint32_t next_live(std::uint32_t node) const;
  void sample_rss(std::int64_t now);

  const RunConfig cfg_;
  const double open_s_;
  const Inputs in_;
  Tracer tracer_;
  RunResult result_;

  std::unique_ptr<Cluster> cluster_;
  std::array<Lane, kNodes> lanes_;
  std::uint32_t leader_node_ = 0;
  std::vector<double> setup_s_;
  std::uint32_t boots_ = 0;

  std::vector<std::uint64_t> pool_floor_;  ///< per pool key: ack index + 1
  std::vector<AckRec> acks_;
  std::vector<ReadRec> reads_;
  AckRec last_ack_;

  std::vector<Pending> pend_;
  std::vector<std::pair<std::int64_t, std::size_t>> retry_;
  std::size_t outstanding_ = 0;
  std::int64_t t0_ = 0;
  std::int64_t last_rss_ = 0;

  Samples append_lat_, read_lat_;
  std::vector<std::int64_t> late_;
  std::uint64_t open_done_ = 0;
  std::uint64_t open_failed_ = 0;
  std::uint64_t refusals_ = 0;
  std::uint64_t behind_acked_ = 0;  ///< reads older than an earlier ack
  std::uint64_t closed_done_ = 0;
  std::uint64_t closed_failed_ = 0;
  std::uint64_t closed_sent_ = 0;
  double closed_s_ = 0;
  std::vector<Slice> slices_;  ///< closed-loop slices of every cluster
  std::vector<double> cycle_cpu_per_op_;  ///< node CPU-µs per op, per cluster
  std::int64_t slice_t0_ = 0;
  double slice_cpu0_ = 0;
  double slice_ops_ = 0;
  double open_elapsed_s_ = 0;

  // failover state
  enum class Fault { kIdle, kKilled, kRejoining } fault_ = Fault::kIdle;
  std::size_t next_fault_ = 0;
  std::size_t fault_limit_ = 0;  ///< faults this cycle may reach
  std::uint32_t victim_ = 0;
  std::int64_t kill_ns_ = 0, respawn_ns_ = 0, last_probe_ = 0;
  std::uint64_t rejoin_target_ = 0;
  std::vector<double> failover_ms_, rejoin_ms_;

  // window-edge observations
  std::array<std::vector<obs::MetricSample>, kNodes> base_;
  ScrapeDelta delta_;
  double leader_cpu_ = 0, follower_cpu_ = 0, self_cpu_ = 0;
  double peak_rss_ = 0;
  double window_appends_ = 0;
  std::string replay_dir_;
};

std::uint32_t ClusterRun::next_live(std::uint32_t node) const {
  for (std::uint32_t k = 1; k <= kNodes; ++k) {
    const std::uint32_t n = (node + k) % kNodes;
    if (cluster_->alive(n)) return n;
  }
  return node;
}

double ClusterRun::nodes_cpu_us() const {
  double us = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    us += cluster_->procs().cpu_us(static_cast<int>(n));
  }
  return us;
}

void ClusterRun::slice_start(std::int64_t now) {
  slice_t0_ = now;
  slice_cpu0_ = nodes_cpu_us();
  slice_ops_ = 0;
}

void ClusterRun::slice_tick(std::int64_t now, std::int64_t end_ns) {
  if (now - slice_t0_ < kSliceNs || now > end_ns) return;
  const double cpu = nodes_cpu_us();
  slices_.push_back({slice_ops_, cpu - slice_cpu0_,
                     static_cast<double>(now - slice_t0_) / 1e9});
  slice_t0_ = now;
  slice_cpu0_ = cpu;
  slice_ops_ = 0;
}

void ClusterRun::sample_rss(std::int64_t now) {
  if (now - last_rss_ < 100 * kMs) return;
  last_rss_ = now;
  cluster_->procs().sample_rss();
}

bool ClusterRun::boot(int setups) {
  for (int rep = 0; rep < setups; ++rep) {
    cluster_.reset();
    // A fresh WAL directory per cluster: deleting a just-written WAL is
    // slow on a discard-mounted disk and stalls the next cluster's fsyncs,
    // so every WAL is left until the run is over.
    cluster_ = std::make_unique<Cluster>(cfg_.workdir + "/wal/" + std::to_string(boots_++),
                                         /*steady=*/!failover());
    const std::int64_t t0 = now_ns();
    for (std::uint32_t n = 0; n < kNodes; ++n) cluster_->spawn(n);
    const ProcessId leader = cluster_->await_leader(t0 + 60000 * kMs);
    if (leader == kNoProcess) {
      violation("no leader elected within 60 s of the fork");
      return false;
    }
    leader_node_ = cluster_->node_of(leader);
    // The first append is retried until it is acked: right after the fork
    // the nodes may still disagree on the leader for a moment. The dedup
    // key makes the retries one append.
    const std::uint64_t cmd = to_command(cfg_.seed + rep);
    const std::int64_t deadline = t0 + 60000 * kMs;
    net::Client::AppendResult r;
    for (;;) {
      try {
        net::Client c;
        if (connect_retry(c, cluster_->port(leader_node_), deadline)) {
          r = c.append_retry(kLogGid, /*client=*/1, /*seq=*/1, cmd, 5000);
          if (r.ok()) break;
        }
      } catch (const net::NetError&) {
      }
      if (now_ns() > deadline) {
        violation("first append not acked within 60 s of the fork");
        return false;
      }
      const ProcessId now_leader = cluster_->await_leader(deadline);
      if (now_leader != kNoProcess) leader_node_ = cluster_->node_of(now_leader);
    }
    setup_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (rep == setups - 1) {
      acks_.push_back({now_ns(), r.index, cmd});
      leader_node_ = cluster_->node_of(r.view.leader == kNoProcess
                                           ? leader
                                           : r.view.leader);
    }
  }
  cluster_->procs().sample_rss();
  const std::int64_t deadline = now_ns() + 30000 * kMs;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (!connect_retry(lanes_[n].client, cluster_->port(n), deadline)) {
      violation("node unreachable after set-up");
      return false;
    }
    lanes_[n].up = true;
  }
  return true;
}

bool ClusterRun::warmup() {
  // The pool first (its acked indexes are the reads' staleness floors),
  // then filler; pipelined on the leader's lane.
  std::vector<std::uint64_t> cmds = in_.pool;
  for (std::uint64_t i = 0; cmds.size() < kWarmupAppends; ++i) {
    cmds.push_back(to_command(cfg_.seed * 7919 + i));
  }
  pool_floor_.assign(in_.pool.size(), 0);
  std::unordered_map<std::uint64_t, std::size_t> req_of;
  Lane& lane = lanes_[leader_node_];
  std::size_t next = 0, done = 0;
  const std::int64_t deadline = now_ns() + 30000 * kMs;
  try {
    while (done < cmds.size()) {
      while (next < cmds.size() && next - done < kClosedDepth) {
        req_of[lane.client.append_async(kLogGid, 2, next + 1, cmds[next])] = next;
        ++next;
      }
      const auto a = lane.client.next_append_result(100);
      if (now_ns() > deadline) break;
      if (!a) continue;
      const std::size_t i = req_of.at(a->req_id);
      ++done;
      if (!a->result.ok()) {
        violation("warm-up append refused");
        return false;
      }
      acks_.push_back({now_ns(), a->result.index, cmds[i]});
      if (i < pool_floor_.size()) pool_floor_[i] = a->result.index + 1;
      last_ack_ = acks_.back();
    }
  } catch (const net::NetError& e) {
    violation(std::string("warm-up failed: ") + e.what());
    return false;
  }
  if (done < cmds.size()) violation("warm-up appends timed out");
  return done == cmds.size();
}

void ClusterRun::issue(std::size_t i, std::int64_t now) {
  const Op& op = in_.open[i];
  Pending& p = pend_[i];
  std::uint32_t node = 0;
  if (op.kind == OpKind::kAppend) {
    node = leader_node_;
  } else if (p.attempts == 0) {
    node = op.node;
    if (op.ryw) {
      // Read-your-writes: the newest acked append, at a follower, fenced.
      p.key = last_ack_.command;
      p.min_index = last_ack_.index + 1;
      if (node == leader_node_) node = (node + 1) % kNodes;
    } else {
      p.key = in_.pool[op.rank];
    }
  } else {
    node = next_live(p.node);
  }
  if (!lanes_[node].up) {
    if (op.kind == OpKind::kAppend) leader_node_ = next_live(node);
    p.node = node;
    defer(i, now + 2 * kMs);
    return;
  }
  Lane& lane = lanes_[node];
  try {
    if (op.kind == OpKind::kAppend) {
      const std::uint64_t req = tracer_.span(SpanOp::kAppendSend, p.traced, [&] {
        return lane.client.append_async(kLogGid, kOpenClientBase + i, 1,
                                        op.command);
      });
      lane.appends[req] = i;
    } else {
      const std::uint64_t req = tracer_.span(SpanOp::kReadSend, p.traced, [&] {
        return lane.client.read_async(kLogGid, p.key, p.min_index);
      });
      lane.reads[req] = i;
    }
  } catch (const net::NetError&) {
    lane_down(node, now);
    defer(i, now + 2 * kMs);
    return;
  }
  if (p.attempts == 0) {
    late_.push_back(now - p.due);
    p.first_sent = now;
  }
  p.sent = now;
  p.node = node;
  ++p.attempts;
}

void ClusterRun::finish(std::size_t i, std::int64_t now, bool ok) {
  Pending& p = pend_[i];
  p.finished = true;
  --outstanding_;
  if (!ok) {
    if (open_failed_++ < 3) {
      std::fprintf(stderr, "  failed: %s due %.3f s ago, %u attempts, last at node %u\n",
                   in_.open[i].kind == OpKind::kAppend ? "append" : "read",
                   static_cast<double>(now - p.due) / 1e9, p.attempts, p.node);
    }
    return;
  }
  ++open_done_;
  (in_.open[i].kind == OpKind::kAppend ? append_lat_ : read_lat_)
      .add(now - p.due, p.traced);
}

void ClusterRun::lane_down(std::uint32_t node, std::int64_t now) {
  Lane& lane = lanes_[node];
  lane.up = false;
  lane.client.close();
  for (const auto& [req, i] : lane.appends) defer(i, now);
  for (const auto& [req, i] : lane.reads) defer(i, now);
  lane.appends.clear();
  lane.reads.clear();
}

void ClusterRun::on_append(std::uint32_t node, std::uint64_t req,
                           const net::Client::AppendResult& r,
                           std::int64_t now) {
  Lane& lane = lanes_[node];
  const auto it = lane.appends.find(req);
  if (it == lane.appends.end()) return;
  const std::size_t i = it->second;
  lane.appends.erase(it);
  if (pend_[i].finished) return;
  if (r.ok()) {
    acks_.push_back({now, r.index, in_.open[i].command});
    if (r.index >= last_ack_.index) last_ack_ = acks_.back();
    leader_node_ = node;
    finish(i, now, true);
    if (fault_ == Fault::kKilled && node != victim_) {
      failover_ms_.push_back(static_cast<double>(now - kill_ns_) / 1e6);
      rejoin_target_ = r.index + 1;
      cluster_->spawn(victim_);
      respawn_ns_ = now_ns();
      fault_ = Fault::kRejoining;
    }
    return;
  }
  if (r.status == net::Status::kNotLeader ||
      r.status == net::Status::kOverloaded) {
    ++refusals_;
    const ProcessId hint = r.view.leader;
    const bool usable = hint != kNoProcess && hint < kNodes &&
                        cluster_->alive(cluster_->node_of(hint)) &&
                        cluster_->node_of(hint) != node;
    leader_node_ = usable ? cluster_->node_of(hint) : next_live(node);
    defer(i, now + (usable ? 0 : 5 * kMs));
    return;
  }
  finish(i, now, false);
}

void ClusterRun::on_read(std::uint32_t node, std::uint64_t req,
                         const net::Client::ReadResult& r, std::int64_t now) {
  Lane& lane = lanes_[node];
  const auto it = lane.reads.find(req);
  if (it == lane.reads.end()) return;
  const std::size_t i = it->second;
  lane.reads.erase(it);
  Pending& p = pend_[i];
  if (p.finished) return;
  if (r.ok()) {
    // Any copy may be the one answered: the read counts as sent at its
    // first send, which only weakens the monotonicity check.
    reads_.push_back({node, p.first_sent, now, p.key, r.index, r.commit_index, p.min_index});
    finish(i, now, true);
    return;
  }
  if (r.status == net::Status::kNotLeader ||
      r.status == net::Status::kOverloaded) {
    ++refusals_;
    defer(i, now + kMs);
    return;
  }
  finish(i, now, false);
}

void ClusterRun::drain(std::uint32_t node, std::int64_t now) {
  Lane& lane = lanes_[node];
  if (!lane.up) return;
  try {
    const bool traced = tracer_.on(now);
    tracer_.span(SpanOp::kHarvest, traced, [&] {
      while (auto a = lane.client.next_append_result(0)) {
        on_append(node, a->req_id, a->result, now);
      }
      while (auto r = lane.client.next_read_result(0)) {
        on_read(node, r->req_id, r->result, now);
      }
    });
  } catch (const net::NetError&) {
    lane_down(node, now);
  }
}

void ClusterRun::drive_faults(std::int64_t now) {
  if (fault_ == Fault::kIdle && next_fault_ < fault_limit_ &&
      now >= t0_ + in_.faults[next_fault_]) {
    victim_ = leader_node_;
    if (!lanes_[victim_].up) return;  // no settled leader to kill yet
    ++next_fault_;
    // Keep the victim's last readings: METRICS, answers already sent.
    delta_.add(base_[victim_], scrape(lanes_[victim_].client));
    base_[victim_].clear();
    drain(victim_, now);
    kill_ns_ = now_ns();
    cluster_->kill(victim_);
    lane_down(victim_, kill_ns_);
    leader_node_ = next_live(victim_);
    fault_ = Fault::kKilled;
    return;
  }
  if (fault_ != Fault::kRejoining || now - last_probe_ < 10 * kMs) return;
  last_probe_ = now;
  Lane& lane = lanes_[victim_];
  try {
    if (!lane.client.connected()) {
      lane.client.connect("127.0.0.1", cluster_->port(victim_), 50);
    }
    const auto v = lane.client.read_log(kLogGid, 0, 1);
    if (v.status == net::Status::kOk && v.commit_index >= rejoin_target_) {
      rejoin_ms_.push_back(static_cast<double>(now_ns() - respawn_ns_) / 1e6);
      lane.up = true;
      fault_ = Fault::kIdle;
    }
  } catch (const net::NetError&) {
    lane.client.close();
  }
}

void ClusterRun::open_phase(std::size_t begin, std::size_t end,
                            std::int64_t shift_ns, std::int64_t len_ns) {
  const std::vector<Op>& ops = in_.open;
  const std::int64_t start = now_ns() + kMs;
  t0_ = start - shift_ns;  // op i is due at t0_ + ops[i].due_ns
  tracer_.start(start);
  const std::int64_t open_end = start + len_ns;
  std::size_t next = begin;
  std::int64_t last_expire = start;
  std::vector<pollfd> pfds;
  std::vector<std::uint32_t> pnode;
  for (;;) {
    std::int64_t now = now_ns();
    if (failover()) drive_faults(now);
    while (next < end && t0_ + ops[next].due_ns <= now) {
      Pending& p = pend_[next];
      p.due = t0_ + ops[next].due_ns;
      p.started = true;
      p.traced = tracer_.on(p.due);
      ++outstanding_;
      issue(next, now);
      ++next;
    }
    if (!retry_.empty()) {
      auto ready = std::move(retry_);
      retry_.clear();
      for (const auto& [at, i] : ready) {
        if (pend_[i].finished) continue;
        if (at <= now) {
          issue(i, now);
        } else {
          retry_.push_back({at, i});
        }
      }
    }
    if (now - last_expire > 100 * kMs) {
      last_expire = now;
      for (std::size_t i = begin; i < next; ++i) {
        Pending& p = pend_[i];
        if (p.finished) continue;
        if (now - p.due > kGiveUpNs) {
          finish(i, now, false);
        } else if (p.attempts > 0 && now - p.sent > kResendNs) {
          // Unanswered for a while (a takeover can strand an append on a
          // node that will never ack it): resend, as an SMR client does.
          // Whichever copy is answered first completes the request.
          issue(i, now);
        }
      }
    }
    sample_rss(now);
    const bool faults_done =
        !failover() || (fault_ == Fault::kIdle &&
                         (next_fault_ >= fault_limit_ || now > open_end));
    if (next == end && outstanding_ == 0 && faults_done) break;
    if (now > open_end + kGiveUpNs) break;

    std::int64_t wake = now + 2 * kMs;
    if (next < end) wake = std::min(wake, t0_ + ops[next].due_ns);
    for (const auto& r : retry_) wake = std::min(wake, r.first);
    pfds.clear();
    pnode.clear();
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      if (!lanes_[n].up) continue;
      pfds.push_back(pollfd{lanes_[n].client.native_handle(), POLLIN, 0});
      pnode.push_back(n);
    }
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1000000000), static_cast<long>(wait % 1000000000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    now = now_ns();
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents != 0) drain(pnode[k], now);
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (!pend_[i].finished) {
      if (!pend_[i].started) ++outstanding_;
      finish(i, now_ns(), false);
    }
  }
  open_elapsed_s_ += static_cast<double>(now_ns() - start) / 1e9;
}

void ClusterRun::closed_writes(std::int64_t end_ns) {
  // Two pipelined connections to the leader: its lane and a second one.
  net::Client spare;
  if (!connect_retry(spare, cluster_->port(leader_node_), now_ns() + 5000 * kMs)) {
    violation("closed loop: leader unreachable");
    return;
  }
  std::array<net::Client*, 2> conns{&lanes_[leader_node_].client, &spare};
  std::array<std::uint64_t, 2> seq{0, 0};
  std::array<std::unordered_map<std::uint64_t, std::uint64_t>, 2> cmd_of;
  std::size_t next = 0;
  const std::int64_t t0 = now_ns();
  slice_start(t0);
  const auto top_up = [&](std::size_t k) {
    while (conns[k]->outstanding_appends() < kClosedWriteDepth && now_ns() < end_ns) {
      const std::uint64_t cmd = in_.closed[next++ % in_.closed.size()];
      cmd_of[k][conns[k]->append_async(kLogGid, 500 + k, ++seq[k], cmd)] = cmd;
      ++closed_sent_;
    }
  };
  try {
    for (std::size_t k = 0; k < 2; ++k) top_up(k);
    std::int64_t stop = end_ns;
    for (;;) {
      const std::int64_t now = now_ns();
      if (now >= stop && conns[0]->outstanding_appends() +
                                 conns[1]->outstanding_appends() == 0) {
        break;
      }
      if (now > end_ns + kGiveUpNs) break;
      slice_tick(now, end_ns);
      pollfd pfds[2] = {{conns[0]->native_handle(), POLLIN, 0},
                        {conns[1]->native_handle(), POLLIN, 0}};
      if (::poll(pfds, 2, 10) <= 0) continue;
      const std::int64_t at = now_ns();
      for (std::size_t k = 0; k < 2; ++k) {
        if (pfds[k].revents == 0) continue;
        while (auto a = conns[k]->next_append_result(0)) {
          // Late copies of resent open-loop requests are not ours.
          const auto it = cmd_of[k].find(a->req_id);
          if (it == cmd_of[k].end()) continue;
          const std::uint64_t cmd = it->second;
          cmd_of[k].erase(it);
          if (!a->result.ok()) {
            if (closed_failed_++ < 3) {
              std::fprintf(stderr, "closed append status %u\n",
                           static_cast<unsigned>(a->result.status));
            }
            continue;
          }
          acks_.push_back({at, a->result.index, cmd});
          if (at <= end_ns) {
            ++closed_done_;
            ++slice_ops_;
          }
        }
        top_up(k);
      }
    }
  } catch (const net::NetError& e) {
    violation(std::string("closed loop: ") + e.what());
  }
  closed_failed_ += cmd_of[0].size() + cmd_of[1].size();
  closed_s_ += static_cast<double>(end_ns - t0) / 1e9;
}

void ClusterRun::closed_reads(std::int64_t end_ns) {
  // One pipelined connection per node. Per connection and key, a read
  // never returns less than a read that completed before it was sent.
  struct Sent {
    std::size_t rank = 0;
    std::uint64_t floor = 0;
  };
  std::array<std::unordered_map<std::uint64_t, Sent>, kNodes> rank_of;
  std::array<std::vector<std::uint64_t>, kNodes> seen;
  std::size_t next = 0;
  const std::int64_t t0 = now_ns();
  slice_start(t0);
  const auto top_up = [&](std::uint32_t n) {
    net::Client& c = lanes_[n].client;
    while (c.outstanding_reads() < kClosedDepth && now_ns() < end_ns) {
      const std::size_t rank = in_.closed[next++ % in_.closed.size()];
      rank_of[n][c.read_async(kLogGid, in_.pool[rank], 0)] = Sent{rank, seen[n][rank]};
      ++closed_sent_;
    }
  };
  try {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      seen[n].assign(in_.pool.size(), 0);
      top_up(n);
    }
    for (;;) {
      const std::int64_t now = now_ns();
      std::size_t outstanding = 0;
      for (auto& l : lanes_) outstanding += l.client.outstanding_reads();
      if (now >= end_ns && outstanding == 0) break;
      if (now > end_ns + kGiveUpNs) break;
      slice_tick(now, end_ns);
      pollfd pfds[kNodes];
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        pfds[n] = {lanes_[n].client.native_handle(), POLLIN, 0};
      }
      if (::poll(pfds, kNodes, 10) <= 0) continue;
      const std::int64_t at = now_ns();
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        if (pfds[n].revents == 0) continue;
        while (auto r = lanes_[n].client.next_read_result(0)) {
          const auto it = rank_of[n].find(r->req_id);
          if (it == rank_of[n].end()) continue;  // a resent open-loop read
          const Sent sent = it->second;
          rank_of[n].erase(it);
          if (!r->result.ok()) {
            ++closed_failed_;
            continue;
          }
          const std::size_t rank = sent.rank;
          const std::uint64_t idx = r->result.index;
          if (idx < sent.floor || idx > r->result.commit_index) {
            violation("closed-loop read went backwards: key " +
                      std::to_string(in_.pool[rank]) + " index " +
                      std::to_string(idx) + " after " + std::to_string(sent.floor));
          }
          if (idx < pool_floor_[rank]) ++behind_acked_;
          seen[n][rank] = std::max(seen[n][rank], idx);
          if (at <= end_ns) {
            ++closed_done_;
            ++slice_ops_;
          }
        }
        top_up(n);
      }
    }
  } catch (const net::NetError& e) {
    violation(std::string("closed loop: ") + e.what());
  }
  for (const auto& m : rank_of) closed_failed_ += m.size();
  closed_s_ += static_cast<double>(end_ns - t0) / 1e9;
}

void ClusterRun::check() {
  std::uint64_t want = 0;
  for (const AckRec& a : acks_) want = std::max(want, a.index + 1);
  // Wait until every live node has applied the same, complete prefix.
  std::vector<std::vector<std::uint64_t>> logs;
  const std::int64_t deadline = now_ns() + 20000 * kMs;
  for (;;) {
    logs.clear();
    bool settled = true;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      if (!cluster_->alive(n)) continue;
      net::Client c;
      try {
        if (!connect_retry(c, cluster_->port(n), deadline)) {
          settled = false;
          break;
        }
        auto v = c.read_log_all(kLogGid);
        if (v.status != net::Status::kOk) settled = false;
        logs.push_back(std::move(v.entries));
      } catch (const net::NetError&) {
        settled = false;
      }
    }
    for (const auto& l : logs) {
      settled = settled && l.size() == logs[0].size() && l.size() >= want;
    }
    if (settled || now_ns() > deadline) break;
    ::usleep(50000);
  }
  if (logs.empty()) {
    violation("no live node answered READ_LOG");
    return;
  }
  const std::vector<std::uint64_t>& log = logs[0];
  for (std::size_t k = 1; k < logs.size(); ++k) {
    const std::size_t common = std::min(log.size(), logs[k].size());
    const auto diff = std::mismatch(log.begin(), log.begin() + common, logs[k].begin());
    if (diff.first != log.begin() + common) {
      violation("live nodes' logs differ at index " +
                std::to_string(diff.first - log.begin()));
    } else if (logs[k].size() != log.size()) {
      violation("a live node's log stopped at " +
                std::to_string(std::min(log.size(), logs[k].size())) + " of " +
                std::to_string(std::max(log.size(), logs[k].size())) + " entries");
    }
  }
  if (log.size() < want) violation("a live node is missing acked entries");
  for (const AckRec& a : acks_) {
    if (a.index >= log.size() || log[a.index] != a.command) {
      violation("acked append " + std::to_string(a.command) +
                " is not at its acked index " + std::to_string(a.index));
      break;
    }
  }
  // Reads: each answer names a position holding its key, at or past its
  // fence and within the answering replica's applied length; per node, it
  // is never older than a read of that key the node answered before it
  // was sent. Being older than an append acked before it was sent is not
  // a violation (a follower serves up to the leader's fence as its mirror
  // last saw it, and min_index is how a session asks for more); those
  // reads are counted.
  struct Ev {
    std::int64_t t;
    int kind;  // 0 a completion (ack or read), 1 a read sent
    std::size_t i;
  };
  std::vector<Ev> evs;
  for (std::size_t i = 0; i < acks_.size(); ++i) evs.push_back({acks_[i].at, 0, i});
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    const ReadRec& r = reads_[i];
    evs.push_back({r.recv, 0, acks_.size() + i});
    evs.push_back({r.sent, 1, i});
    if (r.index < r.min_index || r.index > r.commit || r.index == 0 ||
        r.index > log.size() || log[r.index - 1] != r.key) {
      violation("read of key " + std::to_string(r.key) + " answered index " +
                std::to_string(r.index) + " (fence " +
                std::to_string(r.min_index) + ", applied " +
                std::to_string(r.commit) + ")");
      break;
    }
  }
  std::stable_sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.t != b.t ? a.t < b.t : a.kind < b.kind;
  });
  std::unordered_map<std::uint64_t, std::uint64_t> acked;  // key -> index + 1
  std::array<std::unordered_map<std::uint64_t, std::uint64_t>, kNodes> seen;
  std::vector<std::uint64_t> read_floor(reads_.size(), 0);
  for (const Ev& e : evs) {
    if (e.i < acks_.size() && e.kind == 0) {
      auto& f = acked[acks_[e.i].command];
      f = std::max(f, acks_[e.i].index + 1);
      continue;
    }
    const std::size_t ri = e.kind == 1 ? e.i : e.i - acks_.size();
    const ReadRec& r = reads_[ri];
    auto& floor = seen[r.node][r.key];
    if (e.kind == 0) {
      floor = std::max(floor, r.index);
    } else {
      read_floor[ri] = floor;
      behind_acked_ += r.index < acked[r.key];
    }
  }
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    if (reads_[i].index < read_floor[i]) {
      violation("read of key " + std::to_string(reads_[i].key) + " at node " +
                std::to_string(reads_[i].node) + " went backwards: index " +
                std::to_string(reads_[i].index) + " < " +
                std::to_string(read_floor[i]));
      break;
    }
  }
}

bool ClusterRun::cycle(std::uint32_t c, std::uint32_t cycles) {
  acks_.clear();
  reads_.clear();
  last_ack_ = AckRec{};
  retry_.clear();
  outstanding_ = 0;
  fault_ = Fault::kIdle;
  for (Lane& l : lanes_) {
    l.client.close();
    l.up = false;
    l.appends.clear();
    l.reads.clear();
  }
  const std::int64_t t_boot = now_ns();
  if (!boot(failover() ? 1 : kSetups) || !warmup()) return false;
  const std::int64_t t_window = now_ns();
  const std::uint32_t leader = leader_node_;
  std::array<double, kNodes> cpu0{};
  const std::uint64_t done0 = open_done_ + closed_done_;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    base_[n] = scrape(lanes_[n].client);
    cpu0[n] = cluster_->procs().cpu_us(static_cast<int>(n));
  }
  ProcStat self0;
  read_proc_stat(0, self0);

  // This cycle's slice of the open-loop schedule (failover: one kill each).
  const std::int64_t len = static_cast<std::int64_t>(open_s_ * 1e9 / cycles);
  const auto first_due = [&](std::int64_t at) {
    return static_cast<std::size_t>(
        std::lower_bound(in_.open.begin(), in_.open.end(), at,
                         [](const Op& op, std::int64_t t) { return op.due_ns < t; }) -
        in_.open.begin());
  };
  fault_limit_ = c + 1;
  open_phase(first_due(c * len), c + 1 == cycles ? in_.open.size() : first_due((c + 1) * len),
             c * len, len);
  // Memory is read over the open loop only: how far the closed loop runs
  // ahead (and with it the log) follows the host's speed.
  cluster_->procs().sample_rss();
  peak_rss_ = std::max(peak_rss_, cluster_->procs().peak_rss_bytes());
  if (cfg_.shape.open_share < 1.0) {
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(
                       cfg_.seconds * (1.0 - cfg_.shape.open_share) * 1e9 / cycles);
    if (cfg_.shape.read_share > 0) {
      closed_reads(end);
    } else {
      closed_writes(end);
    }
  }
  double cycle_cpu = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (cluster_->alive(n) && lanes_[n].up) {
      delta_.add(base_[n], scrape(lanes_[n].client));
    }
    const double used = cluster_->procs().cpu_us(static_cast<int>(n)) - cpu0[n];
    (n == leader ? leader_cpu_ : follower_cpu_) += used;
    cycle_cpu += used;
  }
  cycle_cpu_per_op_.push_back(
      cycle_cpu / std::max<double>(1, static_cast<double>(open_done_ + closed_done_ - done0)));
  ProcStat self1;
  read_proc_stat(0, self1);
  self_cpu_ += cpu_us(self1) - cpu_us(self0);
  for (const AckRec& a : acks_) window_appends_ += a.at >= t0_ + c * len ? 1 : 0;
  const std::int64_t t_check = now_ns();
  check();
  replay_dir_ = cluster_->wal_dir(failover() ? victim_ : 0);
  for (Lane& l : lanes_) l.client.close();
  cluster_.reset();  // no child outlives its cycle
  std::fprintf(stderr, "cycle %u: set-up + warm-up %.2f s, window %.2f s, checks %.2f s\n", c,
               static_cast<double>(t_window - t_boot) / 1e9,
               static_cast<double>(t_check - t_window) / 1e9,
               static_cast<double>(now_ns() - t_check) / 1e9);
  return true;
}

RunResult ClusterRun::run() {
  pend_.assign(in_.open.size(), Pending{});
  const std::uint32_t cycles = cfg_.shape.clusters;
  for (std::uint32_t c = 0; c < cycles; ++c) {
    if (!cycle(c, cycles)) {
      result_.correct = false;
      result_.attempted = std::max<std::uint64_t>(in_.open.size(), 1);
      result_.failed = result_.attempted;
      return result_;
    }
  }
  // Threads may start from here on: every child is gone.
  result_.attempted = in_.open.size() + closed_sent_;
  result_.failed = open_failed_ + closed_failed_;
  const double ops = static_cast<double>(open_done_ + closed_done_);

  Samples& primary = cfg_.shape.read_share > 0.9 ? read_lat_ : append_lat_;
  std::vector<std::int64_t> lat = primary.ns;
  const double p50 = static_cast<double>(percentile(lat, 0.5)) / 1e3;
  // On failover the outages are the point: the tail is taken over the
  // whole run, where the stalled requests of all its kills count.
  const Tail tail = failover() ? pick_tail(lat, {0.99, 0.9, 0.5}) : grouped_p99(primary.ns);
  // Throughput and per-op cost come from the closed loop where there is
  // one (the window's idle background would swamp them otherwise), over
  // the middle half of its slices ranked by rate: other tenants of the host
  // stall some stretches of a run, and the odd slice runs fast after one.
  double ops_per_s = static_cast<double>(open_done_) / open_s_;
  // Without a closed loop (failover) the node CPU is mostly the paced
  // threads' idle burn, and a cluster whose nodes were slowed by the host
  // (or whose replay ran long) can add a third to a run's total: the
  // median over clusters, each with its kill, respawn and replay, is kept.
  double cpu_per_op = median(cycle_cpu_per_op_);
  if (!slices_.empty()) {
    std::vector<Slice> ranked = slices_;
    std::sort(ranked.begin(), ranked.end(), [](const Slice& a, const Slice& b) {
      return a.ops / a.s > b.ops / b.s;
    });
    const std::size_t lo = ranked.size() / 4;
    const std::size_t hi = std::max(lo + 1, ranked.size() * 3 / 4);
    Slice sum;
    for (std::size_t k = lo; k < hi; ++k) {
      sum.ops += ranked[k].ops;
      sum.cpu_us += ranked[k].cpu_us;
      sum.s += ranked[k].s;
    }
    ops_per_s = sum.ops / sum.s;
    cpu_per_op = sum.cpu_us / std::max(sum.ops, 1.0);
  }

  std::fprintf(stderr,
               "%s seed %llu: %zu open ops (%llu ok, %llu failed, %llu "
               "refusals retried), primary p50 %.1f us, p%.0f %.1f us over "
               "%zu samples; %.0f ops/s; node cpu %.1f us/op\n",
               cfg_.shape.name.c_str(),
               static_cast<unsigned long long>(cfg_.seed), in_.open.size(),
               static_cast<unsigned long long>(open_done_),
               static_cast<unsigned long long>(open_failed_),
               static_cast<unsigned long long>(refusals_), p50,
               tail.pct * 100, static_cast<double>(tail.value) / 1e3,
               lat.size(), ops_per_s, cpu_per_op);
  for (std::size_t k = 0; k < failover_ms_.size(); ++k) {
    std::fprintf(stderr, "  kill %zu: failover %.1f ms, rejoin %.1f ms\n", k,
                 failover_ms_[k], k < rejoin_ms_.size() ? rejoin_ms_[k] : -1.0);
  }

  auto& m = result_.metrics;
  if (!cfg_.trace) {
    m.push_back({"setup_s", median(setup_s_), "s"});
    m.push_back({"rss_mb", peak_rss_ / (1 << 20), "MB"});
    m.push_back({"p50_us", p50, "us"});
    m.push_back({"p99_us", static_cast<double>(tail.value) / 1e3, "us"});
    m.push_back({"cpu_us_per_op", cpu_per_op, "us"});
    m.push_back({"ops_per_s", ops_per_s, "1/s"});
  } else {
    const auto lat_of = [](const Samples& s, double quant) {
      std::vector<std::int64_t> v = s.ns;
      return static_cast<double>(percentile(v, quant)) / 1e3;
    };
    // Tracing overhead: median latency of requests due while spans were
    // recording, against those due while they were not.
    std::vector<std::int64_t> on, off;
    for (std::size_t k = 0; k < primary.ns.size(); ++k) {
      (primary.traced[k] ? on : off).push_back(primary.ns[k]);
    }
    const double p_on = static_cast<double>(percentile(on, 0.5));
    const double p_off = static_cast<double>(percentile(off, 0.5));
    std::vector<std::int64_t> late = late_;
    WindowObs w;
    w.delta = &delta_;
    w.appends = window_appends_;
    w.faults = static_cast<double>(failover_ms_.size());
    w.window_s = open_elapsed_s_ + closed_s_;
    w.ops = ops;
    w.leader_cpu_us = leader_cpu_;
    w.follower_cpu_us = follower_cpu_;
    w.loadgen_cpu_us = self_cpu_;
    w.late_p99_us = static_cast<double>(percentile(late, 0.99)) / 1e3;
    w.refusals = static_cast<double>(refusals_);
    w.behind_acked = static_cast<double>(behind_acked_);
    w.samples = static_cast<double>(primary.ns.size());
    w.send_ns = tracer_.median_ns(cfg_.shape.read_share > 0.9 ? SpanOp::kReadSend
                                                               : SpanOp::kAppendSend);
    w.append_p50_us = lat_of(append_lat_, 0.5);
    w.append_p99_us = lat_of(append_lat_, 0.99);
    w.read_p50_us = lat_of(read_lat_, 0.5);
    w.read_p99_us = lat_of(read_lat_, 0.99);
    w.failover_ms = median(failover_ms_);
    w.rejoin_ms = median(rejoin_ms_);
    w.overhead_pct = p_off > 0 ? 100.0 * (p_on - p_off) / p_off : 0;
    w.spans = static_cast<double>(tracer_.size());
    push_window_metrics(w, m);
    if (!cfg_.spans_path.empty()) tracer_.write(cfg_.spans_path);
    measure_layers(cfg_.shape, in_, cfg_.seed, cfg_.workdir, replay_dir_, m);
  }
  if (failover() && failover_ms_.size() < cfg_.shape.kills) {
    violation("only " + std::to_string(failover_ms_.size()) + " of " +
              std::to_string(cfg_.shape.kills) + " kills completed");
  }
  result_.correct = result_.violations.empty();
  return result_;
}

}  // namespace

RunResult run_cluster_workload(const RunConfig& cfg) {
  ClusterRun run(cfg);
  return run.run();
}

}  // namespace perfbench
