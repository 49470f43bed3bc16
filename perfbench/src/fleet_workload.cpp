// leader_fleet: open-loop LEADER queries against one process hosting a
// fleet of Ω groups, while a watcher connection holds WATCHes and the
// server crashes the leaders of seeded groups on a seeded schedule.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "fixture.h"
#include "leader_load.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace omega;

namespace {

constexpr std::int64_t kMs = 1000000;
constexpr std::int64_t kGiveUpNs = 10000 * kMs;
constexpr int kSetups = 9;
constexpr std::uint32_t kLanes = 3;
constexpr std::uint32_t kClosedDepth = 16;
/// Groups whose leader must be known before set-up counts as done.
constexpr std::size_t kSetupProbe = 16;

struct Answer {
  std::int64_t sent = 0;
  std::int64_t recv = 0;
  std::uint64_t gid = 0;
  ProcessId leader = kNoProcess;
  std::uint64_t epoch = 0;
};

struct WatchEvent {
  std::int64_t at = 0;
  std::uint64_t gid = 0;
  ProcessId leader = kNoProcess;
  std::uint64_t epoch = 0;
};

class FleetRun {
 public:
  explicit FleetRun(const RunConfig& cfg)
      : cfg_(cfg),
        open_s_(cfg.seconds * cfg.shape.open_share),
        in_(make_inputs(cfg.shape, cfg.seed, open_s_, open_s_)),
        tracer_(cfg.trace) {}

  RunResult run();

 private:
  void violation(std::string what) { result_.violations.push_back(std::move(what)); }
  bool boot();
  void pump_watch(std::int64_t now);
  void on_answer(std::size_t op, const net::Frame& f, std::int64_t now,
                 std::int64_t sent, bool open);
  void open_phase();
  void closed_phase(std::int64_t end_ns);
  void check(const std::vector<FleetServer::Crash>& crashes,
             std::vector<double>& reelect_ms);

  const RunConfig cfg_;
  const double open_s_;
  const Inputs in_;
  Tracer tracer_;
  RunResult result_;

  std::unique_ptr<FleetServer> server_;
  std::array<RawLane, kLanes> lanes_;
  net::Client watcher_;
  std::vector<double> setup_s_;
  std::vector<Answer> answers_;
  std::vector<WatchEvent> events_;
  std::vector<std::int64_t> lat_;
  std::vector<bool> lat_traced_;
  std::vector<std::int64_t> late_;
  std::uint64_t open_done_ = 0, open_failed_ = 0;
  std::uint64_t closed_done_ = 0, closed_failed_ = 0, closed_sent_ = 0;
  double open_elapsed_s_ = 0, closed_s_ = 0, closed_rate_ = 0;
  std::int64_t t0_ = 0, last_rss_ = 0;
};

bool FleetRun::boot() {
  std::vector<std::uint64_t> probe;
  for (std::size_t i = 0; i < in_.open.size() && probe.size() < kSetupProbe; ++i) {
    probe.push_back(in_.open[i].rank);
  }
  for (int rep = 0; rep < kSetups; ++rep) {
    server_.reset();
    server_ = std::make_unique<FleetServer>(cfg_.shape.groups, in_.faults,
                                            in_.fault_gids);
    const std::int64_t t0 = now_ns();
    server_->spawn();
    net::Client c;
    if (!connect_retry(c, server_->port(), t0 + 60000 * kMs)) {
      violation("fleet server unreachable");
      return false;
    }
    bool elected = false;
    while (!elected && now_ns() < t0 + 60000 * kMs) {
      elected = true;
      for (const std::uint64_t gid : probe) {
        const auto r = c.leader(gid);
        elected = elected && r.ok() && r.view.leader != kNoProcess;
        if (!elected) break;
      }
      if (!elected) ::usleep(2000);
    }
    if (!elected) {
      violation("fleet groups without a leader 60 s after the fork");
      return false;
    }
    setup_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  server_->procs().sample_rss();
  for (RawLane& l : lanes_) {
    if (!l.dial(server_->port())) {
      violation("fleet server refused a connection");
      return false;
    }
  }
  if (!connect_retry(watcher_, server_->port(), now_ns() + 10000 * kMs)) {
    violation("fleet server refused the watcher");
    return false;
  }
  for (const std::uint64_t gid : in_.watch_gids) {
    const auto r = watcher_.watch(gid);
    if (!r.ok()) {
      violation("WATCH refused");
      return false;
    }
    events_.push_back({now_ns(), gid, r.view.leader, r.view.epoch});
  }
  return true;
}

void FleetRun::pump_watch(std::int64_t now) {
  // next_event(0) only drains frames already read, and a wait shorter
  // than 2 ms rounds to none, so read with a short wait while the socket
  // has bytes.
  for (;;) {
    std::optional<net::Client::Event> ev = watcher_.next_event(0);
    if (!ev) {
      pollfd p{watcher_.native_handle(), POLLIN, 0};
      if (::poll(&p, 1, 0) <= 0) return;
      ev = watcher_.next_event(5);
      if (!ev) continue;
    }
    if (ev->kind != net::Client::Event::Kind::kLeaderChange) continue;
    events_.push_back({now, ev->gid, ev->view.leader, ev->view.epoch});
  }
}

void FleetRun::on_answer(std::size_t op, const net::Frame& f,
                         std::int64_t now, std::int64_t sent, bool open) {
  const std::uint64_t gid = open ? in_.open[op].rank : in_.closed[op % in_.closed.size()];
  const bool ok = f.header.status == net::Status::kOk && f.view.gid == gid &&
                  (f.view.leader == kNoProcess || f.view.leader < 3);
  if (!ok) {
    violation("bad LEADER answer for group " + std::to_string(gid));
    ++(open ? open_failed_ : closed_failed_);
    return;
  }
  const std::int64_t due = open ? t0_ + in_.open[op].due_ns : sent;
  // An open-loop request leaves at or after its due time, so the due time
  // is a safe (earlier) stand-in for its send time in the epoch check.
  answers_.push_back({due, now, gid, f.view.leader, f.view.epoch});
  if (!open) return;
  ++open_done_;
  lat_.push_back(now - due);
  lat_traced_.push_back(tracer_.on(due));
}

void FleetRun::open_phase() {
  t0_ = now_ns() + kMs;
  tracer_.start(t0_);
  server_->start_crashes(t0_);
  LeaderLoopHooks hooks;
  hooks.answer = [&](std::size_t op, const net::Frame& f, std::int64_t now) {
    on_answer(op, f, now, 0, true);
  };
  hooks.tick = [&](std::int64_t now) {
    if (now - last_rss_ < 100 * kMs) return;
    last_rss_ = now;
    server_->procs().sample_rss();
  };
  hooks.extra_fd = watcher_.native_handle();
  hooks.extra = [&](std::int64_t now) {
    try {
      pump_watch(now);
      return true;
    } catch (const net::NetError&) {
      return false;
    }
  };
  const LeaderLoopResult r =
      leader_open_loop(lanes_, in_.open, t0_, kGiveUpNs, tracer_, late_, hooks);
  if (r.broken) violation("a LEADER or WATCH connection failed");
  open_failed_ += r.unanswered;
  open_elapsed_s_ = static_cast<double>(now_ns() - t0_) / 1e9;
}

void FleetRun::closed_phase(std::int64_t end_ns) {
  std::size_t next = 0;
  std::unordered_map<std::size_t, std::int64_t> sent_at;
  const std::int64_t t0 = now_ns();
  SliceRate rate(t0, 500 * kMs);
  const auto top_up = [&](RawLane& lane) {
    while (lane.pending() < kClosedDepth && now_ns() < end_ns) {
      const std::size_t op = next++;
      if (!lane.send(in_.closed[op % in_.closed.size()], op)) return false;
      sent_at[op] = now_ns();
      ++closed_sent_;
    }
    return true;
  };
  for (RawLane& l : lanes_) top_up(l);
  std::array<pollfd, kLanes + 1> pfds{};
  for (;;) {
    const std::int64_t now = now_ns();
    std::size_t outstanding = 0;
    for (const RawLane& l : lanes_) outstanding += l.pending();
    if (now >= end_ns && outstanding == 0) break;
    if (now > end_ns + kGiveUpNs) {
      closed_failed_ += outstanding;
      break;
    }
    if (now - last_rss_ > 100 * kMs) {
      last_rss_ = now;
      server_->procs().sample_rss();
    }
    for (std::uint32_t k = 0; k < kLanes; ++k) pfds[k] = {lanes_[k].fd(), POLLIN, 0};
    pfds[kLanes] = {watcher_.native_handle(), POLLIN, 0};
    if (::poll(pfds.data(), pfds.size(), 10) <= 0) continue;
    const std::int64_t at = now_ns();
    for (std::uint32_t k = 0; k < kLanes; ++k) {
      if (pfds[k].revents == 0) continue;
      const bool alive = lanes_[k].harvest([&](std::size_t op, const net::Frame& f) {
        on_answer(op, f, at, sent_at[op], false);
        sent_at.erase(op);
        if (at <= end_ns) {
          ++closed_done_;
          rate.add(at);
        }
      });
      if (!alive || !top_up(lanes_[k])) {
        violation("LEADER connection failed");
        return;
      }
    }
    if (pfds[kLanes].revents != 0) {
      try {
        pump_watch(at);
      } catch (const net::NetError&) {
        violation("watch connection failed");
        return;
      }
    }
  }
  closed_s_ = static_cast<double>(end_ns - t0) / 1e9;
  closed_rate_ = median(rate.rates(end_ns));
}

void FleetRun::check(const std::vector<FleetServer::Crash>& crashes,
                     std::vector<double>& reelect_ms) {
  // Epochs never go backwards: an answer is never older than an answer
  // or pushed event of its group that arrived before it was requested.
  struct Ev {
    std::int64_t t;
    int kind;  // 0 arrival, 1 request sent
    std::size_t i;
  };
  std::vector<Ev> evs;
  for (std::size_t i = 0; i < answers_.size(); ++i) {
    evs.push_back({answers_[i].recv, 0, i});
    evs.push_back({answers_[i].sent, 1, i});
  }
  for (std::size_t i = 0; i < events_.size(); ++i) {
    evs.push_back({events_[i].at, 0, answers_.size() + i});
  }
  std::stable_sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.t != b.t ? a.t < b.t : a.kind < b.kind;
  });
  std::unordered_map<std::uint64_t, std::uint64_t> floor;
  for (const Ev& e : evs) {
    if (e.kind == 1) {
      const Answer& a = answers_[e.i];
      if (a.epoch < floor[a.gid]) {
        violation("LEADER epoch of group " + std::to_string(a.gid) +
                  " went backwards");
        return;
      }
      continue;
    }
    const bool is_answer = e.i < answers_.size();
    const std::uint64_t gid = is_answer ? answers_[e.i].gid : events_[e.i - answers_.size()].gid;
    const std::uint64_t epoch = is_answer ? answers_[e.i].epoch : events_[e.i - answers_.size()].epoch;
    floor[gid] = std::max(floor[gid], epoch);
  }
  // Each crash: the watcher must see a live replica take over, and no
  // answer requested after that may name the crashed replica.
  for (const FleetServer::Crash& c : crashes) {
    std::int64_t took_over = -1;
    for (const WatchEvent& ev : events_) {
      if (ev.gid == c.gid && ev.at >= c.at_ns && ev.leader != kNoProcess &&
          ev.leader != c.pid) {
        took_over = ev.at;
        break;
      }
    }
    if (took_over < 0) {
      violation("no new leader pushed for crashed group " + std::to_string(c.gid));
      continue;
    }
    reelect_ms.push_back(static_cast<double>(took_over - c.at_ns) / 1e6);
    for (const Answer& a : answers_) {
      if (a.gid == c.gid && a.sent > took_over && a.leader == c.pid) {
        violation("LEADER named crashed replica " + std::to_string(c.pid) +
                  " of group " + std::to_string(c.gid));
        break;
      }
    }
  }
  if (crashes.size() < in_.faults.size()) violation("crash reports missing");
}

RunResult FleetRun::run() {
  if (!boot()) {
    result_.correct = false;
    result_.attempted = 1;
    result_.failed = 1;
    return result_;
  }
  // Warm-up: a short burst of queries over every group, untimed.
  closed_phase(now_ns() + 200 * kMs);
  answers_.clear();
  closed_done_ = closed_failed_ = closed_sent_ = 0;

  const std::vector<obs::MetricSample> before = scrape(watcher_);
  const double cpu0 = server_->procs().cpu_us(0);
  ProcStat self0;
  read_proc_stat(0, self0);

  open_phase();
  // Per-query server cost and throughput come from the closed loop.
  const double closed_cpu0 = server_->procs().cpu_us(0);
  closed_phase(now_ns() + static_cast<std::int64_t>(
                              cfg_.seconds * (1.0 - cfg_.shape.open_share) * 1e9));
  const double closed_cpu = server_->procs().cpu_us(0) - closed_cpu0;
  // Let the last crash's takeover reach the watcher.
  const std::int64_t settle = now_ns() + 2000 * kMs;
  while (now_ns() < settle) {
    pollfd p{watcher_.native_handle(), POLLIN, 0};
    if (::poll(&p, 1, 50) > 0) pump_watch(now_ns());
  }

  ScrapeDelta delta;
  delta.add(before, scrape(watcher_));
  const double server_cpu = server_->procs().cpu_us(0) - cpu0;
  ProcStat self1;
  read_proc_stat(0, self1);
  const std::vector<FleetServer::Crash> crashes =
      server_->crashes(now_ns() + 5000 * kMs);
  std::vector<double> reelect_ms;
  check(crashes, reelect_ms);
  const double peak_rss = server_->procs().peak_rss_bytes();
  for (RawLane& l : lanes_) l.close();
  watcher_.close();
  server_.reset();

  result_.attempted = in_.open.size() + closed_sent_;
  result_.failed = open_failed_ + closed_failed_;
  const double ops = static_cast<double>(open_done_ + closed_done_);
  std::vector<std::int64_t> lat = lat_;
  const double p50 = static_cast<double>(percentile(lat, 0.5)) / 1e3;
  const Tail tail = grouped_p99(lat_);
  const double ops_per_s = closed_rate_;
  const double cpu_per_op = closed_cpu / std::max<double>(closed_done_, 1);
  const double window_s = open_elapsed_s_ + closed_s_;
  std::fprintf(stderr,
               "%s seed %llu: %zu open queries (%llu ok, %llu failed), p50 "
               "%.1f us, p%.0f %.1f us over %zu samples; %.0f queries/s; "
               "server cpu %.2f us/op; reelect median %.1f ms over %zu crashes\n",
               cfg_.shape.name.c_str(), static_cast<unsigned long long>(cfg_.seed),
               in_.open.size(), static_cast<unsigned long long>(open_done_),
               static_cast<unsigned long long>(open_failed_), p50, tail.pct * 100,
               static_cast<double>(tail.value) / 1e3, lat.size(), ops_per_s,
               cpu_per_op, median(reelect_ms), reelect_ms.size());

  auto& m = result_.metrics;
  if (!cfg_.trace) {
    m.push_back({"setup_s", median(setup_s_), "s"});
    m.push_back({"rss_mb", peak_rss / (1 << 20), "MB"});
    m.push_back({"p50_us", p50, "us"});
    m.push_back({"p99_us", static_cast<double>(tail.value) / 1e3, "us"});
    m.push_back({"cpu_us_per_op", cpu_per_op, "us"});
    m.push_back({"ops_per_s", ops_per_s, "1/s"});
  } else {
    std::vector<std::int64_t> on, off;
    for (std::size_t k = 0; k < lat_.size(); ++k) {
      (lat_traced_[k] ? on : off).push_back(lat_[k]);
    }
    const double p_on = static_cast<double>(percentile(on, 0.5));
    const double p_off = static_cast<double>(percentile(off, 0.5));
    std::vector<std::int64_t> late = late_;
    WindowObs w;
    w.delta = &delta;
    w.faults = static_cast<double>(crashes.size());
    w.window_s = window_s;
    w.ops = ops;
    w.leader_cpu_us = server_cpu;
    w.loadgen_cpu_us = cpu_us(self1) - cpu_us(self0);
    w.late_p99_us = static_cast<double>(percentile(late, 0.99)) / 1e3;
    w.samples = static_cast<double>(lat_.size());
    w.send_ns = tracer_.median_ns(SpanOp::kLeaderSend);
    w.reelect_ms = median(reelect_ms);
    w.fleet_cpu_us = server_cpu / cfg_.shape.groups / std::max(window_s, 1e-9);
    w.overhead_pct = p_off > 0 ? 100.0 * (p_on - p_off) / p_off : 0;
    w.spans = static_cast<double>(tracer_.size());
    push_window_metrics(w, m);
    if (!cfg_.spans_path.empty()) tracer_.write(cfg_.spans_path);
    measure_layers(cfg_.shape, in_, cfg_.seed, cfg_.workdir, "", m);
  }
  result_.correct = result_.violations.empty();
  return result_;
}

}  // namespace

RunResult run_fleet_workload(const RunConfig& cfg) {
  FleetRun run(cfg);
  return run.run();
}

}  // namespace perfbench
