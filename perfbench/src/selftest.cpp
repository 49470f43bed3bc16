// Self-tests of the benchmark's own machinery (not of the system under
// test). Prints one line per check and exits non-zero if any fails.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "inputs.h"
#include "leader_load.h"
#include "net/frame.h"
#include "util.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void inputs_are_seeded() {
  for (const std::string& name : workload_names()) {
    Shape s;
    shape_of(name, s);
    const auto a = serialize(make_inputs(s, 42, 2.0, 2.0));
    const auto b = serialize(make_inputs(s, 42, 2.0, 2.0));
    const auto c = serialize(make_inputs(s, 43, 2.0, 2.0));
    expect(a == b, name + ": the same seed gives byte-identical inputs");
    expect(a != c, name + ": another seed gives other inputs");
  }
}

void percentile_picks_supported_tail() {
  std::vector<std::int64_t> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Tail t = pick_tail(v);
  expect(t.pct == 0.99 && t.value == 990 && t.beyond == 10,
         "1000 samples: p99 (10 beyond), not p99.9");
  v.pop_back();
  t = pick_tail(v);
  expect(t.pct == 0.9 && t.beyond >= 10, "999 samples: falls back to p90");
  v.clear();
  for (int i = 1; i <= 10000; ++i) v.push_back(i);
  t = pick_tail(v);
  expect(t.pct == 0.999 && t.value == 9990 && t.beyond == 10,
         "10000 samples: p99.9");
  v = {5};
  t = pick_tail(v);
  expect(t.pct == 0.5 && t.value == 5, "one sample: the last rung");
}

void proc_stat_parses_canned_line() {
  // Command names may contain spaces and parentheses.
  const std::string line =
      "4242 (node (x) 1) S 1 4242 4242 0 -1 4194560 1234 0 0 0 "
      "371 129 0 0 30 10 9 0 123456 987654321 2048 18446744073709551615 "
      "1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0";
  ProcStat s;
  expect(parse_proc_stat(line, s) && s.utime_ticks == 371 &&
             s.stime_ticks == 129 && s.rss_pages == 2048,
         "/proc/<pid>/stat: utime, stime and rss after a tricky comm");
  expect(!parse_proc_stat("12 (truncated", s), "/proc/<pid>/stat: rejects a cut line");
  ProcStat self;
  expect(read_proc_stat(0, self) && self.rss_pages > 0, "/proc/self/stat reads");
}

/// Serves LEADER one request at a time; answering request `stall_at`
/// takes `stall_ms` first, so everything queued behind it waits too.
void stub_server(int listen_fd, std::uint64_t stall_at, int stall_ms, int total) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  omega::net::FrameDecoder in;
  std::vector<std::uint8_t> out;
  std::uint8_t buf[4096];
  int served = 0;
  while (served < total) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    in.feed(buf, static_cast<std::size_t>(r));
    const std::uint8_t* payload = nullptr;
    std::size_t len = 0;
    while (in.next(payload, len)) {
      omega::net::Frame f;
      omega::net::decode_payload(payload, len, f);
      if (f.header.req_id == stall_at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      }
      out.clear();
      omega::net::encode_view_frame(out, omega::net::MsgType::kLeader,
                                    omega::net::Status::kOk, f.header.req_id,
                                    omega::net::ViewBody{f.view.gid, 0, 1});
      if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) break;
      ++served;
    }
  }
  ::close(fd);
}

void open_loop_times_from_due() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t alen = sizeof addr;
  ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  ::listen(lfd, 4);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen);

  // 40 requests 5 ms apart; request 11 (due at 50 ms) stalls 50 ms.
  constexpr int kOps = 40;
  constexpr std::int64_t kGap = 5000000;
  std::vector<Op> ops(kOps);
  for (int i = 0; i < kOps; ++i) {
    ops[i].kind = OpKind::kLeader;
    ops[i].due_ns = (i + 1) * kGap;
    ops[i].rank = 7;
  }
  std::thread server(stub_server, lfd, /*stall_at=*/11, /*stall_ms=*/50, kOps);
  RawLane lane;
  const bool dialed = lane.dial(ntohs(addr.sin_port));
  std::vector<std::int64_t> latency(kOps, -1);
  std::vector<std::int64_t> late;
  Tracer tracer(false);
  const std::int64_t t0 = now_ns();
  LeaderLoopHooks hooks;
  hooks.answer = [&](std::size_t op, const omega::net::Frame&, std::int64_t now) {
    latency[op] = now - (t0 + ops[op].due_ns);
  };
  const LeaderLoopResult r = leader_open_loop(std::span<RawLane>(&lane, 1), ops, t0,
                                              2000000000, tracer, late, hooks);
  server.join();
  ::close(lfd);
  expect(dialed && r.unanswered == 0 && !r.broken, "stub: every request answered");
  // Request index 10 is the stalled one (req ids start at 1); those due
  // during its stall are answered only after it, and their latency from
  // due time shows the wait they spent queued.
  const std::int64_t stall_end = ops[10].due_ns + 50000000;
  bool queued_inflated = true;
  for (int i = 10; i < kOps && ops[i].due_ns < stall_end; ++i) {
    queued_inflated = queued_inflated &&
                      latency[i] >= stall_end - ops[i].due_ns - 2000000;
  }
  expect(latency[10] >= 50000000, "stub: the stalled request waited 50 ms");
  expect(queued_inflated,
         "stub: requests due during the stall carry the time queued behind it");
  expect(latency[kOps - 1] < 20000000, "stub: requests due after the stall are fast");
  expect(late.size() == kOps, "stub: each send's lateness is recorded");
}

}  // namespace

int main() {
  inputs_are_seeded();
  percentile_picks_supported_tail();
  proc_stat_parses_canned_line();
  open_loop_times_from_due();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
