#include "leader_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

#include "util.h"

namespace perfbench {

using namespace omega;

RawLane::~RawLane() { close(); }

void RawLane::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool RawLane::dial(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
}

bool RawLane::send(std::uint64_t gid, std::size_t op) {
  out_.clear();
  const std::uint64_t req = next_req_++;
  net::encode_request(out_, net::MsgType::kLeader, req, gid);
  std::size_t off = 0;
  while (off < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  pending_[req] = op;
  return true;
}

bool RawLane::harvest(
    const std::function<void(std::size_t, const net::Frame&)>& fn) {
  std::uint8_t buf[16384];
  const ssize_t r = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
  if (r == 0) return false;
  if (r < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  in_.feed(buf, static_cast<std::size_t>(r));
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
  while (in_.next(payload, len)) {
    net::Frame f;
    if (net::decode_payload(payload, len, f) != net::DecodeResult::kOk) return false;
    const auto it = pending_.find(f.header.req_id);
    if (it == pending_.end()) return false;
    const std::size_t op = it->second;
    pending_.erase(it);
    fn(op, f);
  }
  return !in_.corrupt();
}

LeaderLoopResult leader_open_loop(std::span<RawLane> lanes,
                                  const std::vector<Op>& ops, std::int64_t t0,
                                  std::int64_t give_up_ns, Tracer& tracer,
                                  std::vector<std::int64_t>& late,
                                  const LeaderLoopHooks& hooks) {
  LeaderLoopResult res;
  const std::int64_t last_due = ops.empty() ? t0 : t0 + ops.back().due_ns;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::vector<pollfd> pfds(lanes.size() + 1);
  for (;;) {
    std::int64_t now = now_ns();
    while (next < ops.size() && t0 + ops[next].due_ns <= now) {
      const std::int64_t due = t0 + ops[next].due_ns;
      RawLane& lane = lanes[next % lanes.size()];
      const bool sent = tracer.span(SpanOp::kLeaderSend, tracer.on(due), [&] {
        return lane.send(ops[next].rank, next);
      });
      if (!sent) {
        res.broken = true;
        res.unanswered += ops.size() - next + outstanding;
        return res;
      }
      late.push_back(now - due);
      ++outstanding;
      ++next;
    }
    if (hooks.tick) hooks.tick(now);
    if (next == ops.size() && outstanding == 0) break;
    if (now > last_due + give_up_ns) break;
    std::int64_t wake = now + 2000000;
    if (next < ops.size()) wake = std::min(wake, t0 + ops[next].due_ns);
    for (std::size_t k = 0; k < lanes.size(); ++k) pfds[k] = {lanes[k].fd(), POLLIN, 0};
    pfds[lanes.size()] = {hooks.extra_fd, POLLIN, 0};
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1000000000), static_cast<long>(wait % 1000000000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    now = now_ns();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const bool alive = tracer.span(SpanOp::kHarvest, tracer.on(now), [&] {
        return lanes[k].harvest([&](std::size_t op, const net::Frame& f) {
          --outstanding;
          hooks.answer(op, f, now);
        });
      });
      if (!alive) {
        res.broken = true;
        res.unanswered += ops.size() - next + outstanding;
        return res;
      }
    }
    if (hooks.extra_fd >= 0 && pfds[lanes.size()].revents != 0 && !hooks.extra(now)) {
      res.broken = true;
      res.unanswered += ops.size() - next + outstanding;
      return res;
    }
  }
  res.unanswered += ops.size() - next + outstanding;
  return res;
}

}  // namespace perfbench
