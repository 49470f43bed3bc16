// Open-loop LEADER load over raw pipelined connections (the client's
// LEADER call blocks, and an open loop must never wait for an answer
// before sending the next request that is due).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "inputs.h"
#include "net/frame.h"
#include "trace.h"

namespace perfbench {

class RawLane {
 public:
  RawLane() = default;
  ~RawLane();
  RawLane(const RawLane&) = delete;
  RawLane& operator=(const RawLane&) = delete;

  bool dial(std::uint16_t port);
  void close();
  int fd() const { return fd_; }
  std::size_t pending() const { return pending_.size(); }

  /// Sends one LEADER request tagged with `op`; false when the
  /// connection is gone.
  bool send(std::uint64_t gid, std::size_t op);
  /// Reads what is available and calls `fn(op, frame)` per answer. False
  /// on a dead connection or a malformed or unmatched frame.
  bool harvest(const std::function<void(std::size_t, const omega::net::Frame&)>& fn);

 private:
  int fd_ = -1;
  omega::net::FrameDecoder in_;
  std::vector<std::uint8_t> out_;
  std::unordered_map<std::uint64_t, std::size_t> pending_;  ///< req_id -> op
  std::uint64_t next_req_ = 1;
};

struct LeaderLoopHooks {
  /// One answer to op `op`, received at `now`.
  std::function<void(std::size_t op, const omega::net::Frame& f, std::int64_t now)> answer;
  /// Every wake-up of the loop.
  std::function<void(std::int64_t now)> tick;
  /// Another descriptor to watch (the WATCH connection), and its handler;
  /// the handler returns false to abort the loop.
  int extra_fd = -1;
  std::function<bool(std::int64_t now)> extra;
};

struct LeaderLoopResult {
  std::size_t unanswered = 0;  ///< sent but never answered, or not sent
  bool broken = false;         ///< a connection failed
};

/// Sends op i at `t0 + ops[i].due_ns`, round-robin over `lanes`, and
/// harvests answers as they arrive until every op is answered or
/// `give_up_ns` after the last was due. `late[i]` receives how late op i
/// was sent. Latency is the hook's to take: from the op's due time.
LeaderLoopResult leader_open_loop(std::span<RawLane> lanes,
                                  const std::vector<Op>& ops, std::int64_t t0,
                                  std::int64_t give_up_ns, Tracer& tracer,
                                  std::vector<std::int64_t>& late,
                                  const LeaderLoopHooks& hooks);

}  // namespace perfbench
