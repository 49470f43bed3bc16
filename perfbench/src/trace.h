// Client-side spans of a traced run. Spans are recorded around every
// net::Client call (and raw frame send) the generator makes, kept in
// memory, and written out when the run ends. They record only in every
// other 250 ms slice of the open-loop phase, so one traced run measures
// the same load with and without span recording: the difference of the
// two latency medians is the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

enum class SpanOp : std::uint8_t {
  kAppendSend,
  kReadSend,
  kLeaderSend,
  kHarvest,
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void start(std::int64_t t0_ns) { t0_ = t0_ns; }
  /// Whether spans record at time `t` (odd 250 ms slices of a traced run).
  bool on(std::int64_t t) const {
    return enabled_ && t >= t0_ && ((t - t0_) / 250000000) % 2 == 1;
  }

  /// Runs `fn`, recording its span when `traced`.
  template <class Fn>
  auto span(SpanOp op, bool traced, Fn&& fn) -> decltype(fn()) {
    if (!traced) return fn();
    const std::int64_t start = clock();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back(Span{start, clock(), op});
    } else {
      auto r = fn();
      spans_.push_back(Span{start, clock(), op});
      return r;
    }
  }

  std::size_t size() const { return spans_.size(); }
  /// Median span duration of `op` (ns); 0 when none was recorded.
  double median_ns(SpanOp op) const;
  /// Writes "op start_ns end_ns" lines; false on an I/O error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    SpanOp op = SpanOp::kAppendSend;
  };
  static std::int64_t clock();

  bool enabled_ = false;
  std::int64_t t0_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
