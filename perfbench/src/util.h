// Small self-contained helpers of the benchmark: clock, seeded random
// numbers, percentiles, /proc parsing and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC is system-wide, so a forked
/// child and its parent share this timeline).
std::int64_t now_ns();

/// SplitMix64 stream: the whole input of a run derives from one of these,
/// so equal seeds give byte-identical inputs.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double unit();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Exponential with the given mean (Poisson inter-arrival gaps).
  double exponential(double mean);

 private:
  std::uint64_t s_;
};

/// Zipf-distributed ranks in [0, n) with exponent `s` (rank 0 hottest).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Rand& r) const;

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
std::int64_t percentile(std::vector<std::int64_t>& v, double q);

/// A tail percentile chosen so that it has enough samples beyond it.
struct Tail {
  double pct = 0;          ///< the percentile chosen, e.g. 0.99
  std::int64_t value = 0;  ///< its nearest-rank value
  std::size_t beyond = 0;  ///< samples strictly above its rank
};

/// The highest percentile in `ladder` (descending) that has at least ten
/// samples beyond its nearest rank; the last rung when none has. Sorts `v`.
Tail pick_tail(std::vector<std::int64_t>& v,
               const std::vector<double>& ladder = {0.999, 0.99, 0.9, 0.5});

double median(std::vector<double> v);

/// Tail latency robust to one stall: the samples (in arrival order) are
/// cut into consecutive groups of 1000, each group's p99 has ten samples
/// beyond it, and the median of the group p99s is returned. With fewer
/// than three full groups it is pick_tail over all samples, capped at p99.
Tail grouped_p99(const std::vector<std::int64_t>& v);

/// Completion rate of a closed loop, robust to one stall: completions are
/// counted per fixed slice of time and the median slice rate is returned.
class SliceRate {
 public:
  SliceRate(std::int64_t start_ns, std::int64_t slice_ns)
      : start_(start_ns), slice_(slice_ns) {}
  /// One completion at `t` (ignored outside [start, start + n slices)).
  void add(std::int64_t t);
  /// Per-second rate of each whole slice before `end_ns`.
  std::vector<double> rates(std::int64_t end_ns) const;

 private:
  std::int64_t start_;
  std::int64_t slice_;
  std::vector<std::uint64_t> counts_;
};

/// CPU time and resident set of one process, from /proc/<pid>/stat.
struct ProcStat {
  std::uint64_t utime_ticks = 0;
  std::uint64_t stime_ticks = 0;
  std::uint64_t rss_pages = 0;
};

/// Parses one /proc/<pid>/stat line. The command name may hold spaces and
/// parentheses, so fields are counted from the last ')'.
bool parse_proc_stat(const std::string& line, ProcStat& out);
/// Reads /proc/<pid>/stat (pid 0 = this process); false if it is gone.
bool read_proc_stat(int pid, ProcStat& out);
double cpu_us(const ProcStat& s);
double rss_bytes(const ProcStat& s);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: the last line the benchmark prints on stdout.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
