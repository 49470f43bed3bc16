#include "util.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Rand::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rand::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t Rand::below(std::uint64_t n) { return next() % n; }

double Rand::exponential(double mean) { return -mean * std::log1p(-unit()); }

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(Rand& r) const {
  const double u = r.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

namespace {

/// 0-based nearest-rank index of percentile q among n samples.
std::size_t rank_of(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return r < 1 ? 0 : static_cast<std::size_t>(r) - 1;
}

}  // namespace

std::int64_t percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[rank_of(v.size(), q)];
}

Tail pick_tail(std::vector<std::int64_t>& v,
               const std::vector<double>& ladder) {
  Tail t;
  if (v.empty() || ladder.empty()) return t;
  std::sort(v.begin(), v.end());
  for (const double q : ladder) {
    const std::size_t i = rank_of(v.size(), q);
    t = Tail{q, v[i], v.size() - 1 - i};
    if (t.beyond >= 10) break;
  }
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

Tail grouped_p99(const std::vector<std::int64_t>& v) {
  constexpr std::size_t kGroup = 1000;
  if (v.size() < 3 * kGroup) {
    std::vector<std::int64_t> all = v;
    return pick_tail(all, {0.99, 0.9, 0.5});
  }
  std::vector<double> p99s;
  for (std::size_t g = 0; g + kGroup <= v.size(); g += kGroup) {
    std::vector<std::int64_t> group(v.begin() + g, v.begin() + g + kGroup);
    p99s.push_back(static_cast<double>(pick_tail(group, {0.99}).value));
  }

  return Tail{0.99, static_cast<std::int64_t>(median(std::move(p99s))), 10};
}

void SliceRate::add(std::int64_t t) {
  if (t < start_) return;
  const std::size_t i = static_cast<std::size_t>((t - start_) / slice_);
  if (i >= counts_.size()) counts_.resize(i + 1, 0);
  ++counts_[i];
}

std::vector<double> SliceRate::rates(std::int64_t end_ns) const {
  const std::size_t whole =
      end_ns > start_ ? static_cast<std::size_t>((end_ns - start_) / slice_) : 0;
  std::vector<double> rates;
  for (std::size_t i = 0; i < whole; ++i) {
    const double n = i < counts_.size() ? static_cast<double>(counts_[i]) : 0;
    rates.push_back(n * 1e9 / static_cast<double>(slice_));
  }
  return rates;
}

bool parse_proc_stat(const std::string& line, ProcStat& out) {
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream in(line.substr(close + 1));
  // Fields after the command: 3 state, 4 ppid, ... 14 utime, 15 stime,
  // ... 24 rss (proc(5) numbering).
  std::vector<std::string> f;
  std::string tok;
  while (in >> tok) f.push_back(tok);
  if (f.size() < 22) return false;
  try {
    out.utime_ticks = std::stoull(f[14 - 3]);
    out.stime_ticks = std::stoull(f[15 - 3]);
    out.rss_pages = std::stoull(f[24 - 3]);
  } catch (...) {
    return false;
  }
  return true;
}

bool read_proc_stat(int pid, ProcStat& out) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/stat")
                            : "/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return false;
  return parse_proc_stat(line, out);
}

double cpu_us(const ProcStat& s) {
  static const double us_per_tick = 1e6 / static_cast<double>(
                                              ::sysconf(_SC_CLK_TCK));
  return static_cast<double>(s.utime_ticks + s.stime_ticks) * us_per_tick;
}

double rss_bytes(const ProcStat& s) {
  static const double page = static_cast<double>(::sysconf(_SC_PAGESIZE));
  return static_cast<double>(s.rss_pages) * page;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    o << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
      << num << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

}  // namespace perfbench
