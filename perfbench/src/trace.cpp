#include "trace.h"

#include <fstream>

#include "util.h"

namespace perfbench {

std::int64_t Tracer::clock() { return now_ns(); }

double Tracer::median_ns(SpanOp op) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (s.op == op) d.push_back(static_cast<double>(s.end - s.start));
  }
  return median(std::move(d));
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  static const char* const kNames[] = {"append_send", "read_send",
                                       "leader_send", "harvest"};
  for (const Span& s : spans_) {
    out << kNames[static_cast<int>(s.op)] << ' ' << s.start << ' ' << s.end
        << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
