#include "trace.hpp"

#include <cstdio>

#include "util/json.hpp"

namespace jobbench {

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> Tracer::self_seconds(int job) const {
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].job != job) continue;
    double covered = 0.0;
    for (const Span& child : spans_) {
      if (child.parent == static_cast<int>(i)) covered += child.seconds();
    }
    self[layer_of(spans_[i].name)] += spans_[i].seconds() - covered;
  }
  return self;
}

void Tracer::write_chrome(std::ostream& out, const std::string& context) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << context
      << ",\"traceEvents\":[";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << nonmask::util::json_quote(s.name)
        << ",\"cat\":" << nonmask::util::json_quote(layer_of(s.name))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << "}}";
  }
  out << "\n]}\n";
}

}  // namespace jobbench
