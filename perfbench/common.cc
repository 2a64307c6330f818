#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::Begin(const char* name, uint64_t request_id) {
  if (!enabled()) return -1;
  Span span;
  span.name = name;
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.request_id = request_id;
  span.thread = ThreadIndex();
  span.start_ns = NowNs();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(span);
  }
  t_open.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const int64_t end = NowNs();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request_id) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.request_id = request_id;
  span.thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, Tracer::NameSummary> Tracer::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent are sequential on the parent's thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] +=
          SecondsBetween(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, NameSummary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameSummary& n = out[s.name];
    const double d = SecondsBetween(s.start_ns, s.end_ns);
    ++n.count;
    n.total_s += d;
    n.self_s += d - child_s[i];
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::map<std::string, NameSummary> summary = Summary();
  std::ofstream out(path);
  out << "{\"summary\":{";
  bool first = true;
  for (const auto& [name, n] : summary) {
    out << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << n.count
        << ",\"total_s\":" << FormatDouble(n.total_s)
        << ",\"self_s\":" << FormatDouble(n.self_s) << "}";
    first = false;
  }
  out << "},\"spans\":[";
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << (s.start_ns - origin) / 1000.0
        << ",\"end_us\":" << (s.end_ns - origin) / 1000.0
        << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id
        << ",\"thread\":" << s.thread << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    out << (first ? "" : ", ") << "\"" << name
        << "\": {\"value\": " << FormatDouble(vu.first) << ", \"unit\": \""
        << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
