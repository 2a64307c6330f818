// Shared pieces of the benchmark: a steady clock, order statistics, an
// in-memory span recorder and the metric report printed at the end.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Linearly interpolated quantile `q` in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One closed span. `parent` indexes the enclosing span on the same thread
/// (-1 for a root); `request_id` ties together spans of one serve request.
struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request_id = 0;
  uint32_t thread = 0;
};

/// \brief Process-wide span recorder. Spans stay in memory and are written
/// once, when the run ends. While disabled, opening a span reads no clock.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span as a child of this thread's innermost open span and
  /// returns its index, or -1 while disabled.
  int64_t Begin(const char* name, uint64_t request_id = 0);
  void End(int64_t index);
  /// Records a span timed elsewhere (a request's due-to-done interval is
  /// measured across two threads). Always a root span; recorded even while
  /// disabled, since the caller decided when the interval began.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request_id);

  struct NameSummary {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time covered by child spans
  };
  std::map<std::string, NameSummary> Summary() const;

  /// Writes every span plus the per-name summary as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the process tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request_id = 0)
      : index_(Tracer::Get().Begin(name, request_id)) {}
  ~ScopedSpan() { Tracer::Get().End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

/// \brief Named metrics with units, printed as the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{...}}`.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Formats a double with every significant digit.
std::string FormatDouble(double v);

}  // namespace perfbench
