// Result bookkeeping shared by the workloads: the operation ledger
// (attempted / failed), named metrics with unit and direction, sample
// statistics, and the bench-side span log of the traced run.
#ifndef FLOWER_PERFBENCH_REPORT_H_
#define FLOWER_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Wall-clock seconds on the monotonic clock.
inline double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v);

/// Nearest-rank percentile: the value at index ceil(p/100 * n) - 1 of
/// the sorted sample. 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

/// Samples strictly above the nearest-rank `p` percentile's position.
size_t SamplesBeyond(size_t n, double p);

/// The highest of {50, 75, 90, 95, 99, 99.9} whose nearest-rank
/// position leaves at least ten samples beyond it; 0 when even the
/// median does not (fewer than 20 samples).
double HighestSupportedPercentile(size_t n);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "higher" or "lower".
  std::string note;    ///< Base counts or definition, printed beside it.
};

/// What one run reports: every metric, plus the operation ledger. A
/// failed correctness check marks the operation it guards as failed.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string better, std::string note = "");
  /// Counts one operation; `ok == false` counts it failed and records
  /// `what` as the reason.
  void Op(bool ok, const std::string& what);
  /// A check that is not tied to one counted operation.
  void Check(bool ok, const std::string& what);

  bool correct() const { return errors_.empty(); }
  uint64_t failed() const { return failed_; }

  /// Human-readable table (every metric with unit and direction), the
  /// failures, then the one-line JSON result as the last line.
  void Print(const std::string& workload, bool traced) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Bench-side spans around the public calls the traced run makes: name,
/// start, end and parent, kept in memory and written as Chrome trace
/// JSON at exit. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(NowSec()) {}

  /// Opens a span under the innermost open one; returns its id (0 when
  /// disabled).
  size_t Begin(const char* name);
  void End(size_t id);
  size_t size() const { return spans_.size(); }
  /// Self time (duration minus child coverage) summed per span name.
  std::vector<std::pair<std::string, double>> SelfMsByName() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start = 0.0;
    double end = 0.0;
    size_t parent = 0;  ///< 1-based id of the parent; 0 = root.
  };
  bool enabled_;
  double t0_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name) : log_(log), id_(log->Begin(name)) {}
  ~Scoped() { log_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  size_t id_;
};

}  // namespace perfbench

#endif  // FLOWER_PERFBENCH_REPORT_H_
