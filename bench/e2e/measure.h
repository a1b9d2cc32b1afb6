// Measurement plumbing shared by the end-to-end workloads: stopwatches that
// double as trace spans, order statistics over samples, process memory and
// allocation counts, and the one-line JSON report run.py reads.
#ifndef THEMIS_BENCH_E2E_MEASURE_H_
#define THEMIS_BENCH_E2E_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace themis {
namespace e2e {

/// Seconds on the monotonic clock.
double NowSeconds();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Heap allocations since process start (the counting allocator is linked
/// in and armed by main).
uint64_t Allocations();

/// `num / den`, or 0 when `den` is 0 (a layer the workload never ran).
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Jain's fairness index of `xs`; 0 for an empty or all-zero set.
double Jain(const std::vector<double>& xs);

/// Speed of this host right now: iterations per second of a fixed
/// xorshift loop (~40 ms).
double MeasureHostSpeed();

/// \brief Measurements of one quantity with order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  void Reserve(size_t n) { values_.reserve(n); }
  size_t size() const { return values_.size(); }

  /// Nearest-rank percentile, `p` in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Max() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// \brief Times one call into the library into `out` (seconds). When a
/// Telemetry is installed the call is also recorded as a span named `span`
/// (a string literal), so a traced run sees the benchmark's calls around
/// the library's own spans.
class Stopwatch {
 public:
  Stopwatch(const char* span, Samples* out)
      : scope_(span), out_(out), start_(NowSeconds()) {}
  ~Stopwatch() { out_->Add(NowSeconds() - start_); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  telemetry::TraceScope scope_;
  Samples* out_;
  double start_;
};

/// Command line of one workload run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  /// Wall-clock budget of the measurement.
  double seconds = 20.0;
  /// Reduced scenario sizes for the ctest smoke run.
  bool smoke = false;
  /// Non-empty: a traced run, which writes its Chrome trace here.
  std::string trace_file;

  bool traced() const { return !trace_file.empty(); }
};

/// \brief Everything one run reports: named metric values, the operations
/// it attempted and how many failed, and the outcome of every check.
class Report {
 public:
  void Set(const std::string& name, double value);
  /// Same, recording how many samples the value summarises.
  void Set(const std::string& name, double value, size_t samples);
  /// Records one correctness check; a failed one is listed by `what`.
  void Check(bool ok, const std::string& what);
  void AddOps(uint64_t attempted, uint64_t failed);
  void Note(const std::string& key, const std::string& value);

  bool ok() const { return checks_failed_ == 0 && ops_failed_ == 0; }
  /// The report as one JSON object on one line.
  std::string ToJson() const;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, size_t> samples_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t checks_ = 0;
  uint64_t checks_failed_ = 0;
  uint64_t ops_ = 0;
  uint64_t ops_failed_ = 0;
};

/// Sets the wall-clock end-to-end metrics from per-episode (or per-window)
/// samples: `throughput_tuples_per_s` and `setup_s` at a reference host
/// speed of 5e8 loop iterations/s, using the median of `host_speed`
/// (MeasureHostSpeed readings), and the raw medians as `raw.*`. On a shared
/// host the speed available to a run drifts by 10-15% over minutes; the
/// scaling cancels most of that drift.
void SetWallClockMetrics(const Samples& throughput, const Samples& setup_s,
                         const Samples& host_speed, Report* report);

/// Runs `dense_lan`, `wan_federation` or `churn_checkpoint`.
void RunDesWorkload(const RunOptions& options, Report* report);
/// Runs `server_realtime`.
void RunServerWorkload(const RunOptions& options, Report* report);

/// Writes the installed tracer's Chrome trace to `path` and notes the span
/// counts run.py needs to prove no span was overwritten.
void ExportTrace(telemetry::Telemetry* telemetry, const std::string& path,
                 Report* report);

}  // namespace e2e
}  // namespace themis

#endif  // THEMIS_BENCH_E2E_MEASURE_H_
