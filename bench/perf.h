// Machine-readable performance recording for the bench binaries.
//
// Every bench constructs a PerfRecorder from its argv and brackets each
// experiment run with BeginRun()/EndRun(). The recorder measures wall-clock
// time and (via the opt-in counting allocator linked into the bench harness)
// heap allocations per run, plus the process peak RSS, and writes one entry
// per bench into a merged JSON file.
//
// Command line / environment:
//   --quick            run a seconds-scale smoke configuration (each bench
//                      decides what to shrink; figure output is NOT the
//                      paper figure in this mode)
//   --json PATH        write/merge results into PATH
//   THEMIS_BENCH_JSON  same as --json (flag wins); JSON is only written when
//                      one of the two is present, so plain runs and parallel
//                      ctest invocations never race on a shared file
//   --trace PATH       install a Telemetry for the whole bench and write a
//                      Chrome-trace JSON of its spans to PATH on exit
//   --metrics PATH     same install; write a Prometheus-style metric
//                      snapshot to PATH on exit (both flags also accept
//                      --flag=PATH). When either is given, the bench's
//                      BENCH_results.json entry gains a "telemetry" object.
//
// See EXPERIMENTS.md ("BENCH_results.json") for the schema and the baseline
// refresh workflow.
#ifndef THEMIS_BENCH_PERF_H_
#define THEMIS_BENCH_PERF_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

namespace themis {
namespace bench {

/// \brief Records per-run perf metrics and merges them into a JSON file.
class PerfRecorder {
 public:
  /// Parses `--quick` and `--json PATH` from argv (unknown flags ignored).
  PerfRecorder(int argc, char** argv, std::string bench_name);
  /// Writes the merged JSON on destruction (when a path is configured).
  ~PerfRecorder();

  PerfRecorder(const PerfRecorder&) = delete;
  PerfRecorder& operator=(const PerfRecorder&) = delete;

  /// True when the binary should run its seconds-scale smoke configuration.
  bool quick() const { return quick_; }

  /// Telemetry installed by this recorder for the bench's lifetime, or
  /// null when neither --trace nor --metrics was given.
  telemetry::Telemetry* telemetry() const { return telemetry_.get(); }

  /// Starts timing one experiment run labelled `config`.
  void BeginRun(std::string config);
  /// Finishes the current run. `tuples_processed` drives the tuples/s
  /// throughput metric; pass 0 when the run has no tuple-count notion.
  void EndRun(uint64_t tuples_processed);

  /// Attaches a named simulated-domain metric (e.g. MTTR in milliseconds,
  /// dip depth) to the current run — or, after EndRun, to the run that just
  /// closed. Emitted as a `"metrics"` object on the run's JSON entry;
  /// check_regression.py gates ratios between configs with
  /// --max-metric-ratio. Deterministic metrics only: these are compared
  /// exactly across runs, unlike the wall-clock fields.
  void AddMetric(const std::string& name, double value);

 private:
  struct Run {
    std::string config;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    uint64_t tuples_processed = 0;
    uint64_t allocations = 0;
    std::vector<std::pair<std::string, double>> metrics;
  };

  std::string bench_name_;
  bool quick_ = false;
  std::string json_path_;
  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::vector<Run> runs_;
  // Fixed-work CPU score measured at construction; the regression gate
  // divides throughput by it, cancelling machine-class and coarse host-load
  // differences between a results file and the committed baseline.
  double calib_ops_per_sec_ = 0.0;

  bool run_open_ = false;
  std::string open_config_;
  // Metrics added while a run is open, moved into it at EndRun.
  std::vector<std::pair<std::string, double>> pending_metrics_;
  std::chrono::steady_clock::time_point run_start_;
  double run_start_cpu_s_ = 0.0;
  uint64_t run_start_allocs_ = 0;
};

/// Value of the integer flag `flag N` in argv (atoi of the next argument),
/// or `fallback` when the flag is absent.
int IntFlag(int argc, char** argv, const char* flag, int fallback);

}  // namespace bench
}  // namespace themis

#endif  // THEMIS_BENCH_PERF_H_
