#include "bench/perf.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/alloc_counter.h"

namespace themis {
namespace bench {

namespace {

long PeakRssKb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // KiB on Linux
}

// Process CPU time (user + system). Throughput per CPU second is far less
// sensitive to host contention than wall-clock, so the regression gate
// prefers it.
double CpuSeconds() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Fixed-work CPU calibration: a short xorshift loop whose rate captures how
// fast this machine is right now. Reported next to the throughput numbers so
// the regression gate can compare machine-normalized values.
double CalibrateOpsPerSec() {
  constexpr uint64_t kIters = 60'000'000;  // ~50 ms on current hardware
  uint64_t x = 88172645463325252ull;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  auto end = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(end - start).count();
  // Fold the result into the observable output so the loop cannot be
  // optimized away.
  if (x == 0) std::fprintf(stderr, "calibration degenerated\n");
  return secs > 0.0 ? static_cast<double>(kIters) / secs : 0.0;
}

// Minimal JSON string escaping for config labels (quotes and backslashes).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

PerfRecorder::PerfRecorder(int argc, char** argv, std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick_ = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path_ = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path_ = argv[++i];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path_ = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path_ = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path_ = argv[i] + 10;
    }
  }
  if (!trace_path_.empty() || !metrics_path_.empty()) {
    telemetry_ = std::make_unique<telemetry::Telemetry>();
    telemetry::Install(telemetry_.get());
  }
  if (json_path_.empty()) {
    if (const char* env = std::getenv("THEMIS_BENCH_JSON"); env != nullptr) {
      json_path_ = env;
    }
  }
  // Arm the counting allocator (linked into the bench harness) so per-run
  // allocation counts are meaningful.
  ForceLinkAllocCounter();
  if (!json_path_.empty()) calib_ops_per_sec_ = CalibrateOpsPerSec();
}

void PerfRecorder::BeginRun(std::string config) {
  open_config_ = std::move(config);
  run_open_ = true;
  run_start_allocs_ = AllocCounter::allocations();
  run_start_cpu_s_ = CpuSeconds();
  run_start_ = std::chrono::steady_clock::now();
}

void PerfRecorder::AddMetric(const std::string& name, double value) {
  if (run_open_) {
    // Attach on EndRun: the Run object does not exist yet.
    pending_metrics_.emplace_back(name, value);
    return;
  }
  if (!runs_.empty()) runs_.back().metrics.emplace_back(name, value);
}

void PerfRecorder::EndRun(uint64_t tuples_processed) {
  auto end = std::chrono::steady_clock::now();
  double end_cpu_s = CpuSeconds();
  if (!run_open_) return;
  run_open_ = false;
  Run run;
  run.config = std::move(open_config_);
  run.wall_s = std::chrono::duration<double>(end - run_start_).count();
  run.cpu_s = end_cpu_s - run_start_cpu_s_;
  run.tuples_processed = tuples_processed;
  run.allocations = AllocCounter::allocations() - run_start_allocs_;
  run.metrics = std::move(pending_metrics_);
  pending_metrics_.clear();
  runs_.push_back(std::move(run));
}

PerfRecorder::~PerfRecorder() {
  std::string telemetry_json;
  if (telemetry_ != nullptr) {
    // Benches destroy the recorder after their runs finish and their
    // threads join, so the tracer/registry are quiescent here.
    telemetry::Uninstall();
    if (!trace_path_.empty()) {
      std::string trace;
      telemetry_->tracer().ExportChromeTrace(&trace);
      std::ofstream out(trace_path_, std::ios::trunc);
      if (out) {
        out << trace << "\n";
      } else {
        std::fprintf(stderr, "perf: cannot write %s\n", trace_path_.c_str());
      }
    }
    if (!metrics_path_.empty()) {
      std::string prom;
      telemetry_->metrics().ExportProm(&prom);
      std::ofstream out(metrics_path_, std::ios::trunc);
      if (out) {
        out << prom;
      } else {
        std::fprintf(stderr, "perf: cannot write %s\n",
                     metrics_path_.c_str());
      }
    }
    telemetry_->metrics().ExportJson(&telemetry_json);
  }

  if (json_path_.empty()) return;

  // One entry (line) per bench; the file is a JSON array. Re-writing keeps
  // every other bench's line, so sequentially running the bench suite into
  // one path yields the merged BENCH_results.json.
  std::ostringstream entry;
  char calib[64];
  std::snprintf(calib, sizeof(calib), "%.0f", calib_ops_per_sec_);
  entry << "{\"bench\":\"" << JsonEscape(bench_name_) << "\""
        << ",\"quick\":" << (quick_ ? "true" : "false")
        << ",\"peak_rss_kb\":" << PeakRssKb()
        << ",\"calib_ops_per_sec\":" << calib << ",\"alloc_counting\":"
        << (AllocCounter::active() ? "true" : "false") << ",\"runs\":[";
  for (size_t i = 0; i < runs_.size(); ++i) {
    const Run& r = runs_[i];
    double tps = r.wall_s > 0.0
                     ? static_cast<double>(r.tuples_processed) / r.wall_s
                     : 0.0;
    double apt = r.tuples_processed > 0
                     ? static_cast<double>(r.allocations) /
                           static_cast<double>(r.tuples_processed)
                     : 0.0;
    double cpu_tps = r.cpu_s > 0.0
                         ? static_cast<double>(r.tuples_processed) / r.cpu_s
                         : 0.0;
    if (i > 0) entry << ",";
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"config\":\"%s\",\"wall_s\":%.6f,\"cpu_s\":%.6f,"
                  "\"tuples_processed\":%llu,\"tuples_per_sec\":%.1f,"
                  "\"tuples_per_cpu_sec\":%.1f,"
                  "\"allocations\":%llu,\"allocs_per_tuple\":%.4f",
                  JsonEscape(r.config).c_str(), r.wall_s, r.cpu_s,
                  static_cast<unsigned long long>(r.tuples_processed), tps,
                  cpu_tps,
                  static_cast<unsigned long long>(r.allocations), apt);
    entry << buf;
    if (!r.metrics.empty()) {
      entry << ",\"metrics\":{";
      for (size_t m = 0; m < r.metrics.size(); ++m) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6f",
                      m > 0 ? "," : "", JsonEscape(r.metrics[m].first).c_str(),
                      r.metrics[m].second);
        entry << buf;
      }
      entry << "}";
    }
    entry << "}";
  }
  entry << "]";
  if (!telemetry_json.empty()) {
    entry << ",\"telemetry\":" << telemetry_json;
  }
  entry << "}";

  // Merge: keep existing entries of other benches (the writer emits exactly
  // one entry per line, so a line-based merge is sufficient).
  std::vector<std::string> kept;
  {
    std::ifstream in(json_path_);
    std::string line;
    const std::string self_tag = "{\"bench\":\"" + JsonEscape(bench_name_) +
                                 "\"";
    while (std::getline(in, line)) {
      if (line.empty() || line == "[" || line == "]") continue;
      std::string body = line;
      if (!body.empty() && body.back() == ',') body.pop_back();
      if (body.rfind(self_tag, 0) == 0) continue;  // replaced below
      if (body.rfind("{\"bench\":\"", 0) != 0) continue;  // junk
      kept.push_back(body);
    }
  }
  kept.push_back(entry.str());

  std::ofstream out(json_path_, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perf: cannot write %s\n", json_path_.c_str());
    return;
  }
  out << "[\n";
  for (size_t i = 0; i < kept.size(); ++i) {
    out << kept[i] << (i + 1 < kept.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

int IntFlag(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

}  // namespace bench
}  // namespace themis
