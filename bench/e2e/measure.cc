#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/alloc_counter.h"

namespace themis {
namespace e2e {

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

uint64_t Allocations() { return AllocCounter::allocations(); }

double Jain(const std::vector<double>& xs) {
  double sum = 0.0, sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (xs.empty() || sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

double MeasureHostSpeed() {
  constexpr uint64_t kIterations = 20'000'000;
  uint64_t x = 88172645463325252ull;
  const double start = NowSeconds();
  for (uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double seconds = NowSeconds() - start;
  // Observe the result so the loop cannot be folded away.
  if (x == 0) std::fprintf(stderr, "host speed loop degenerated\n");
  return static_cast<double>(kIterations) / seconds;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

void Report::Set(const std::string& name, double value) {
  // A metric that cannot be computed is a bug in the benchmark, not a
  // number to publish.
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = value;
}

void Report::Set(const std::string& name, double value, size_t samples) {
  Set(name, value);
  samples_[name] = samples;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++checks_failed_;
    failures_.push_back(what);
  }
}

void Report::AddOps(uint64_t attempted, uint64_t failed) {
  ops_ += attempted;
  ops_failed_ += failed;
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

std::string Report::ToJson() const {
  std::string out = "{\"checks\":";
  out += std::to_string(checks_);
  out += ",\"checks_failed\":" + std::to_string(checks_failed_);
  out += ",\"ops\":" + std::to_string(ops_);
  out += ",\"ops_failed\":" + std::to_string(ops_failed_);
  out += ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonString(failures_[i], &out);
  }
  out += "],\"notes\":{";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(key, &out);
    out.push_back(':');
    AppendJsonString(value, &out);
  }
  out += "},\"metrics\":{";
  first = true;
  char buf[64];
  for (const auto& [name, value] : metrics_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    std::snprintf(buf, sizeof(buf), ":%.17g", value);
    out += buf;
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [name, n] : samples_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out += ":" + std::to_string(n);
  }
  out += "}}";
  return out;
}

void SetWallClockMetrics(const Samples& throughput, const Samples& setup_s,
                         const Samples& host_speed, Report* report) {
  constexpr double kReferenceSpeed = 5e8;
  const double slowdown = kReferenceSpeed / host_speed.Median();
  report->Set("throughput_tuples_per_s", throughput.Median() * slowdown,
              throughput.size());
  report->Set("setup_s", setup_s.Median() / slowdown, setup_s.size());
  report->Set("raw.throughput_tuples_per_s", throughput.Median(),
              throughput.size());
  report->Set("raw.setup_s", setup_s.Median(), setup_s.size());
  report->Set("host.speed", host_speed.Median(), host_speed.size());
}

void ExportTrace(telemetry::Telemetry* telemetry, const std::string& path,
                 Report* report) {
  std::string json;
  telemetry->tracer().ExportChromeTrace(&json);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << json;
  file.close();
  report->Check(static_cast<bool>(file), "trace written to " + path);
  report->Note("trace_file", path);
  report->Note("trace_recorded",
               std::to_string(telemetry->tracer().recorded()));
  report->Note("trace_ring_capacity",
               std::to_string(telemetry->tracer().ring_capacity()));
}

}  // namespace e2e
}  // namespace themis
