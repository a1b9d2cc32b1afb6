// Lock-free, per-shard-laned metric registry: monotonic counters, gauges,
// log2-bucketed value histograms and time series, with deterministic merge
// and deterministic Prometheus-style / JSON export.
//
// Determinism contract: metric *values* must be derived from simulated
// state only, so that a snapshot is bit-identical run-to-run and across
// shard counts. Two mechanisms make that hold under the parallel engine:
//
//  - Every hot-path slot is a per-lane relaxed atomic (lanes are cache-line
//    padded; parallel-engine workers call telemetry::SetLane(shard)).
//    Integer adds commute, so the merged value is independent of thread
//    interleaving.
//  - Sums of fractional quantities (SIC mass, shed fractions) accumulate
//    as Q44.20 fixed point (`FixedFromDouble`), never as floats, so the
//    merge is associative bit for bit.
//
// Metrics whose values are inherently shard-count-dependent or wall-clock
// derived (epoch busy/wait time, server stage latencies) must be named
// with the reserved `infra.` prefix; exporters can exclude them
// (`include_infra = false`, or `grep -v '^infra\.'` on the text snapshot)
// so the remaining snapshot stays part of the determinism contract.
#ifndef THEMIS_TELEMETRY_METRIC_REGISTRY_H_
#define THEMIS_TELEMETRY_METRIC_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace themis {
namespace telemetry {

/// Max concurrent writer lanes (engine shards). Writes from lanes >= this
/// clamp into the last lane; correctness is unaffected, only contention.
inline constexpr int kMaxLanes = 16;

/// Fractional quantities accumulate as Q44.20 fixed point.
inline constexpr int kFixedPointBits = 20;

/// Nearest fixed-point representation of `v` (ties away from zero).
int64_t FixedFromDouble(double v);
/// Exact double of a fixed-point value (Q44.20 fits double's mantissa for
/// every magnitude this codebase produces).
double FixedToDouble(int64_t fp);

/// One cache-line-padded accumulator cell.
struct alignas(64) LaneCell {
  std::atomic<uint64_t> value{0};
};

/// \brief Monotonic counter; per-lane relaxed adds, merged on read.
class Counter {
 public:
  /// Adds `n` on the calling thread's lane. Relaxed: counts commute.
  void Add(uint64_t n);
  /// Sum over lanes. Exact once writers have quiesced; approximate
  /// (but never torn) while they run.
  uint64_t Value() const;

 private:
  LaneCell lanes_[kMaxLanes];
};

/// \brief Point-in-time value, stored as fixed point. Single atomic slot:
/// gauges are set from control-plane code (one writer at a time), not
/// from data-plane lanes.
class Gauge {
 public:
  void Set(double v);
  void SetRaw(int64_t fp);
  int64_t Raw() const;
  double Value() const;

 private:
  std::atomic<int64_t> fp_{0};
};

/// \brief Log2-bucketed histogram of a nonnegative quantity.
///
/// Bucket b holds values v with 2^(b-kBucketBias-1) <= v < 2^(b-kBucketBias)
/// (frexp exponent + bias; exact powers of two sit at the bottom of their
/// bucket); v <= 0 lands in bucket 0. The covered range, 2^-32 .. 2^31,
/// spans everything observed here (microseconds, tuple counts, shed
/// fractions). The sum accumulates as fixed point so merged snapshots are
/// bit-identical regardless of lane interleaving.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kBucketBias = 32;

  /// Bucket index for `v`; pure function, pinned by telemetry_test.
  static int BucketOf(double v);

  void Observe(double v);
  uint64_t Count() const;
  /// Sum of observed values, fixed point.
  int64_t SumRaw() const;
  double Sum() const;
  /// Merged count of bucket `b`.
  uint64_t BucketCount(int b) const;

 private:
  struct alignas(64) Lane {
    std::atomic<uint64_t> buckets[kBuckets];
    std::atomic<uint64_t> count{0};
    std::atomic<int64_t> sum_fp{0};
  };
  Lane lanes_[kMaxLanes];
};

/// \brief Append-only (time, value) series — low-rate control-plane
/// appends (e.g. one Jain sample per 250 ms), guarded by a mutex.
class Series {
 public:
  struct Point {
    int64_t time_us = 0;
    int64_t value_fp = 0;
  };

  void Append(int64_t time_us, double value);
  std::vector<Point> Snapshot() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Point> points_;
};

/// \brief Named-metric owner. Get* interns the name on first use and
/// returns a stable pointer; lookups take a mutex (instrument hot loops by
/// caching the returned pointer), the returned handles are lock-free.
class MetricRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);
  Series* GetSeries(std::string_view name);

  /// Appends a Prometheus-style text snapshot: one `name value` line per
  /// counter/gauge, `name_count` / `name_sum` / non-empty
  /// `name_bucket{pow2="e"}` lines per histogram, and
  /// `name{t_us="..."} value` lines per series point. Names are emitted
  /// in sorted order; `include_infra = false` drops metrics whose name
  /// starts with `infra.`.
  void ExportProm(std::string* out, bool include_infra = true) const;

  /// Appends one JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{...},"series":{...}} with the same content and
  /// filtering as ExportProm.
  void ExportJson(std::string* out, bool include_infra = true) const;

 private:
  mutable std::mutex mu_;
  // std::map: stable pointers + deterministic (sorted) export order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
};

/// Calling thread's writer lane; clamped to [0, kMaxLanes).
void SetLane(int lane);
int Lane();

}  // namespace telemetry
}  // namespace themis

#endif  // THEMIS_TELEMETRY_METRIC_REGISTRY_H_
