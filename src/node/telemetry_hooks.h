// Telemetry hooks of the shed loop's admission and tick steps. Their only
// caller is ShedController, which both runtimes drive, so a kModeled server
// snapshot equals the DES snapshot bit for bit (TelemetryOracleTest). Every
// helper takes the installed `Telemetry*` from the caller (which already
// branched on it), so a disabled run pays nothing here.
#ifndef THEMIS_NODE_TELEMETRY_HOOKS_H_
#define THEMIS_NODE_TELEMETRY_HOOKS_H_

#include <deque>
#include <vector>

#include "runtime/batch.h"
#include "runtime/batch_pool.h"
#include "runtime/checkpoint.h"
#include "telemetry/telemetry.h"

namespace themis {

/// \brief Cached per-query counter handles
/// (`query.<q>.{accepted,dropped}_{sic_fp,tuples}`), re-resolved whenever
/// the installed Telemetry changes. Not thread-safe: use one instance per
/// single-threaded writer context.
class QueryTelemetry {
 public:
  /// SIC mass accumulates into the `*_sic_fp` counters as Q44.20 fixed
  /// point (telemetry::FixedFromDouble) so merges stay deterministic.
  void RecordAccepted(telemetry::Telemetry* t, QueryId q, double sic,
                      uint64_t tuples);
  void RecordDropped(telemetry::Telemetry* t, QueryId q, double sic,
                     uint64_t tuples);

 private:
  struct PerQuery {
    telemetry::Counter* accepted_sic = nullptr;
    telemetry::Counter* accepted_tuples = nullptr;
    telemetry::Counter* dropped_sic = nullptr;
    telemetry::Counter* dropped_tuples = nullptr;
  };

  PerQuery* Resolve(telemetry::Telemetry* t, QueryId q);

  telemetry::Telemetry* owner_ = nullptr;
  std::vector<PerQuery> by_query_;
};

/// \brief Publishes BatchPool recycling statistics as `infra.pool.*`
/// metrics (infra.* is the wall-clock/environment namespace excluded from
/// determinism byte-diffs). Counters
/// `infra.pool.row_{hits,misses,released,evicted}` advance by the delta
/// since the last publish; gauges `infra.pool.row_pooled` and
/// `infra.pool.row_peak` carry the current free-list occupancy / high-water
/// mark.
/// Call from the shed tick (one publish per interval is plenty).
class PoolTelemetry {
 public:
  void Publish(telemetry::Telemetry* t, const BatchPool::Stats& s);

 private:
  struct Handles {
    telemetry::Counter* row_hits = nullptr;
    telemetry::Counter* row_misses = nullptr;
    telemetry::Counter* row_released = nullptr;
    telemetry::Counter* row_evicted = nullptr;
    telemetry::Gauge* row_pooled = nullptr;
    telemetry::Gauge* row_peak = nullptr;
  };

  telemetry::Telemetry* owner_ = nullptr;
  Handles h_;
  BatchPool::Stats last_;
};

/// \brief Publishes CheckpointStore capture/restore statistics as
/// `infra.ckpt.*` metrics (like PoolTelemetry, in the wall-clock namespace
/// excluded from determinism byte-diffs). Counters
/// `infra.ckpt.{taken,skipped_clean,restores,missed,bytes_written}` advance
/// by the delta since the last publish; gauges `infra.ckpt.images` /
/// `infra.ckpt.resident_bytes` carry the store's current occupancy. Call
/// from the shed tick.
class CheckpointTelemetry {
 public:
  void Publish(telemetry::Telemetry* t, const CheckpointStore& store);

 private:
  struct Handles {
    telemetry::Counter* taken = nullptr;
    telemetry::Counter* skipped_clean = nullptr;
    telemetry::Counter* restores = nullptr;
    telemetry::Counter* missed = nullptr;
    telemetry::Counter* bytes_written = nullptr;
    telemetry::Gauge* images = nullptr;
    telemetry::Gauge* resident_bytes = nullptr;
  };

  telemetry::Telemetry* owner_ = nullptr;
  Handles h_;
  CheckpointStore::Stats last_;
};

/// Records one overload-detector verdict: counters `shed.ticks` /
/// `shed.overloaded_ticks`, histograms `shed.ib_tuples` / `shed.capacity`.
/// Call right after IsOverloaded (shedding/overload_detector.h) with the
/// same inputs.
void RecordShedTick(telemetry::Telemetry* t, uint64_t ib_tuples,
                    uint64_t capacity, bool overloaded);

/// Records one shed decision: per-query dropped SIC/tuple mass (through
/// `queries`), counters `shed.dropped_tuples` / `shed.dropped_batches`,
/// and the `shed.fraction` histogram (dropped tuples / buffered tuples).
/// Call after SelectBatchesToKeep and before RetainIndices; `keep` holds
/// ascending indices into `ib` of the batches that survive.
void RecordShedDrops(telemetry::Telemetry* t, QueryTelemetry* queries,
                     const std::deque<Batch>& ib,
                     const std::vector<size_t>& keep);

}  // namespace themis

#endif  // THEMIS_NODE_TELEMETRY_HOOKS_H_
