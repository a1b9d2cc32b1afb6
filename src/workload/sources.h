// Source model and driver. A SourceDriver is a simulated data source: it
// emits fixed-size batches at a configurable rate (Table 2: e.g. 400
// tuples/sec in 5 batches/sec of 80 tuples each), optionally with bursts
// (§7.4: 10% of the time at 10x the normal rate), and delivers them to the
// FSPS node hosting the bound receiver operator.
#ifndef THEMIS_WORKLOAD_SOURCES_H_
#define THEMIS_WORKLOAD_SOURCES_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "runtime/batch.h"
#include "runtime/batch_pool.h"
#include "sim/event_queue.h"
#include "sim/timer.h"
#include "workload/distributions.h"

namespace themis {

/// Builds the payload of one tuple at generation time.
using PayloadFn = std::function<ValueList(SimTime now)>;

/// Declarative description of one source.
struct SourceModel {
  double tuples_per_sec = 400.0;
  int batches_per_sec = 5;
  /// Payload builder; if null, emits a single-field payload drawn from
  /// `dataset`.
  PayloadFn payload = nullptr;
  Dataset dataset = Dataset::kGaussian;
  double mean = 50.0;
  /// Burstiness (§7.4): probability that any given second runs at
  /// `burst_multiplier` times the base rate.
  double burst_prob = 0.0;
  double burst_multiplier = 10.0;
  /// Diurnal rate modulation: the base rate is scaled by a triangle wave in
  /// [1 - amplitude, 1 + amplitude] of period `diurnal_period` (a pure-
  /// integer waveform, bit-identical across platforms — same idea as the
  /// churn scenario's latency drift). 0 (default) leaves the constant-rate
  /// path untouched, byte-for-byte. Bursts multiply on top, so a burst at
  /// the diurnal peak is the autoscaler's worst case.
  double diurnal_amplitude = 0.0;
  SimDuration diurnal_period = Seconds(60);
};

/// \brief Event-driven batch generator for one source.
class SourceDriver {
 public:
  /// \param deliver sink receiving the generated batches (typically
  ///        Fsps-provided, shipping them over the simulated network)
  /// \param pool optional free-list (usually the destination node's) that
  ///        generated batches draw their tuple buffers from
  SourceDriver(SourceId source, QueryId query, OperatorId target_op,
               int target_port, SourceModel model, EventQueue* queue, Rng rng,
               std::function<void(Batch)> deliver, BatchPool* pool = nullptr);

  /// Starts periodic generation; emits `batches_per_sec` batches per second.
  void Start();

  /// Stops generation (idempotent): the scheduled emission fires as a
  /// no-op. The driver object stays alive so pending timer events remain
  /// valid.
  void Stop() {
    stopped_ = true;
    timer_.Cancel();
  }
  bool stopped() const { return stopped_; }

  /// Moves the driver to another shard's queue and batch pool (a
  /// re-balance: a driver follows its destination node's shard so its
  /// deliveries stay shard-local). Only legal between engine runs. The
  /// emission timer re-arms on the new queue at its original deadline, so
  /// the emission schedule is unchanged (see sim/timer.h).
  void Rehome(EventQueue* queue, BatchPool* pool) {
    // Cross-pool Release is fine: batches recycle where they land.
    pool_ = pool;
    timer_.MoveTo(queue);
  }
  EventQueue* queue() const { return timer_.queue(); }

  QueryId query_id() const { return query_; }
  OperatorId target_op() const { return target_op_; }
  uint64_t tuples_generated() const { return tuples_generated_; }

 private:
  /// Emission-timer callback: generates and delivers one batch.
  void GenerateBatch();
  size_t CurrentBatchSize();

  SourceId source_;
  QueryId query_;
  OperatorId target_op_;
  int target_port_;
  SourceModel model_;
  Timer<SourceDriver, &SourceDriver::GenerateBatch> timer_;
  std::function<void(Batch)> deliver_;
  BatchPool* pool_;
  std::unique_ptr<ValueGenerator> value_gen_;
  SimDuration period_;
  size_t base_batch_size_ = 1;  ///< batch size at the non-burst rate
  // Burst state: whether the current second is bursty, re-rolled per second.
  SimTime burst_rolled_until_ = -1;
  bool bursting_ = false;
  uint64_t tuples_generated_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  // Last: 2.5 KB of engine state that only Start and the burst rolls read,
  // kept out of the cache lines every emission touches.
  Rng rng_;
};

}  // namespace themis

#endif  // THEMIS_WORKLOAD_SOURCES_H_
