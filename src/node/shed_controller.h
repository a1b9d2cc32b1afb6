// The per-node THEMIS control loop (§6, Fig. 5), shared by both runtimes.
// ShedController owns all state the loop reads and writes (cost model,
// detector, interval counters, disseminated and accepted per-query SIC,
// efficiency estimates, shed-path telemetry, checkpoint cadence) and runs it
// as steps: Admit/ChargeBusy per admitted batch, then per tick BeginTick,
// the caller's window pump, CaptureCheckpoints and Decide. The pump is the
// one step the runtimes do differently: the discrete-event Node pumps
// synchronously, the realtime ServerPipeline wakes its execution nodes.
// Both drive the same code, so a kModeled server run takes the DES's
// decisions by construction. Not thread-safe: the server calls it under
// its site lock.
#ifndef THEMIS_NODE_SHED_CONTROLLER_H_
#define THEMIS_NODE_SHED_CONTROLLER_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/time_types.h"
#include "node/input_buffer.h"
#include "node/telemetry_hooks.h"
#include "runtime/batch_pool.h"
#include "runtime/checkpoint.h"
#include "shedding/cost_model.h"
#include "shedding/shedder.h"
#include "sic/stw_tracker.h"

namespace themis {

/// Counters of both runtimes (ServerStats is this struct; NodeStats adds
/// crash counters). The runtime counts ingress; the controller the rest.
struct ShedStats {
  uint64_t tuples_received = 0;
  uint64_t tuples_processed = 0;  ///< admitted to execution
  uint64_t tuples_shed = 0;
  uint64_t batches_received = 0;
  uint64_t batches_processed = 0;
  uint64_t batches_shed = 0;
  uint64_t shed_invocations = 0;      ///< ticks that shed something
  uint64_t detector_invocations = 0;  ///< all ticks
  SimDuration busy_time = 0;
  size_t last_capacity = 0;
};

/// Per-query SIC account: a trailing-STW tracker plus running totals.
struct SicAccount {
  explicit SicAccount(SimDuration stw) : tracker(stw) {}
  void Add(SimTime now, double sic, uint64_t tuples) {
    tracker.AddResultSic(now, sic);
    total_sic += sic;
    total_tuples += tuples;
  }
  StwTracker tracker;
  double total_sic = 0.0;
  uint64_t total_tuples = 0;
};

/// \brief One node's overload detector + tuple shedder control loop.
class ShedController {
 public:
  /// \param shedder shedding policy (BALANCE-SIC or random); owned
  /// \param stats counters to write; not owned, must outlive the controller
  ShedController(SimDuration shed_interval, SimDuration stw,
                 std::unique_ptr<Shedder> shedder, ShedStats* stats);

  /// Admission step: a batch of `tuples` tuples carrying `sic` mass for
  /// query `q` was accepted for processing at `now`.
  void Admit(QueryId q, double sic, size_t tuples, SimTime now);
  /// Charges `work` of processing time to the current interval.
  void ChargeBusy(SimDuration work) {
    stats_->busy_time += work;
    interval_busy_ += work;
  }

  /// Coordinator dissemination of a query's current result SIC (§5.2).
  void UpdateQuerySic(QueryId q, double sic) { Slot(q).sic = sic; }
  /// Forgets every per-query entry of `q` (undeployment).
  void RemoveQuery(QueryId q);
  /// Latest disseminated result SIC of `q`; empty before the first update.
  std::optional<double> query_sic(QueryId q) const {
    return static_cast<size_t>(q) < slots_.size() ? slots_[q].sic
                                                  : std::nullopt;
  }
  /// SIC mass accepted for `q` over the trailing STW (the shedder sees it
  /// scaled by the efficiency estimate).
  double AcceptedSic(QueryId q, SimTime now);
  /// Cumulative SIC mass / tuples admitted for `q`.
  double AcceptedSicTotal(QueryId q) const;
  uint64_t AcceptedTuplesTotal(QueryId q) const;
  const CostModel& cost_model() const { return cost_model_; }

  /// Enables (or re-tunes) capture into `store` (not owned).
  void ConfigureCheckpoints(CheckpointStore* store,
                            const CheckpointConfig& config) {
    ckpt_store_ = store;
    ckpt_config_ = config;
  }
  CheckpointStore* checkpoint_store() const { return ckpt_store_; }

  /// Tick, first step: counts the tick and feeds the last interval's
  /// admitted tuples and busy time into the cost model.
  void BeginTick();
  /// Tick, after the pump (released panes have left operator state, so a
  /// restore re-emits the least): when capture is enabled and due, offers
  /// each hosted operator to the store. `for_each_op(capture)` must call
  /// `capture(Operator*, QueryId)` per hosted operator in pump order. Costs
  /// no simulated time: the event schedule is the same with capture off.
  template <typename ForEachOp>
  void CaptureCheckpoints(SimTime now, ForEachOp&& for_each_op) {
    if (!CheckpointDue(now)) return;
    for_each_op([&](Operator* op, QueryId q) {
      MaybeCheckpointOperator(op, q, now, ckpt_config_.error_bound,
                              ckpt_store_);
    });
  }
  /// Tick, last step: estimates capacity c (times `capacity_scale`, the
  /// server's worker count under measured accounting), refreshes the
  /// efficiency estimates, runs the detector on `ib` and, when overloaded,
  /// sheds it down to c. `query_slots` bounds the hosted QueryIds (the
  /// shedder's per-query snapshots are indexed by them). Publishes the
  /// shed-path, `pool` and checkpoint telemetry. Returns the verdict.
  bool Decide(SimTime now, InputBuffer* ib, const BatchPool& pool,
              size_t query_slots, size_t capacity_scale = 1);

 private:
  /// Per-query state of the loop. Admission accounting: the trailing-STW
  /// tracker is the lag-free local signal for the shedder (see ShedContext),
  /// scaled by a slow efficiency estimate so it predicts *result* SIC:
  /// queries lose SIC mass semantically (filters dropping whole panes, join
  /// windows with one side missing), and equalising raw accepted mass would
  /// leave low-efficiency queries permanently below the water level.
  struct QuerySlot {
    std::optional<double> sic;             ///< latest disseminated result SIC
    std::unique_ptr<SicAccount> accepted;  ///< from the first admission on
    Ewma efficiency{0.05};                 ///< result SIC per accepted SIC
  };

  /// True, scheduling the next capture, when capture is enabled and due.
  bool CheckpointDue(SimTime now);
  QuerySlot& Slot(QueryId q) {
    if (static_cast<size_t>(q) >= slots_.size()) slots_.resize(q + 1);
    return slots_[q];
  }
  /// `q`'s admission account; null before its first admission.
  SicAccount* Account(QueryId q) const;

  SimDuration shed_interval_;
  SimDuration stw_;
  std::unique_ptr<Shedder> shedder_;
  ShedStats* stats_;
  CostModel cost_model_;
  uint64_t interval_tuples_ = 0;
  SimDuration interval_busy_ = 0;

  // Indexed by QueryId and walked in ascending id.
  std::vector<QuerySlot> slots_;
  // Reused per shed tick; indexed by QueryId (see ShedContext).
  std::vector<double> query_sic_snapshot_;
  std::vector<double> accepted_snapshot_;

  QueryTelemetry query_telemetry_;
  PoolTelemetry pool_telemetry_;
  CheckpointTelemetry ckpt_telemetry_;

  CheckpointStore* ckpt_store_ = nullptr;  // capture is off while null
  CheckpointConfig ckpt_config_;
  SimTime ckpt_next_due_ = 0;
};

}  // namespace themis

#endif  // THEMIS_NODE_SHED_CONTROLLER_H_
