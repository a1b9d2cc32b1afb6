// The real-time THEMIS runtime: one site running hosted queries as a live
// multi-threaded pipeline off a real (or manually advanced) clock. Sources
// Push() batches from any thread; the ingress task stamps, buffers and
// admits them; execution nodes process them under credit-based
// backpressure. SIC stamping (SicStamper) and the §6 control loop
// (ShedController: admission accounting, cost model, overload detector,
// shedder) are the discrete-event Node's own components, driven here from
// a ticker thread under the site lock.
//
// Two accounting modes:
//  - kMeasured (real runs): busy time is measured per task slice on the
//    wall clock, capacity scales with the worker count, and admission is
//    unpaced (the CPU itself is the pacer). A ticker thread runs the shed
//    tick, and result SIC is fed back to the shedder at every tick (a local
//    stand-in for coordinator dissemination, §5.2).
//  - kModeled (oracle runs): busy time is computed from operator costs
//    exactly as the DES does, and admission is paced on the modeled
//    busy-until — with a ManualClock and 0 workers the pipeline reproduces
//    the DES schedule, which tests exploit to compare accepted-SIC totals
//    bit for bit. So it keeps nothing the DES twin lacks: the caller
//    drives every tick (DriveTick; no ticker thread), and nothing
//    disseminates result SIC (the twin has no coordinator).
// In both modes each execution node's input channel grants 64 credits;
// paced admission puts one batch per modeled busy period into a channel,
// so a kModeled run never waits on them.
#ifndef THEMIS_SERVER_SERVER_PIPELINE_H_
#define THEMIS_SERVER_SERVER_PIPELINE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/time_types.h"
#include "node/input_buffer.h"
#include "node/shed_controller.h"
#include "node/sic_stamper.h"
#include "runtime/batch_pool.h"
#include "runtime/checkpoint.h"
#include "runtime/clock.h"
#include "runtime/query_graph.h"
#include "server/exec_node.h"
#include "shedding/shedder.h"

namespace themis {

/// How the cost model's busy time is obtained.
enum class CostAccounting {
  /// Wall-clock measured per task slice (real runs).
  kMeasured,
  /// Computed from operator costs like the DES (oracle runs).
  kModeled,
};

/// Server configuration; shedding defaults match NodeOptions (§7).
struct ServerOptions {
  SimDuration shed_interval = Millis(250);
  SimDuration stw = Seconds(10);
  double cpu_speed = 1.0;
  SimDuration window_grace = Millis(200);
  /// Worker threads; 0 = caller-driven deterministic mode (RunUntilIdle).
  size_t workers = 4;
  /// Also selects paced admission, the ticker thread and result-SIC
  /// feedback (see the file comment).
  CostAccounting accounting = CostAccounting::kMeasured;
  /// Source backpressure: Push() blocks while the input buffer holds >=
  /// `ib_high_watermark` tuples until it drains to <= `ib_low_watermark`.
  /// 0 disables blocking (overload lands in the IB and the shedder).
  size_t ib_high_watermark = 0;
  size_t ib_low_watermark = 0;
};

/// Per-server counters: the shed loop's, shared with NodeStats.
using ServerStats = ShedStats;

/// \brief A live single-site pipeline hosting whole queries.
class ServerPipeline : private ServerSite {
 public:
  /// \param clock not owned; must outlive the pipeline
  /// \param shedder shedding policy (BALANCE-SIC or random); owned
  ServerPipeline(ServerOptions options, Clock* clock,
                 std::unique_ptr<Shedder> shedder);
  ~ServerPipeline() override;

  /// Hosts every fragment of `graph` on this site. Call before Start; the
  /// graph must outlive the pipeline.
  void AddQuery(const QueryGraph* graph);

  /// Spawns workers and the shed ticker (with workers > 0); arms the first
  /// tick at clock + shed_interval either way.
  void Start();
  /// Stops ticker and workers, wakes blocked sources. Idempotent.
  void Stop();

  /// Source ingress from any thread: stamps Eq. (1) SIC, buffers in the IB,
  /// wakes the ingress task. Blocks per the IB watermarks when configured.
  /// Returns false (dropping the batch) after Stop.
  bool Push(Batch batch);

  // --- Deterministic driving (workers == 0) ---------------------------
  /// Sentinel for "no pending admission".
  static constexpr SimTime kNever = -1;
  /// Wakes the ingress task (e.g. after advancing a ManualClock).
  void NotifyIngress();
  /// Drains the runnable queue on the calling thread.
  void RunUntilIdle();
  /// Blocks until workers drained the runnable queue (workers > 0). Under
  /// kModeled accounting the ticker is not spawned, so a driver can
  /// alternate Push/NotifyIngress/WaitIdle with ManualClock advances and
  /// DriveTick for a deterministic run on real worker threads.
  void WaitIdle();
  /// RunUntilIdle with 0 workers, WaitIdle otherwise.
  void Quiesce();
  /// Time the next batch admission may happen (kNever if the IB is empty
  /// and nothing is staged).
  SimTime NextAdmissionTime() const;
  /// Time of the next shed tick.
  SimTime NextTickTime() const;
  /// Runs one shed tick on the calling thread: the controller's BeginTick,
  /// the window pump drained to idle, checkpoint capture, then Decide. The
  /// barrier after the pump is what the free-running ticker omits.
  void DriveTick();

  // --- Checkpointing ----------------------------------------------------
  /// Enables the controller's checkpoint capture: each DriveTick, once the
  /// window pump has quiesced, captures images of every hosted operator
  /// into `store` (not owned; must outlive the pipeline) at the configured
  /// cadence, skipping operators whose accumulated dirt is within
  /// `config.error_bound`, and exports the store as infra.ckpt.* telemetry.
  /// DriveTick only (the free-running ticker captures nothing): operator
  /// state is mutated by ExecNode slices outside mu_, so capture is safe
  /// only behind the pump barrier, when no worker can be mid-slice.
  void EnableCheckpoints(CheckpointStore* store, CheckpointConfig config);
  /// The process-restart model: restores every hosted operator from the
  /// enabled store (operators without a usable image reset; see
  /// RestoreOrResetOperator). Call before Start,
  /// after AddQuery — a fresh pipeline hosting the same graphs resumes
  /// from the last captured images.
  void RestoreHostedFromStore();

  // --- Introspection ---------------------------------------------------
  /// Snapshot of the counters, taken under the site lock (safe to call
  /// from any thread while the pipeline runs).
  ServerStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  const ServerOptions& options() const { return options_; }
  size_t ib_tuples() const;
  /// Trailing-STW accepted SIC (diagnostics; shedder sees it scaled).
  double AcceptedSic(QueryId q, SimTime now);
  /// Cumulative admitted SIC/tuples since Start (oracle comparisons).
  double AcceptedSicTotal(QueryId q) const;
  uint64_t AcceptedTuplesTotal(QueryId q) const;
  /// Cumulative result tuples delivered by the root operator.
  uint64_t ResultTuplesTotal(QueryId q) const;

 private:
  class IngressTask;

  struct HostedQuery {
    const QueryGraph* graph = nullptr;
    /// Execution nodes indexed by OperatorId.
    std::vector<std::unique_ptr<ExecNode>> by_op;
    /// Pump order: fragments ascending, topological within a fragment.
    std::vector<ExecNode*> pump;
  };

  // ServerSite interface (thread-safe; called from task slices).
  SimTime Now() const override { return clock_->NowMicros(); }
  SimTime Watermark() const override;
  void ChargeModeled(double work_us) override;
  void RecordMeasuredBusy(SimDuration busy_us) override;
  void DeliverResult(QueryId query, const std::vector<Tuple>& results,
                     SimTime now) override;
  Batch AcquireBatch() override;
  void ReleaseBatch(Batch b) override;
  bool measured_accounting() const override {
    return options_.accounting == CostAccounting::kMeasured;
  }
  double cpu_speed() const override { return options_.cpu_speed; }

  RunStatus IngressSlice();
  /// Adds modeled work to busy-until / interval accounting (mu_ held).
  void ChargeModeledLocked(double work_us);
  /// Calls `fn(Operator*, QueryId)` for every hosted operator, queries
  /// ascending, pump order within a query.
  template <typename Fn>
  void ForEachHostedOperator(const Fn& fn) const {
    for (const auto& [q, hq] : queries_) {
      for (ExecNode* e : hq.pump) fn(hq.graph->op(e->op_id()), q);
    }
  }
  /// Tick start: controller BeginTick + uncharged window-pump wakeups.
  void BeginTick();
  /// Tick end: checkpoint capture (only once the pump has quiesced, so
  /// `capture` is DriveTick's), result-SIC dissemination, Decide.
  void DecideTick(bool capture);
  void TickerLoop();
  void WakeSourcesIfDrainedLocked();

  ServerOptions options_;
  Clock* clock_;
  Scheduler sched_;

  mutable std::mutex mu_;  // site lock (IB, pool, controller, stamping)
  std::condition_variable source_cv_;
  SicStamper stamper_;
  ServerStats stats_;
  ShedController ctl_;
  InputBuffer ib_;
  BatchPool pool_;
  std::map<QueryId, SicAccount> results_;
  SimTime busy_until_ = 0;
  bool source_gate_closed_ = false;
  /// Batch popped from the IB whose downstream push blocked; admission
  /// accounting happens only once it lands.
  std::optional<Batch> staged_;

  std::map<QueryId, HostedQuery> queries_;
  std::unique_ptr<IngressTask> ingress_;

  std::atomic<bool> stop_flag_{false};
  bool started_ = false;
  SimTime next_tick_ = 0;
  std::thread ticker_;
};

}  // namespace themis

#endif  // THEMIS_SERVER_SERVER_PIPELINE_H_
