// A THEMIS node (Fig. 5): input buffer, operator executor, overload detector
// and tuple shedder, driven by the discrete-event queue. One Node models one
// autonomous FSPS site (§3).
#ifndef THEMIS_NODE_NODE_H_
#define THEMIS_NODE_NODE_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/time_types.h"
#include "node/input_buffer.h"
#include "node/shed_controller.h"
#include "node/sic_stamper.h"
#include "runtime/batch_pool.h"
#include "runtime/checkpoint.h"
#include "runtime/query_graph.h"
#include "shedding/shedder.h"
#include "sic/stw_tracker.h"
#include "sim/event_queue.h"
#include "sim/timer.h"

namespace themis {

/// Routing callbacks a node uses to hand batches and results back to the
/// federation layer (which owns the network and the query coordinators).
class BatchRouter {
 public:
  virtual ~BatchRouter() = default;
  /// Ships a derived batch produced on `from` to the node hosting
  /// `(query, to_fragment)`.
  virtual void RouteBatch(NodeId from, QueryId query, FragmentId to_fragment,
                          Batch batch) = 0;
  /// Delivers result tuples emitted by the query's root operator.
  virtual void DeliverResult(QueryId query, SimTime now,
                             const std::vector<Tuple>& results) = 0;
};

/// Node configuration; defaults reproduce the paper's settings (§7).
struct NodeOptions {
  /// Tuple shedder invocation period (paper default: 250 ms).
  SimDuration shed_interval = Millis(250);
  /// Source time window used for Eq. (1) SIC stamping (paper default: 10 s).
  SimDuration stw = Seconds(10);
  /// Relative CPU speed; operator costs divide by this (heterogeneity).
  double cpu_speed = 1.0;
  /// Watermark lag for window closing (late-data tolerance).
  SimDuration window_grace = Millis(200);
  /// Track per-query tuple arrival rates at ingress (feeds OfferedLoadUs —
  /// the forward-looking placement/autoscaler signal). Off by default: the
  /// tracker allocates on the data-plane hot path, and the historical
  /// benches pin allocs/tuple. Fsps enables it on elastic federations.
  bool track_arrivals = false;
};

/// Per-node counters exposed to experiments and tests: the shared shed-loop
/// counters plus the crash model's.
struct NodeStats : ShedStats {
  uint64_t batches_dropped_dead = 0;  ///< in-flight arrivals while crashed
  uint64_t tuples_dropped_dead = 0;   ///< incl. the buffer drained at crash
};

/// \brief One simulated FSPS node hosting query fragments.
class Node {
 public:
  /// \param shedder shedding policy (BALANCE-SIC or random); owned
  Node(NodeId id, NodeOptions options, EventQueue* queue, BatchRouter* router,
       std::unique_ptr<Shedder> shedder);

  /// Registers a fragment of `graph` as hosted here. The graph must outlive
  /// the node (or be removed first with UnhostQuery).
  void HostFragment(const QueryGraph* graph, FragmentId fragment);

  /// Removes every fragment of query `q` hosted here: drops its buffered
  /// batches and all per-query state. Safe to call for unknown queries.
  void UnhostQuery(QueryId q);

  /// Starts the periodic overload-detector/shedder timer.
  void Start();

  /// Moves the node to another shard's event queue (a re-balance; the
  /// migration rule is documented at Network::SetShardMap). Only legal
  /// between engine runs. Both timers (shed tick, pending processing event)
  /// move: live ones re-arm on the new queue at their original deadlines,
  /// so the phase is kept (see sim/timer.h). In-flight deliveries to the
  /// node move with the network's map swap.
  void MigrateQueue(EventQueue* queue) {
    shed_timer_.MoveTo(queue);
    processing_.MoveTo(queue);
  }
  EventQueue* queue() const { return shed_timer_.queue(); }

  /// Simulates a node failure: every buffered batch drains back to the
  /// batch pool, further arrivals are dropped at ingress (in-flight batches
  /// addressed here die on the wire), and the shedder timer goes quiet.
  /// The object stays alive — already-scheduled events fire harmlessly —
  /// and Restore() brings the node back empty.
  void Crash();
  /// Rejoins a crashed node: arrivals are accepted again and the shedder
  /// timer is re-armed (phase restarts at restore time). Hosted fragments
  /// do not return automatically; the federation re-places them.
  void Restore();
  bool alive() const { return alive_; }

  /// Ingress for both source batches and derived batches from other nodes.
  /// Source batches (tuples with sic == 0 destined to a source-bound
  /// operator) are stamped with Eq. (1) SIC values before buffering.
  void Receive(Batch batch);

  /// Coordinator dissemination of a query's current result SIC (§5.2).
  void UpdateQuerySic(QueryId query, double sic) {
    ctl_.UpdateQuerySic(query, sic);
  }

  /// Enables (or re-tunes) periodic operator-state checkpoints: every
  /// `config.cadence` the shed tick captures each hosted operator whose
  /// dirt exceeds `config.error_bound` into this node's store. Capture does
  /// zero simulated work, so the event schedule is unchanged. Call before
  /// Start() for a regular capture grid.
  void ConfigureCheckpoints(const CheckpointConfig& config) {
    ctl_.ConfigureCheckpoints(&ckpt_store_, config);
  }
  /// This node's image store. Deliberately survives Crash()/Restore() —
  /// it models a durable backup, which is what re-placement restores from.
  CheckpointStore* checkpoint_store() { return &ckpt_store_; }

  NodeId id() const { return id_; }
  const NodeStats& stats() const { return stats_; }
  const NodeOptions& options() const { return options_; }
  const InputBuffer& input_buffer() const { return ib_; }
  /// Batch free-list of this node. Producers targeting this node (sources,
  /// upstream fragments) may Acquire() from it so batch churn recycles.
  BatchPool* batch_pool() { return &pool_; }
  /// Latest capacity estimate c (tuples per shedding interval).
  size_t CurrentCapacity() const {
    return ctl_.cost_model().EstimateCapacity(options_.shed_interval);
  }
  /// Queries with at least one hosted fragment.
  std::vector<QueryId> HostedQueries() const;
  /// Latest disseminated result SIC of `q`; empty before the first update.
  std::optional<double> known_query_sic(QueryId q) const {
    return ctl_.query_sic(q);
  }
  /// SIC mass accepted for processing for query `q` over the trailing STW
  /// (diagnostics; the shedder sees this scaled by the efficiency estimate).
  double AcceptedSic(QueryId q, SimTime now) {
    return ctl_.AcceptedSic(q, now);
  }
  /// Forward-looking load signal (an elastic federation's): the work in
  /// simulated µs the trailing-STW arrival mass of query `q` implies at the
  /// measured per-tuple cost (which already reflects this node's CPU speed).
  /// 0 unless NodeOptions::track_arrivals is set.
  double OfferedLoadUs(QueryId q, SimTime now);
  /// OfferedLoadUs summed over every query with recent arrivals.
  double OfferedLoadUs(SimTime now);
  /// Cumulative SIC mass admitted for query `q` since the node started.
  /// Used by the server oracle tests/bench to compare the live runtime
  /// against this discrete-event execution.
  double AcceptedSicTotal(QueryId q) const {
    return ctl_.AcceptedSicTotal(q);
  }
  /// Cumulative tuples admitted for query `q` since the node started.
  uint64_t AcceptedTuplesTotal(QueryId q) const {
    return ctl_.AcceptedTuplesTotal(q);
  }

 private:
  /// Tuples that arrived for query `q` over the trailing STW — the *offered*
  /// load, counted at ingress before admission or shedding (so an overloaded
  /// node's signal reflects demand, not what survived the shedder). 0 for
  /// unknown queries and while crashed (a dead node observes nothing).
  double ArrivalTuplesStw(QueryId q, SimTime now);
  void ScheduleProcessing();
  /// Processing-timer callback: admits and executes the next buffered batch.
  void ProcessNext();
  /// Executes one admitted batch through the hosted part of its query graph.
  /// Returns the simulated work in microseconds.
  double ExecuteBatch(const Batch& batch);
  /// Per-query hosted state, flattened for O(1) per-batch access (query and
  /// operator ids are small dense ints). `graph == nullptr` means the query
  /// is not hosted here.
  struct HostedState {
    const QueryGraph* graph = nullptr;
    /// Operators of hosted fragments in pump order (fragments ascending,
    /// topologically sorted within a fragment).
    std::vector<OperatorId> pump_ops;
    /// hosted_op[op] != 0 iff `op` runs on this node; indexed by OperatorId.
    /// A fragment is hosted iff its operators are.
    std::vector<char> hosted_op;
    /// Trailing-STW arrival (offered-load) mass, fed at ingress before
    /// admission; the arrival-rate x cost placement signal reads it. Null
    /// until the first tracked arrival (see NodeOptions::track_arrivals).
    std::unique_ptr<StwTracker> arrivals;
  };

  HostedState* hosted_state(QueryId q) {
    if (q < 0 || static_cast<size_t>(q) >= hosted_.size()) return nullptr;
    return hosted_[q].graph != nullptr ? &hosted_[q] : nullptr;
  }

  /// Advances windows of all hosted operators of `hs`'s hosted fragments,
  /// routing any emissions. Adds incurred work to `*work_us` if non-null.
  void PumpGraph(const HostedState& hs, double* work_us);
  /// Routes tuples emitted by `op` along its out-edges; local consumers
  /// ingest immediately (cost added to *work_us), remote fragments go
  /// through the router, root emissions become results.
  void RouteOutputs(const HostedState& hs, OperatorId op,
                    const std::vector<Tuple>& outputs, double* work_us);
  /// Builds a pooled batch addressed to `(query, op, port)` from `tuples`.
  Batch BuildBatch(QueryId query, OperatorId op, int port, SimTime created,
                   const std::vector<Tuple>& tuples);
  /// Shed-timer callback: the periodic §6 detector/shedder tick.
  void OnShedTimer();
  SimTime Watermark() const;

  NodeId id_;
  NodeOptions options_;
  BatchRouter* router_;
  // The shed-tick chain: it stops re-arming itself while crashed, and
  // Restore() must not start a second chain when the last pre-crash tick is
  // still armed. Its queue is the node's queue.
  Timer<Node, &Node::OnShedTimer> shed_timer_;
  // The processing chain: armed while a ProcessNext event is pending.
  Timer<Node, &Node::ProcessNext> processing_;

  NodeStats stats_;
  // The shed loop: admission accounting, cost model, detector, shedder.
  ShedController ctl_;
  InputBuffer ib_;
  BatchPool pool_;
  // Scratch buffer reused by PumpGraph for operator emissions; never holds
  // data across events, only avoids a fresh vector per pumped operator.
  std::vector<Tuple> scratch_outputs_;

  // Hosted state, indexed by QueryId (dense; entries with a null graph are
  // not hosted). Iteration in index order is ascending-query order, which
  // the deterministic event sequence and every per-query sum rely on.
  std::vector<HostedState> hosted_;

  // Eq. (1) stamping state (per-(query, source) rate estimates), shared
  // with the real-time server ingress via SicStamper.
  SicStamper stamper_;
  // Image store the shed loop captures into (see ConfigureCheckpoints).
  CheckpointStore ckpt_store_;

  // Processing bookkeeping.
  SimTime busy_until_ = 0;
  bool started_ = false;
  bool alive_ = true;
};

}  // namespace themis

#endif  // THEMIS_NODE_NODE_H_
