// The THEMIS federated stream processing system: owns the simulated cluster
// (event queue, network, nodes), deployed query graphs, per-query
// coordinators and source drivers. This is the main entry point of the
// library — see examples/quickstart.cc.
#ifndef THEMIS_FEDERATION_FSPS_H_
#define THEMIS_FEDERATION_FSPS_H_

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "federation/coordinator.h"
#include "federation/placement.h"
#include "federation/topology_plan.h"
#include "metrics/recovery_tracker.h"
#include "node/node.h"
#include "runtime/checkpoint.h"
#include "runtime/query_graph.h"
#include "shedding/balance_sic_shedder.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/parallel_engine.h"
#include "workload/sources.h"

namespace themis {

/// Which shedder every node runs. kBalanceSic is the paper's contribution,
/// kRandom its baseline; the rest are extended baselines for the comparison
/// bench (see shedding/baseline_shedders.h).
enum class SheddingPolicy {
  kBalanceSic,
  kRandom,
  kDropNewest,
  kDropOldest,
  kProportional,
};

/// Policy name as printed in reports ("balance-sic", "random", ...).
std::string SheddingPolicyName(SheddingPolicy policy);

/// System-wide configuration; defaults reproduce the paper's set-up (§7).
struct FspsOptions {
  SheddingPolicy policy = SheddingPolicy::kBalanceSic;
  BalanceSicOptions balance;               ///< BALANCE-SIC knobs (ablations)
  NodeOptions node;                        ///< template for AddNode()
  QueryCoordinator::Options coordinator;   ///< STW, update interval, ...
  SimDuration default_link_latency = Millis(5);  ///< Table 2 LAN star
  SimDuration source_link_latency = Millis(5);   ///< source -> ingest node
  uint64_t seed = 42;
  /// Simulation shards of the conservative parallel engine.
  /// 1 (default) runs every event on the driver thread with no epoch
  /// machinery; >1 partitions nodes across `shards` worker threads
  /// synchronized in barrier epochs of the minimum cross-shard link
  /// latency. Results are bit-identical run-to-run at any fixed shard
  /// count; identity across shard counts is not promised (see
  /// sim/parallel_engine.h). All control-plane mutation — deploy/undeploy
  /// and every TopologyPlan, joins and re-balances included — stays
  /// between RunFor calls; link edits queue and apply at the next run
  /// boundary, where the epoch width is re-derived.
  int shards = 1;
  /// How a crash re-places orphaned fragments. The default keeps the
  /// PR 4 round-robin cursor byte-for-byte; kSicAware moves orphans to the
  /// least-overloaded live candidate (see federation/placement.h).
  ReplacementPolicy replacement = ReplacementPolicy::kRoundRobin;
  /// Elastic mode picks the per-node load signal that the autoscaler,
  /// kSicAware re-placement and the re-balancer (TopologyPlan::Rebalance)
  /// rank nodes by: forward-looking offered load (arrival rate x measured
  /// per-tuple cost), so an overloaded node that sheds hard no longer looks
  /// idle to the placer. Every node then tracks its arrivals at ingress.
  /// Otherwise the signal is the SIC mass a node admitted over the trailing
  /// STW, and nothing tracks arrivals. Joins after Start and re-balances
  /// are open to every federation either way.
  bool elastic = false;
  /// Recovery observability (metrics/recovery_tracker.h). When
  /// `recovery.enabled`, RunFor splits its run at the sampling cadence and
  /// feeds every deployed query's SIC into the tracker, and the churn
  /// control plane (crashes, restores, applied link edits) marks
  /// disturbances so dip depth and time-to-recover are measured per query.
  /// Disabled by default: zero overhead, zero RunFor re-segmentation, every
  /// pre-existing figure byte-identical.
  RecoveryTrackerOptions recovery;
  /// What a re-placed fragment's operator state looks like after a crash:
  /// empty (kReset, the default — the crashed node's state is gone), or
  /// restored from the crashed node's checkpoint store (kCheckpoint; see
  /// federation/placement.h).
  CrashStateMode crash_state = CrashStateMode::kReset;
  /// Operator-state checkpointing (runtime/checkpoint.h). When enabled,
  /// every node captures images of its hosted operators' state at the
  /// configured cadence (right after the shed-tick pump, so capture does
  /// zero simulated work and the event schedule is untouched), and
  /// crash_state = kCheckpoint restores re-placed fragments from those
  /// images. `error_bound` > 0 turns on approximate checkpointing: an
  /// operator whose accumulated ingested SIC since its last image is below
  /// the bound skips capture, trading bounded divergence for overhead.
  /// Off by default: zero captures, every pre-existing figure
  /// byte-identical.
  CheckpointConfig checkpoint;
};

/// Counters of the dynamic-topology control plane (node churn, link drift,
/// fragment re-placement); reported by the churn bench.
struct FspsChurnStats {
  uint64_t crashes = 0;
  uint64_t restores = 0;
  uint64_t latency_updates = 0;    ///< queued link-latency edits
  uint64_t replaced_fragments = 0; ///< orphans moved to live nodes
  uint64_t dropped_queries = 0;    ///< force-undeployed: no live candidates
  uint64_t nodes_added = 0;        ///< mid-run joins (AddNode after Start)
  uint64_t rebalances = 0;         ///< committed TopologyPlan::Rebalance ops
  uint64_t migrated_nodes = 0;     ///< nodes whose shard changed, summed
};

/// \brief A complete simulated FSPS deployment.
class Fsps : public BatchRouter {
 public:
  explicit Fsps(FspsOptions options = {});
  ~Fsps() override;

  // --- cluster construction -------------------------------------------------

  /// Auto shard assignment (round-robin over the engine's shards).
  static constexpr int kAutoShard = -1;

  /// Adds a processing node using the options template; returns its id.
  /// Convenience wrapper over the Result overload (aborts on the errors
  /// that overload reports; they are unreachable before Start()).
  NodeId AddNode();
  /// Adds a node with explicit options (heterogeneous capacities).
  NodeId AddNode(NodeOptions options);
  /// Adds a node pinned to simulation shard `shard` (multi-shard runs;
  /// topology-aware callers co-locate LAN clusters on one shard so only
  /// long WAN links cross shards and the epoch stays wide). `kAutoShard`
  /// round-robins node id over the shards.
  ///
  /// Before Start() the node simply joins. After Start() it joins the
  /// running federation: it starts immediately, its source link is queued
  /// for the next RunFor boundary, and the shard map grows in place.
  /// InvalidArgument for an out-of-range shard. Prefer staging joins on a
  /// TopologyPlan so they validate and commit with the rest of a
  /// transition.
  Result<NodeId> AddNode(NodeOptions options, int shard);

  Node* node(NodeId id);
  std::vector<NodeId> node_ids() const;
  /// Node ids currently alive (excludes crashed nodes); placement decisions
  /// on a dynamic federation should draw from this set.
  std::vector<NodeId> live_node_ids() const;
  bool node_alive(NodeId id) const;
  /// Simulation shard hosting node `id` (always 0 with shards == 1;
  /// unknown ids resolve to 0): the Network's map.
  int shard_of(NodeId id) const { return network_.ShardOf(id); }
  Network* network() { return &network_; }
  /// The engine owning the shard event queues; manual scheduling is only
  /// legal between RunFor calls.
  ParallelEngine* engine() { return engine_.get(); }
  /// Current simulated time (all shards agree between RunFor calls).
  SimTime now() const { return engine_->now(); }
  /// The configuration this federation was built with (read-only).
  const FspsOptions& options() const { return options_; }

  // --- query deployment -----------------------------------------------------

  /// Deploys `graph` with the given fragment placement. Every fragment must
  /// be mapped to an existing node.
  Status Deploy(std::unique_ptr<QueryGraph> graph,
                const std::map<FragmentId, NodeId>& placement);

  /// Creates a SourceDriver for every source binding of query `q`. `models`
  /// maps source ids to their models; bindings without an entry use
  /// `fallback`.
  Status AttachSources(QueryId q, const std::map<SourceId, SourceModel>& models,
                       const SourceModel& fallback = {});

  /// Removes a deployed query: stops its sources, drops its buffered batches
  /// on every hosting node and retires its coordinator. Queries can depart
  /// mid-run (§5: "queries' arrivals and departures").
  Status Undeploy(QueryId q);

  // --- dynamic topology (control plane; call between RunFor calls) ----------

  /// Returns a fresh mutation batch against this federation: the control
  /// plane for crashes, restores, link edits, joins and re-balances. Stage
  /// ops on it and commit with Apply(); see federation/topology_plan.h.
  TopologyPlan PlanTopology() { return TopologyPlan(this); }

  const FspsChurnStats& churn_stats() const { return churn_stats_; }

  /// Recovery tracker (inert unless options.recovery.enabled). Read it
  /// between RunFor calls for per-disturbance dip/MTTR reports.
  const RecoveryTracker& recovery_tracker() const { return recovery_; }

  // --- execution ------------------------------------------------------------

  /// Starts nodes, coordinators and sources (idempotent).
  void Start();
  /// Runs the simulation for `d` more simulated time.
  void RunFor(SimDuration d);

  // --- observation ----------------------------------------------------------

  std::vector<QueryId> query_ids() const;
  const QueryGraph* graph(QueryId q) const;
  QueryCoordinator* coordinator(QueryId q);
  /// Current result SIC of query `q` (Eq. 4 over the trailing STW).
  double QuerySic(QueryId q);
  /// Current result SIC of all deployed queries, in query-id order.
  std::vector<double> AllQuerySics();
  /// Aggregate shed/processed counters over all nodes.
  NodeStats TotalNodeStats() const;

  // BatchRouter:
  void RouteBatch(NodeId from, QueryId query, FragmentId to_fragment,
                  Batch batch) override;
  void DeliverResult(QueryId query, SimTime now,
                     const std::vector<Tuple>& results) override;

 private:
  friend class TopologyPlan;

  std::unique_ptr<Shedder> MakeShedder();
  /// Validates `plan`'s ops in order against a scratch topology (node
  /// count + liveness), then commits them in order via the *Now internals.
  /// See TopologyPlan for the atomicity contract.
  Status ApplyPlan(const TopologyPlan& plan);
  /// Validation half of ApplyPlan; mutates only the scratch vectors.
  Status ValidatePlanOp(const TopologyPlan::Op& op,
                        std::vector<char>* scratch_alive) const;
  /// The node-join check shared by AddNode(options, shard) and a staged
  /// TopologyPlan::AddNode: `shard` in range (or kAutoShard).
  Status ValidateAddNode(int shard) const;
  // Commit internals: the single-op bodies behind TopologyPlan.
  // Preconditions were validated; the remaining Status return is
  // Rebalance's commit-time check (see topology_plan.h).
  void CrashNodeNow(NodeId id);
  void RestoreNodeNow(NodeId id);
  void SetLinkLatencyNow(NodeId a, NodeId b, SimDuration latency);
  NodeId AddNodeNow(NodeOptions node_options, int shard);
  /// Shard re-balance (TopologyPlan::Rebalance). Computes group loads from
  /// the node load signal, packs groups onto shards with an LPT greedy
  /// (heaviest group first onto the least-loaded shard; ties break by
  /// ascending id, so the map is a pure function of the loads),
  /// checks the new map still admits a conservative schedule, then moves
  /// every timer and in-flight delivery whose node changed shard (the
  /// migration rule, documented at Network::SetShardMap).
  Status RebalanceNow(const std::vector<int>& group_of_node);
  /// Estimated wire size of a batch (tuple payloads + the 10-byte header).
  static size_t BatchBytes(const Batch& b);
  /// Moves query `q`'s fragments off `crashed` onto live nodes (same shard
  /// when sharded), or force-undeploys `q` when none exist.
  void ReplaceOrphans(QueryId q, NodeId crashed);
  /// Overload signal of node `id` for the kSicAware re-placement chooser
  /// and the re-balancer's group loads: offered load in busy-us on an
  /// elastic federation, else admitted SIC mass over the trailing STW. 0 for
  /// an idle or freshly restored node.
  double NodeLoadSignal(NodeId id, SimTime now);
  /// Feeds the current per-query SICs into the recovery tracker (no-op at a
  /// repeated instant; only called when options_.recovery.enabled).
  void SampleRecovery();
  /// Samples, then opens/coalesces a disturbance window in the tracker.
  void MarkRecoveryDisturbance(DisturbanceKind kind);
  /// Drains the network mutation queue and re-derives the sharded engine's
  /// lookahead over the live node set. Runs at every RunFor boundary.
  void ApplyTopologyMutations();
  /// 1/0 liveness flags indexed by NodeId (Network::MinCrossShardLatency).
  std::vector<char> AliveMask() const;

  FspsOptions options_;
  Rng rng_;
  // The engine owns the shard event queues; nodes, coordinators and sources
  // hold pointers into them, so it is declared first (destroyed last).
  std::unique_ptr<ParallelEngine> engine_;
  Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// A deployed query: its graph, the host of each fragment and its
  /// coordinator.
  struct DeployedQuery {
    std::unique_ptr<QueryGraph> graph;
    /// Indexed by FragmentId; kInvalidId where the graph has no fragment.
    std::vector<NodeId> node_of;
    std::unique_ptr<QueryCoordinator> coordinator;
  };
  /// The query `q` deployed here, or null.
  DeployedQuery* deployed(QueryId q) {
    return graph(q) != nullptr ? &queries_[q] : nullptr;
  }
  // Indexed by QueryId (entries with a null graph are free) and walked in
  // ascending id, which the deterministic event sequence relies on.
  std::vector<DeployedQuery> queries_;
  // Undeployed queries' coordinators and graphs are retired, not destroyed:
  // already-scheduled timer events and in-flight batches may still hold
  // pointers into them until the event queue drains past them.
  std::vector<std::unique_ptr<QueryCoordinator>> retired_coordinators_;
  std::vector<std::unique_ptr<QueryGraph>> retired_graphs_;
  std::vector<std::unique_ptr<SourceDriver>> sources_;
  bool started_ = false;
  // Dynamic-topology state: set by crash/restore/link edits, consumed by
  // ApplyTopologyMutations at the next RunFor boundary.
  bool topology_dirty_ = false;
  // Round-robin cursor spreading re-placed orphans over candidate nodes.
  size_t replacement_cursor_ = 0;
  // kSicAware projection: accepted-SIC load the orphans re-placed at the
  // current control-plane instant will bring to their new hosts. The live
  // signal lags by the STW smoothing, so without this projection every
  // orphan of a crash wave would herd onto the same least-loaded node.
  // Keyed to the instant: it resets as soon as simulated time advances and
  // the real signal starts catching up.
  SimTime inflight_load_at_ = -1;
  std::map<NodeId, double> inflight_load_;
  FspsChurnStats churn_stats_;
  // Recovery observability (inert when !options_.recovery.enabled).
  RecoveryTracker recovery_;
  // Next cadence sample instant; RunFor splits its run at these times so
  // the sampling grid is regular regardless of run segmentation.
  SimTime next_sample_due_ = 0;
};

}  // namespace themis

#endif  // THEMIS_FEDERATION_FSPS_H_
