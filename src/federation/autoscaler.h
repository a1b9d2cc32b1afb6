// Autoscaler control loop for an elastic federation: every tick it reads
// the forward-looking load signal (per-node offered load — arrival rate x
// measured per-tuple cost), compares federation utilization against grow /
// shrink thresholds with hysteresis, and commits its decision through one
// TopologyPlan — node joins wired with LAN links to their cluster's peers,
// decommissions of its own previously-added nodes, and a shard re-balance
// whenever the action (or plain load skew) warrants one.
//
// The loop is deliberately simple — threshold + hysteresis, the shape every
// production autoscaler starts from — because the interesting part is what
// it exercises underneath: mid-run AddNode, crash-as-decommission,
// restore-as-regrow and group-aware re-balancing, all through the same
// control-plane API a human operator would script.
#ifndef THEMIS_FEDERATION_AUTOSCALER_H_
#define THEMIS_FEDERATION_AUTOSCALER_H_

#include <vector>

#include "common/status.h"
#include "federation/fsps.h"
#include "workload/scale_scenario.h"

namespace themis {

/// Control-loop knobs; the elastic bench tunes the shrink threshold so its
/// diurnal + burst load swings through both thresholds per diurnal period.
/// The rest of the loop is fixed: grow above 85% utilization, act after 2
/// consecutive out-of-band ticks, grow by 2 nodes, shrink by 1, and stage a
/// shard re-balance with every action or when shard load skews past 1.5x.
struct AutoscalerOptions {
  /// First tick of a replayed run (ReplayScenario); leaves ramp-up time
  /// for rate estimation.
  SimTime first_tick = Seconds(4);
  /// Decision cadence; ticks run between RunFor segments.
  SimDuration tick_interval = Seconds(2);
  /// Shrink when utilization (offered busy-time / live capacity over the
  /// trailing STW) stays below this (only nodes this autoscaler added are
  /// decommissioned; the base federation is never shrunk below its initial
  /// size).
  double shrink_utilization = 0.35;
  /// Hard ceiling on autoscaler-added nodes (0 = unlimited).
  int max_added_nodes = 0;
};

/// Counters of one autoscaler's lifetime (reported by the elastic bench).
struct AutoscalerStats {
  uint64_t ticks = 0;
  uint64_t grow_actions = 0;
  uint64_t shrink_actions = 0;
  uint64_t nodes_added = 0;         ///< fresh joins (AddNode)
  uint64_t nodes_restored = 0;      ///< re-grown from the decommission pool
  uint64_t nodes_decommissioned = 0;
  uint64_t rebalances_requested = 0;
};

/// \brief Threshold + hysteresis autoscaler over one Fsps.
class Autoscaler {
 public:
  /// `scenario` supplies the topology template: cluster membership (group
  /// map for re-balances, joins go to the loaded cluster), LAN latency for
  /// wiring joins, and the node-count floor. The Fsps must be elastic
  /// (FspsOptions::elastic): the offered load the loop reads is only
  /// tracked there.
  Autoscaler(Fsps* fsps, const ScaleScenario& scenario,
             AutoscalerOptions options = {});

  /// One control decision; call between RunFor segments. Reads the load
  /// signal, updates hysteresis, and commits at most one TopologyPlan.
  Status Tick();

  const AutoscalerOptions& options() const { return options_; }
  const AutoscalerStats& stats() const { return stats_; }
  /// Offered busy-time of live nodes / their capacity, over the STW (0
  /// with no live node) — the signal Tick() judges.
  double Utilization(SimTime now) const;
  /// Utilization the last Tick() observed.
  double last_utilization() const { return last_utilization_; }
  /// Cluster of every node, base + autoscaler-added (the re-balance group
  /// map; also used by tests to pin join placement).
  const std::vector<int>& cluster_of_node() const { return cluster_of_node_; }

 private:
  /// Cluster with the highest live offered load (joins go where demand is).
  int BusiestCluster(SimTime now);
  /// Max-shard-load / mean-shard-load (1 when balanced; 0 when idle).
  double ShardSkew(SimTime now);

  Fsps* fsps_;
  AutoscalerOptions options_;
  int clusters_;
  SimDuration lan_latency_;
  SimDuration stw_;
  std::vector<int> cluster_of_node_;
  /// Nodes this autoscaler added, in add order. Shrink decommissions from
  /// this pool only (never the base federation) and grow restores from its
  /// crashed members before adding fresh nodes.
  std::vector<NodeId> added_;
  std::vector<NodeId> decommissioned_;  ///< stack: most recent first out
  int grow_streak_ = 0;
  int shrink_streak_ = 0;
  double last_utilization_ = 0.0;
  AutoscalerStats stats_;
};

}  // namespace themis

#endif  // THEMIS_FEDERATION_AUTOSCALER_H_
