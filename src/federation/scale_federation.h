// Assembles and drives a federation-scale deployment (workload/
// scale_scenario.h) on an Fsps: WAN-of-LANs topology, cluster-aligned shard
// pinning for the parallel engine, staggered query arrivals between run
// segments, and a deterministic aggregate result — the figure output of
// bench_scale_federation, byte-diffed in CI to pin engine determinism.
//
// ReplayScenario below is the one replay loop of the federation runners:
// the scale runner is a replay with no topology events, the churn runner
// (federation/churn_federation.h) adds the seed-derived event schedule, and
// the elastic runner (federation/elastic_federation.h) adds autoscaler
// ticks on top.
#ifndef THEMIS_FEDERATION_SCALE_FEDERATION_H_
#define THEMIS_FEDERATION_SCALE_FEDERATION_H_

#include <memory>
#include <vector>

#include "federation/fsps.h"
#include "workload/churn_scenario.h"
#include "workload/scale_scenario.h"
#include "workload/workloads.h"

namespace themis {

class Autoscaler;

/// Deterministic aggregate outcome of one scale-scenario run. Every field
/// is a pure function of (scenario, FspsOptions) — never of wall-clock or
/// thread interleaving — which is what the determinism tests and the CI
/// byte-diff assert.
struct ScaleRunResult {
  uint64_t tuples_received = 0;
  uint64_t tuples_processed = 0;
  uint64_t tuples_shed = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t events = 0;        ///< engine events executed
  double mean_sic = 0.0;      ///< mean final SIC over queries
  double jain = 0.0;          ///< Jain's index over final SICs
  std::vector<double> final_sics;  ///< per-query, query-id order
};

/// Deterministic aggregate outcome of one replay: the scale result plus
/// the dynamic-topology counters (all zero on a static federation).
struct ChurnRunResult {
  ScaleRunResult scale;
  uint64_t crashes = 0;
  uint64_t restores = 0;
  uint64_t latency_updates = 0;
  uint64_t replaced_fragments = 0;
  uint64_t dropped_queries = 0;    ///< force-undeployed at crash time
  uint64_t skipped_arrivals = 0;   ///< arrivals with no live host
  uint64_t batches_dropped_dead = 0;
  uint64_t tuples_dropped_dead = 0;
};

/// Builds an Fsps for `scenario` on top of `base` options: adds
/// `scenario.options.nodes` nodes with cluster-aligned shard pinning
/// (cluster c -> shard c * shards / clusters, so LAN links never cross
/// shards and the lookahead is the WAN latency), applies the LAN/WAN
/// latencies, and derives node cpu_speed from the scenario's aggregate
/// source rate and overload target. `base.shards` sets the shard count.
std::unique_ptr<Fsps> MakeScaleFederation(const ScaleScenario& scenario,
                                          FspsOptions base = {});

/// \brief Replays a scenario on `fsps`, which must come from
/// MakeScaleFederation for the same scenario and not have run yet.
///
/// Three streams — query arrivals, topology `events` (both sorted by time)
/// and, when `autoscaler` is given, its ticks from
/// AutoscalerOptions::first_tick every tick_interval — replay in timestamp
/// order, with the simulation run up to each instant in between (the only
/// legal place for control-plane mutation on a sharded engine). At one
/// instant: the instant's events commit first as one TopologyPlan (the
/// schedule generator emits waves, and a wave is one transition), then
/// the instant's arrivals deploy — onto the post-event topology, so a
/// query arriving at a crash instant never lands on the victim — then the
/// autoscaler ticks, reacting to the instant's state rather than racing
/// it. Ticks continue through the `measure` window that follows the last
/// arrival or event.
///
/// The final segment: without an autoscaler the run ends with
/// RunFor(measure); with one, it runs only the remainder past the last
/// tick, and only when it is positive (RunFor(0) is not a no-op: it runs
/// the events due at the current instant).
ChurnRunResult ReplayScenario(Fsps* fsps, const ScaleScenario& scenario,
                              const std::vector<ChurnEvent>& events,
                              SimDuration measure,
                              Autoscaler* autoscaler = nullptr);

/// Replays the scenario's arrival waves with no topology events, runs
/// `measure` more simulated time past the last arrival, and returns the
/// aggregate result (see ReplayScenario).
ScaleRunResult RunScaleScenario(Fsps* fsps, const ScaleScenario& scenario,
                                SimDuration measure = Seconds(15));

/// \brief Deploys a scale scenario's queries one arrival at a time.
///
/// The per-cluster round-robin cursor skips crashed nodes, so arrivals
/// during an outage land on the cluster's live members; on a static
/// federation the first candidate is always live.
class ScaleDeployer {
 public:
  ScaleDeployer(Fsps* fsps, const ScaleScenario& scenario);

  /// Builds, places and deploys one query; call with `spec.arrival <=
  /// fsps->now()`. Returns false when every candidate node of the target
  /// cluster(s) is crashed and the arrival is skipped.
  bool DeployQuery(const ScaleQuerySpec& spec);

  /// Arrivals skipped because no live node could host them.
  uint64_t skipped_arrivals() const { return skipped_arrivals_; }

 private:
  /// Next live node of `cluster` in round-robin order, or kInvalidId when
  /// the whole cluster is down.
  NodeId NextLiveNode(int cluster);

  Fsps* fsps_;
  WorkloadFactory factory_;
  const ScaleScenarioOptions options_;
  std::vector<std::vector<NodeId>> cluster_nodes_;
  std::vector<size_t> cursor_;
  uint64_t skipped_arrivals_ = 0;
};

/// Aggregates the deterministic outcome of a finished run.
ScaleRunResult CollectScaleResult(Fsps* fsps);

}  // namespace themis

#endif  // THEMIS_FEDERATION_SCALE_FEDERATION_H_
