// Assembles and drives a federation-scale deployment (workload/
// scale_scenario.h) on an Fsps: WAN-of-LANs topology, cluster-aligned shard
// pinning for the parallel engine, staggered query arrivals between run
// segments, and a deterministic aggregate result — the figure output of
// bench_scale_federation, byte-diffed in CI to pin engine determinism.
#ifndef THEMIS_FEDERATION_SCALE_FEDERATION_H_
#define THEMIS_FEDERATION_SCALE_FEDERATION_H_

#include <memory>
#include <vector>

#include "federation/fsps.h"
#include "workload/scale_scenario.h"
#include "workload/workloads.h"

namespace themis {

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

/// Builds an Fsps for `scenario` on top of `base` options: adds
/// `scenario.options.nodes` nodes with cluster-aligned shard pinning
/// (cluster c -> shard c * shards / clusters, so LAN links never cross
/// shards and the lookahead is the WAN latency), applies the LAN/WAN
/// latencies, and derives node cpu_speed from the scenario's aggregate
/// source rate and overload target. `base.shards` sets the shard count.
std::unique_ptr<Fsps> MakeScaleFederation(const ScaleScenario& scenario,
                                          FspsOptions base = {});

/// Deploys the scenario's queries in their arrival waves (running the
/// simulation between waves), runs `measure` more simulated time past the
/// last arrival, and returns the aggregate result. `fsps` must come from
/// MakeScaleFederation for the same scenario and not have run yet.
ScaleRunResult RunScaleScenario(Fsps* fsps, const ScaleScenario& scenario,
                                SimDuration measure = Seconds(15));

/// \brief Deploys a scale scenario's queries one arrival at a time.
///
/// Factored out of RunScaleScenario so the churn runner
/// (federation/churn_federation.h) interleaves arrivals with topology
/// events through the exact same placement logic. The per-cluster
/// round-robin cursor skips crashed nodes, so arrivals during an outage
/// land on the cluster's live members; on a static federation the
/// behaviour is byte-identical to the pre-deployer code path.
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

/// Aggregates the deterministic outcome of a finished run (the tail of
/// RunScaleScenario, reused by the churn runner).
ScaleRunResult CollectScaleResult(Fsps* fsps);

}  // namespace themis

#endif  // THEMIS_FEDERATION_SCALE_FEDERATION_H_
