// Drives the full elastic stack end to end: a churn scenario (crash waves,
// flapping and drifting WAN links) whose scale options carry §7.4 bursts
// and a diurnal source swing, with an autoscaler ticking between run
// segments. The one replay loop (ReplayScenario, federation/
// scale_federation.h, which documents the order at one instant) commits
// the scenario's schedule and the autoscaler's decisions alike through the
// TopologyPlan control plane. This is the workload bench_elastic_federation
// measures: the federation must track a load curve that swings through
// both autoscaler thresholds per diurnal period while the churn schedule
// keeps knocking nodes out from under it.
//
// Determinism: the run is bit-identical run-to-run at any fixed shard
// count. Different shard counts may diverge from each other, as any run
// outside the static scale scenario may (sim/parallel_engine.h): a
// re-balance is a no-op at one shard, and a crash re-places orphans only
// within the crashed node's shard. A re-balance itself delays nothing —
// every timer and in-flight delivery keeps its deadline on its node's new
// shard (the migration rule, documented at Network::SetShardMap).
#ifndef THEMIS_FEDERATION_ELASTIC_FEDERATION_H_
#define THEMIS_FEDERATION_ELASTIC_FEDERATION_H_

#include <memory>

#include "federation/autoscaler.h"
#include "federation/churn_federation.h"
#include "workload/churn_scenario.h"

namespace themis {

/// Aggregate outcome of one elastic run.
struct ElasticRunResult {
  ChurnRunResult churn;        ///< scale result + churn counters
  AutoscalerStats autoscaler;
  uint64_t nodes_added = 0;    ///< Fsps counter: mid-run joins committed
  uint64_t rebalances = 0;     ///< Fsps counter: re-balances committed
  uint64_t migrated_nodes = 0; ///< nodes whose shard changed, summed
  double final_utilization = 0.0;
  int final_live_nodes = 0;
};

/// Builds the Fsps for the scenario: MakeChurnFederation with the elastic
/// control plane on (FspsOptions::elastic, which also ranks nodes by the
/// forward-looking arrival-cost load signal) and kSicAware re-placement.
/// `base.shards` sets the shard count.
std::unique_ptr<Fsps> MakeElasticFederation(const ChurnScenario& scenario,
                                            FspsOptions base = {});

/// Replays the scenario with an Autoscaler built from `options` ticking
/// from options.first_tick through the `measure` window past the schedule,
/// and returns the aggregate result. `fsps` must come from
/// MakeElasticFederation for the same scenario and not have run yet.
ElasticRunResult RunElasticScenario(Fsps* fsps, const ChurnScenario& scenario,
                                    const AutoscalerOptions& options,
                                    SimDuration measure = Seconds(10));

}  // namespace themis

#endif  // THEMIS_FEDERATION_ELASTIC_FEDERATION_H_
