// Drives a churn scenario (workload/churn_scenario.h) on an Fsps: the
// scale scenario's staggered query arrivals interleaved with the
// seed-derived topology schedule — crash waves, restores, link flaps and
// drift — all replayed through the TopologyPlan control plane
// (Fsps::PlanTopology, one plan per wave) between run segments, the only
// legal place for control-plane mutation on a sharded engine. The result is
// deterministic: bit-identical run-to-run at any fixed shard count, which CI
// checks by byte-diffing two bench_churn_federation runs. Different shard
// counts may differ, because crash re-placement is shard-scoped.
#ifndef THEMIS_FEDERATION_CHURN_FEDERATION_H_
#define THEMIS_FEDERATION_CHURN_FEDERATION_H_

#include <memory>

#include "federation/scale_federation.h"
#include "workload/churn_scenario.h"

namespace themis {

/// Deterministic aggregate outcome of one churn run: the scale result plus
/// the dynamic-topology counters.
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

/// Builds the Fsps for the scenario's base federation (cluster-aligned
/// shard pinning, LAN/WAN latencies, derived cpu speeds); `base.shards`
/// sets the shard count.
std::unique_ptr<Fsps> MakeChurnFederation(const ChurnScenario& scenario,
                                          FspsOptions base = {});

/// Replays arrivals and topology events in timestamp order, runs `measure`
/// more simulated time past the last of either, and returns the aggregate
/// result. `fsps` must come from MakeChurnFederation for the same scenario
/// and not have run yet.
ChurnRunResult RunChurnScenario(Fsps* fsps, const ChurnScenario& scenario,
                                SimDuration measure = Seconds(10));

}  // namespace themis

#endif  // THEMIS_FEDERATION_CHURN_FEDERATION_H_
