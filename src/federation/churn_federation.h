// Drives a churn scenario (workload/churn_scenario.h) on an Fsps: the
// scale scenario's staggered query arrivals interleaved with the
// seed-derived topology schedule — crash waves, restores, link flaps and
// drift — all committed through the TopologyPlan control plane by the one
// replay loop (ReplayScenario, federation/scale_federation.h, which also
// documents the order at one instant). The result is deterministic:
// bit-identical run-to-run at any fixed shard count, which CI checks by
// byte-diffing two bench_churn_federation runs. Different shard counts may
// differ, because crash re-placement is shard-scoped.
#ifndef THEMIS_FEDERATION_CHURN_FEDERATION_H_
#define THEMIS_FEDERATION_CHURN_FEDERATION_H_

#include <memory>

#include "federation/scale_federation.h"
#include "workload/churn_scenario.h"

namespace themis {

/// Builds the Fsps for the scenario's base federation (cluster-aligned
/// shard pinning, LAN/WAN latencies, derived cpu speeds); `base.shards`
/// sets the shard count.
std::unique_ptr<Fsps> MakeChurnFederation(const ChurnScenario& scenario,
                                          FspsOptions base = {});

/// Replays arrivals and topology events, runs `measure` more simulated
/// time past the last of either, and returns the aggregate result (a
/// ChurnRunResult, declared beside the replay). `fsps` must come from
/// MakeChurnFederation for the same scenario and not have run yet.
ChurnRunResult RunChurnScenario(Fsps* fsps, const ChurnScenario& scenario,
                                SimDuration measure = Seconds(10));

}  // namespace themis

#endif  // THEMIS_FEDERATION_CHURN_FEDERATION_H_
