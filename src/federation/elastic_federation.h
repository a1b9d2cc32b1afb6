// Drives the full elastic stack end to end: a churn + burst scenario
// (crash waves, flapping and drifting WAN links, 10x load spikes) with
// diurnal source modulation layered on top, an autoscaler ticking between
// run segments, and every topology mutation — the scenario's schedule and
// the autoscaler's decisions alike — flowing through the TopologyPlan
// control plane. This is the workload bench_elastic_federation measures:
// the federation must track a load curve that swings through both
// autoscaler thresholds per diurnal period while the churn schedule keeps
// knocking nodes out from under it.
//
// Determinism: the run is bit-identical run-to-run at any fixed shard
// count. Different shard counts may diverge from each other (re-balances
// re-forward in-flight messages, and the landing epoch's width depends on
// the shard count); the determinism contract's elastic exception is
// documented at ParallelEngine::EnableElastic.
#ifndef THEMIS_FEDERATION_ELASTIC_FEDERATION_H_
#define THEMIS_FEDERATION_ELASTIC_FEDERATION_H_

#include <memory>

#include "federation/autoscaler.h"
#include "federation/churn_federation.h"
#include "workload/churn_scenario.h"

namespace themis {

/// Knobs of the composed elastic scenario.
struct ElasticScenarioOptions {
  /// Base churn overlay (crash waves, link flaps/drift) over the scale
  /// federation; `churn.scale.seed` seeds everything.
  ChurnScenarioOptions churn;
  /// Burst overlay (MakeChurnBurstScenario): probability that any given
  /// second runs at `burst_multiplier` times the base rate.
  double burst_prob = 0.10;
  double burst_multiplier = 10.0;
  /// Diurnal source modulation: triangle wave scaling every source's rate
  /// in [1 - amplitude, 1 + amplitude]. The period should span several
  /// autoscaler ticks so the loop can track the swing.
  double diurnal_amplitude = 0.5;
  SimDuration diurnal_period = Seconds(16);
  /// The control loop under test.
  AutoscalerOptions autoscaler;
  /// First autoscaler tick (leave ramp-up for rate estimation).
  SimTime autoscaler_start = Seconds(4);
};

/// \brief A fully materialised elastic scenario (pure data plus the
/// autoscaler configuration; seed-deterministic).
struct ElasticScenario {
  ElasticScenarioOptions options;
  /// Churn scenario with burst + diurnal knobs folded into the scale
  /// options (so every generated source model carries them).
  ChurnScenario churn;
};

/// Builds the composed scenario (deterministic in
/// `options.churn.scale.seed`).
ElasticScenario MakeElasticScenario(const ElasticScenarioOptions& options = {});

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
/// control plane on (FspsOptions::elastic) and the forward-looking
/// arrival-cost load signal. `base.shards` sets the shard count.
std::unique_ptr<Fsps> MakeElasticFederation(const ElasticScenario& scenario,
                                            FspsOptions base = {});

/// Replays query arrivals, topology events and autoscaler ticks in
/// timestamp order (events before arrivals at a tie, ticks after both: the
/// controller reacts to a state change, never races it), runs `measure`
/// more simulated time past the schedule, and returns the aggregate
/// result. `fsps` must come from MakeElasticFederation for the same
/// scenario and not have run yet.
ElasticRunResult RunElasticScenario(Fsps* fsps, const ElasticScenario& scenario,
                                    SimDuration measure = Seconds(10));

}  // namespace themis

#endif  // THEMIS_FEDERATION_ELASTIC_FEDERATION_H_
