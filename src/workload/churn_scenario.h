// Churn scenario generator: the dynamic-topology counterpart of
// workload/scale_scenario.h. A ChurnScenario is a ScaleScenario (WAN-of-LANs
// federation plus staggered query arrivals) overlaid with a deterministic,
// seed-derived schedule of topology events — crash waves with later
// restores, flapping WAN links, and a slow diurnal-style latency drift —
// the PlanetLab conditions the paper's static experiments abstract away.
//
// Like the scale scenario, this is pure data: the federation layer
// (federation/churn_federation.h) replays the schedule through the Fsps
// control plane (TopologyPlan Crash / Restore / SetLinkLatency) between
// run segments. The generator enforces the invariants the runtime needs:
// every cluster keeps a live majority through every wave (so orphaned
// fragments always find a same-shard home), every emitted latency is
// strictly positive (so the sharded engine's epoch width never collapses),
// and the drift waveform is a pure-integer triangle wave, not libm sin, so
// the schedule is bit-identical across platforms.
#ifndef THEMIS_WORKLOAD_CHURN_SCENARIO_H_
#define THEMIS_WORKLOAD_CHURN_SCENARIO_H_

#include <vector>

#include "common/time_types.h"
#include "runtime/ids.h"
#include "workload/scale_scenario.h"

namespace themis {

/// Knobs of the churn overlay; defaults give the mix used by
/// bench_churn_federation. `scale.seed` also seeds the churn schedule. The
/// rest of the overlay is fixed (churn_scenario.cc): waves start 5 s apart,
/// every cluster keeps at least half its nodes alive, 3 WAN links flap
/// between their base latency and 4x it every 3 s, and 6 WAN links drift
/// along a 16 s triangle wave of relative amplitude 0.5, re-sampled every
/// 2 s.
struct ChurnScenarioOptions {
  ScaleScenarioOptions scale;  ///< base federation + query arrivals

  /// First churn event; leave some quiet ramp-up so queries deploy and
  /// rates estimate before the first failure.
  SimTime churn_start = Seconds(4);
  /// Schedule horizon: no churn event is generated past this point.
  SimTime churn_horizon = Seconds(24);

  // Crash waves: `crashes_per_wave` live nodes fail together and rejoin
  // `downtime` later.
  int crash_waves = 3;
  int crashes_per_wave = 2;
  SimDuration downtime = Seconds(3);
};

enum class ChurnEventKind {
  kCrash,           ///< node `a` fails
  kRestore,         ///< node `a` rejoins
  kSetLinkLatency,  ///< link (a, b) moves to `latency`
};

/// One scheduled topology event.
struct ChurnEvent {
  SimTime time = 0;
  ChurnEventKind kind = ChurnEventKind::kCrash;
  NodeId a = kInvalidId;
  NodeId b = kInvalidId;
  SimDuration latency = 0;  ///< kSetLinkLatency only
};

/// \brief A fully materialised churn scenario (pure data, seed-
/// deterministic). `events` is sorted by time; ties keep generation order.
struct ChurnScenario {
  ChurnScenarioOptions options;
  ScaleScenario base;
  std::vector<ChurnEvent> events;
};

/// Builds the scenario from `options` (deterministic in
/// `options.scale.seed`).
ChurnScenario MakeChurnScenario(const ChurnScenarioOptions& options = {});

}  // namespace themis

#endif  // THEMIS_WORKLOAD_CHURN_SCENARIO_H_
