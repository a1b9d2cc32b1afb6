#include "workload/churn_scenario.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace themis {

namespace {

// Crash waves start this far apart.
constexpr SimDuration kCrashInterval = Seconds(5);
// Every cluster keeps at least this fraction of its nodes alive at all
// times (rounded up, minimum 1): re-placement always has a same-shard
// candidate.
constexpr double kMinClusterAliveFraction = 0.5;
// Flapping links: WAN links that bounce between their base latency and
// kFlapMultiplier times it, every kFlapPeriod.
constexpr int kFlappingLinks = 3;
constexpr SimDuration kFlapPeriod = Seconds(3);
constexpr double kFlapMultiplier = 4.0;
// Diurnal-style drift: WAN links whose latency follows a triangle wave of
// relative amplitude kDriftAmplitude (< 1, so latencies stay positive) and
// period kDriftPeriod, re-sampled every kDriftStep.
constexpr int kDriftingLinks = 6;
constexpr SimDuration kDriftStep = Seconds(2);
constexpr SimDuration kDriftPeriod = Seconds(16);
constexpr double kDriftAmplitude = 0.5;

// Triangle wave in [-1, 1] with period `period`, evaluated at `t + phase`.
// Pure integer/rational arithmetic — bit-identical on every platform,
// unlike libm sin.
double TriangleWave(SimTime t, SimDuration period, SimDuration phase) {
  SimTime pos = (t + phase) % period;
  double frac = static_cast<double>(pos) / static_cast<double>(period);
  // 0 -> -1, 0.25 -> 0, 0.5 -> +1, 0.75 -> 0, 1 -> -1.
  return frac < 0.5 ? 4.0 * frac - 1.0 : 3.0 - 4.0 * frac;
}

// Draws a WAN pair (nodes in different clusters) not yet in `used`.
// Deterministic in the rng stream; gives up after a bounded number of
// re-draws (tiny federations) and then allows a duplicate. Requires at
// least two clusters, so a valid fallback pair always exists.
std::pair<NodeId, NodeId> DrawWanPair(
    const ScaleScenario& base, Rng* rng,
    std::set<std::pair<NodeId, NodeId>>* used) {
  int nodes = base.options.nodes;
  // Fallback: node 0 and the first node of the next cluster (clusters are
  // contiguous id blocks).
  std::pair<NodeId, NodeId> pair{0, 0};
  for (int n = 1; n < nodes; ++n) {
    if (base.cluster_of_node[n] != base.cluster_of_node[0]) {
      pair.second = n;
      break;
    }
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    NodeId a = static_cast<NodeId>(rng->UniformInt(0, nodes - 1));
    NodeId b = static_cast<NodeId>(rng->UniformInt(0, nodes - 1));
    if (a == b) continue;
    if (base.cluster_of_node[a] == base.cluster_of_node[b]) continue;
    if (a > b) std::swap(a, b);
    pair = {a, b};
    if (used->insert(pair).second) return pair;
  }
  return pair;
}

}  // namespace

ChurnScenario MakeChurnScenario(const ChurnScenarioOptions& options) {
  THEMIS_CHECK(options.downtime > 0);

  ChurnScenario scenario;
  scenario.options = options;
  scenario.base = MakeScaleScenario(options.scale);
  const ScaleScenario& base = scenario.base;
  const int nodes = options.scale.nodes;
  const int clusters = options.scale.clusters;

  // Churn schedule rng: forked off the scenario seed with a fixed tag so
  // adding churn never perturbs the base scenario's query stream.
  Rng rng(options.scale.seed ^ 0xc4a27fb1u);

  // --- crash waves ---------------------------------------------------------
  std::vector<int> cluster_size(clusters, 0);
  for (int n = 0; n < nodes; ++n) cluster_size[base.cluster_of_node[n]] += 1;
  std::vector<int> min_alive(clusters);
  for (int c = 0; c < clusters; ++c) {
    int floor_alive = static_cast<int>(
        cluster_size[c] * kMinClusterAliveFraction + 0.999999);
    min_alive[c] = std::max(floor_alive, 1);
  }
  // Liveness at generation time: node n is down at time t iff
  // dead_until[n] > t (a crash at t makes it down through t + downtime).
  std::vector<SimTime> dead_until(nodes, -1);

  for (int wave = 0; wave < options.crash_waves; ++wave) {
    SimTime t = options.churn_start + wave * kCrashInterval;
    if (t > options.churn_horizon) break;
    std::vector<int> cluster_alive(clusters, 0);
    for (int n = 0; n < nodes; ++n) {
      if (dead_until[n] <= t) cluster_alive[base.cluster_of_node[n]] += 1;
    }
    int crashed = 0;
    for (int attempt = 0; attempt < nodes * 4; ++attempt) {
      if (crashed >= options.crashes_per_wave) break;
      NodeId victim = static_cast<NodeId>(rng.UniformInt(0, nodes - 1));
      int c = base.cluster_of_node[victim];
      if (dead_until[victim] > t || cluster_alive[c] <= min_alive[c]) continue;
      dead_until[victim] = t + options.downtime;
      cluster_alive[c] -= 1;
      scenario.events.push_back({t, ChurnEventKind::kCrash, victim});
      scenario.events.push_back(
          {t + options.downtime, ChurnEventKind::kRestore, victim});
      ++crashed;
    }
  }

  // --- link dynamics -------------------------------------------------------
  // Drifting latencies stay strictly positive: amplitude < 1 bounds the
  // triangle wave above zero, and the floor below adds a hard clamp. A
  // single-cluster federation has no WAN links to perturb.
  const int flapping = clusters < 2 ? 0 : kFlappingLinks;
  const int drifting = clusters < 2 ? 0 : kDriftingLinks;
  const SimDuration wan = options.scale.wan_latency;
  const SimDuration lat_floor = std::max<SimDuration>(wan / 4, kMillisecond);
  std::set<std::pair<NodeId, NodeId>> used_links;

  for (int l = 0; l < flapping; ++l) {
    auto [a, b] = DrawWanPair(base, &rng, &used_links);
    SimDuration high = static_cast<SimDuration>(
        static_cast<double>(wan) * kFlapMultiplier);
    int toggle = 0;
    for (SimTime t = options.churn_start + kFlapPeriod;
         t <= options.churn_horizon; t += kFlapPeriod) {
      SimDuration lat = (toggle % 2 == 0) ? high : wan;
      scenario.events.push_back(
          {t, ChurnEventKind::kSetLinkLatency, a, b, lat});
      ++toggle;
    }
  }

  for (int l = 0; l < drifting; ++l) {
    auto [a, b] = DrawWanPair(base, &rng, &used_links);
    SimDuration phase = static_cast<SimDuration>(
        rng.UniformInt(0, kDriftPeriod - 1));
    for (SimTime t = options.churn_start; t <= options.churn_horizon;
         t += kDriftStep) {
      double wave = TriangleWave(t, kDriftPeriod, phase);
      double factor = 1.0 + kDriftAmplitude * wave;
      SimDuration lat =
          static_cast<SimDuration>(static_cast<double>(wan) * factor);
      scenario.events.push_back({t, ChurnEventKind::kSetLinkLatency, a, b,
                                 std::max(lat, lat_floor)});
    }
  }

  // Time-sorted replay order; equal-time events keep generation order
  // (crashes and their wave-mates first, then link updates), which the
  // stable sort preserves deterministically.
  std::stable_sort(scenario.events.begin(), scenario.events.end(),
                   [](const ChurnEvent& x, const ChurnEvent& y) {
                     return x.time < y.time;
                   });
  return scenario;
}

}  // namespace themis
