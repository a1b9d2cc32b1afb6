#include "federation/scale_federation.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/logging.h"
#include "common/stats.h"
#include "federation/autoscaler.h"
#include "metrics/jain.h"
#include "workload/workloads.h"

namespace themis {

namespace {

// Estimated simulated cost (us) of one source tuple through a complex
// pipeline at cpu_speed 1 — same constant the bench harness uses to turn an
// overload target into a node speed; the online cost model measures the
// true value during the run.
constexpr double kPipelineCostUs = 1.6;

double CpuSpeedForScenario(const ScaleScenario& scenario) {
  const ScaleScenarioOptions& o = scenario.options;
  double needed_us_per_sec = scenario.total_source_rate * kPipelineCostUs;
  double available_us_per_sec = 1e6 * o.nodes * o.overload_factor;
  return needed_us_per_sec / available_us_per_sec;
}

/// The one place a replay's counters are collected (the tail of every
/// scale, churn and elastic run).
ChurnRunResult CollectChurnResult(Fsps* fsps, uint64_t skipped_arrivals) {
  ChurnRunResult result;
  result.scale = CollectScaleResult(fsps);
  const FspsChurnStats& churn = fsps->churn_stats();
  result.crashes = churn.crashes;
  result.restores = churn.restores;
  result.latency_updates = churn.latency_updates;
  result.replaced_fragments = churn.replaced_fragments;
  result.dropped_queries = churn.dropped_queries;
  result.skipped_arrivals = skipped_arrivals;
  NodeStats stats = fsps->TotalNodeStats();
  result.batches_dropped_dead = stats.batches_dropped_dead;
  result.tuples_dropped_dead = stats.tuples_dropped_dead;
  return result;
}

}  // namespace

std::unique_ptr<Fsps> MakeScaleFederation(const ScaleScenario& scenario,
                                          FspsOptions base) {
  const ScaleScenarioOptions& o = scenario.options;
  base.seed = o.seed;
  base.default_link_latency = o.wan_latency;  // inter-cluster default
  base.source_link_latency = o.source_link_latency;
  base.node.cpu_speed = CpuSpeedForScenario(scenario);

  auto fsps = std::make_unique<Fsps>(base);
  int shards = fsps->engine()->num_shards();
  for (int n = 0; n < o.nodes; ++n) {
    // Whole clusters map to one shard: LAN links stay shard-local, so the
    // conservative lookahead is the WAN latency, not the LAN one.
    int cluster = scenario.cluster_of_node[n];
    int shard = static_cast<int>(static_cast<int64_t>(cluster) * shards /
                                 o.clusters);
    THEMIS_CHECK(fsps->AddNode(base.node, shard).ok());
  }
  // Intra-cluster links run at LAN latency (default covers the WAN pairs).
  for (int a = 0; a < o.nodes; ++a) {
    for (int b = a + 1; b < o.nodes; ++b) {
      if (scenario.cluster_of_node[a] == scenario.cluster_of_node[b]) {
        fsps->network()->SetLatency(a, b, o.lan_latency);
      }
    }
  }
  return fsps;
}

ScaleDeployer::ScaleDeployer(Fsps* fsps, const ScaleScenario& scenario)
    : fsps_(fsps),
      factory_(scenario.options.seed + 1),
      options_(scenario.options),
      cluster_nodes_(options_.clusters),
      cursor_(options_.clusters, 0) {
  // Nodes of each cluster, in id order, with a round-robin cursor for
  // fragment placement.
  for (int n = 0; n < options_.nodes; ++n) {
    cluster_nodes_[scenario.cluster_of_node[n]].push_back(n);
  }
}

NodeId ScaleDeployer::NextLiveNode(int cluster) {
  const std::vector<NodeId>& nodes = cluster_nodes_[cluster];
  THEMIS_CHECK(!nodes.empty());
  // One full lap at most: on a static federation the first candidate is
  // live and the cursor advances exactly once, reproducing the historical
  // placement byte-for-byte.
  for (size_t lap = 0; lap < nodes.size(); ++lap) {
    NodeId id = nodes[cursor_[cluster] % nodes.size()];
    ++cursor_[cluster];
    if (fsps_->node_alive(id)) return id;
  }
  return kInvalidId;
}

bool ScaleDeployer::DeployQuery(const ScaleQuerySpec& spec) {
  ComplexQueryOptions co;
  co.fragments = spec.fragments;
  co.sources_per_fragment =
      ScaleSourcesPerFragment(spec.kind, options_.sources_per_fragment);
  co.source_rate = options_.source_rate;
  co.batches_per_sec = options_.batches_per_sec;
  co.dataset = options_.dataset;
  co.window = options_.window;
  co.burst_prob = options_.burst_prob;
  co.burst_multiplier = options_.burst_multiplier;
  co.diurnal_amplitude = options_.diurnal_amplitude;
  co.diurnal_period = options_.diurnal_period;
  BuiltQuery built = factory_.MakeComplex(spec.kind, spec.id, co);

  std::map<FragmentId, NodeId> placement;
  std::vector<FragmentId> frags = built.graph->fragment_ids();
  std::sort(frags.begin(), frags.end());
  for (size_t i = 0; i < frags.size(); ++i) {
    // WAN-spanning queries alternate fragments between the two clusters;
    // others stay in the home cluster.
    int cluster = (spec.peer_cluster >= 0 && i % 2 == 1)
                      ? spec.peer_cluster
                      : spec.home_cluster;
    NodeId target = NextLiveNode(cluster);
    if (target == kInvalidId) {
      // Whole cluster down: the arrival bounces. The query factory stream
      // stays aligned (the graph was already drawn), so later arrivals are
      // unaffected.
      skipped_arrivals_ += 1;
      return false;
    }
    placement[frags[i]] = target;
  }
  THEMIS_CHECK(fsps_->Deploy(std::move(built.graph), placement).ok());
  THEMIS_CHECK(fsps_->AttachSources(spec.id, built.sources).ok());
  return true;
}

ChurnRunResult ReplayScenario(Fsps* fsps, const ScaleScenario& scenario,
                              const std::vector<ChurnEvent>& events,
                              SimDuration measure, Autoscaler* autoscaler) {
  ScaleDeployer deployer(fsps, scenario);
  const std::vector<ScaleQuerySpec>& queries = scenario.queries;
  SimTime end = fsps->now();
  if (!queries.empty()) end = std::max(end, queries.back().arrival);
  if (!events.empty()) end = std::max(end, events.back().time);
  end += measure;
  SimTime next_tick = INT64_MAX;
  SimDuration tick_interval = 0;
  if (autoscaler != nullptr) {
    next_tick = autoscaler->options().first_tick;
    tick_interval = autoscaler->options().tick_interval;
    THEMIS_CHECK(tick_interval > 0);
  }

  // One instant per iteration, in the order documented at the
  // declaration: events, then arrivals, then the tick.
  size_t next_query = 0;
  size_t next_event = 0;
  while (true) {
    SimTime at = next_tick <= end ? next_tick : INT64_MAX;
    if (next_query < queries.size()) {
      at = std::min(at, queries[next_query].arrival);
    }
    if (next_event < events.size()) at = std::min(at, events[next_event].time);
    if (at == INT64_MAX) break;
    if (at > fsps->now()) fsps->RunFor(at - fsps->now());

    if (next_event < events.size() && events[next_event].time == at) {
      TopologyPlan plan = fsps->PlanTopology();
      uint64_t crashes = 0;
      uint64_t restores = 0;
      uint64_t link_updates = 0;
      while (next_event < events.size() && events[next_event].time == at) {
        const ChurnEvent& ev = events[next_event];
        ++next_event;
        switch (ev.kind) {
          case ChurnEventKind::kCrash:
            plan.Crash(ev.a);
            ++crashes;
            break;
          case ChurnEventKind::kRestore:
            plan.Restore(ev.a);
            ++restores;
            break;
          case ChurnEventKind::kSetLinkLatency:
            plan.SetLinkLatency(ev.a, ev.b, ev.latency);
            ++link_updates;
            break;
        }
      }
      THEMIS_LOG(Info) << "churn wave t_us=" << at << " crashes=" << crashes
                       << " restores=" << restores
                       << " link_updates=" << link_updates
                       << " plan_ops=" << plan.size();
      THEMIS_CHECK(plan.Apply().ok());
    }
    while (next_query < queries.size() && queries[next_query].arrival == at) {
      deployer.DeployQuery(queries[next_query]);
      ++next_query;
    }
    if (autoscaler != nullptr && next_tick == at) {
      THEMIS_CHECK(autoscaler->Tick().ok());
      next_tick += tick_interval;
    }
  }
  if (autoscaler == nullptr) {
    fsps->RunFor(measure);
  } else if (end > fsps->now()) {
    fsps->RunFor(end - fsps->now());
  }
  return CollectChurnResult(fsps, deployer.skipped_arrivals());
}

ScaleRunResult RunScaleScenario(Fsps* fsps, const ScaleScenario& scenario,
                                SimDuration measure) {
  return ReplayScenario(fsps, scenario, {}, measure).scale;
}

ScaleRunResult CollectScaleResult(Fsps* fsps) {
  ScaleRunResult result;
  NodeStats stats = fsps->TotalNodeStats();
  result.tuples_received = stats.tuples_received;
  result.tuples_processed = stats.tuples_processed;
  result.tuples_shed = stats.tuples_shed;
  result.messages = fsps->network()->messages_sent();
  result.bytes = fsps->network()->bytes_sent();
  result.events = fsps->engine()->executed();
  result.final_sics = fsps->AllQuerySics();
  result.mean_sic = Mean(result.final_sics);
  result.jain = JainIndex(result.final_sics);
  return result;
}

}  // namespace themis
