// The three discrete-event workloads. A run repeats episodes until its
// wall-clock budget is spent. An episode generates the scenario, builds
// the federation, deploys the queries due at t = 0 (together: set-up),
// then replays the remaining arrivals and topology events and runs a fixed
// simulated horizon (the timed phase). Every episode of a run simulates
// the same inputs, a pure function of the seed, so every episode must
// reproduce the library runner's deterministic digest. Timings are medians
// over episodes.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "federation/churn_federation.h"
#include "federation/scale_federation.h"
#include "measure.h"

namespace themis {
namespace e2e {
namespace {

struct DesConfig {
  /// `scale` shapes every workload; the churn overlay (crash waves, link
  /// flaps, drift) applies only when `churn` is set.
  ChurnScenarioOptions scenario;
  bool churn = false;
  FspsOptions fsps;
  /// Simulated time run past the last arrival or topology event.
  SimDuration measure = Seconds(10);
};

DesConfig MakeConfig(const RunOptions& options) {
  DesConfig c;
  ScaleScenarioOptions& s = c.scenario.scale;
  s.seed = options.seed;
  if (options.workload == "dense_lan") {
    // The Fig. 13 shape on one LAN: every query arrives at t = 0 and each
    // node hosts ~75 of them, so the per-query shed tick dominates while
    // the parallel engine and the WAN are idle.
    s.nodes = 16;
    s.clusters = 1;
    s.queries = options.smoke ? 300 : 1200;
    s.arrival_wave = s.queries;
    s.wan_query_ratio = 0.0;
    s.fragments_min = 1;
    s.fragments_max = 6;
    s.sources_per_fragment = 2;
    s.source_rate = 20.0;
    s.overload_factor = 3.0;
    c.measure = options.smoke ? Seconds(4) : Seconds(12);
  } else if (options.workload == "wan_federation") {
    // WAN of LANs on the 4-shard engine: ~3 fragments per node keep the
    // shed tick light; the event queue, the network and the epoch barrier
    // dominate.
    s.nodes = options.smoke ? 64 : 256;
    s.clusters = 8;
    s.queries = options.smoke ? 64 : 384;
    s.arrival_wave = 16;
    s.arrival_interval = Seconds(2);
    s.source_rate = 150.0;
    s.overload_factor = 2.0;
    c.fsps.shards = 4;
    c.measure = options.smoke ? Seconds(2) : Seconds(10);
  } else {
    // churn_checkpoint: crash waves, link flaps and drift through the
    // TopologyPlan control plane, with 250 ms operator-state capture and
    // restore-from-checkpoint of re-placed fragments. Each wave takes down
    // an eighth of the nodes. 128 nodes and 384 queries rather than 64 and
    // 192: with half as many queries hit per wave, the outcome's spread
    // across seeds grew by half (Jain 3.5% -> 5.1%, mean SIC 5.9% -> 7.3%).
    s.nodes = options.smoke ? 64 : 128;
    s.clusters = 8;
    s.queries = options.smoke ? 64 : 384;
    s.arrival_wave = 32;
    s.window = Seconds(4);
    c.churn = true;
    c.scenario.crash_waves = options.smoke ? 2 : 6;
    c.scenario.crashes_per_wave = s.nodes / 8;
    c.scenario.downtime = Seconds(3);
    c.scenario.churn_horizon = Seconds(36);
    c.fsps.crash_state = CrashStateMode::kCheckpoint;
    c.fsps.checkpoint.enabled = true;
    c.fsps.checkpoint.cadence = Millis(250);
    c.measure = options.smoke ? Seconds(2) : Seconds(10);
  }
  return c;
}

ChurnScenario BuildScenario(const DesConfig& c) {
  if (c.churn) return MakeChurnScenario(c.scenario);
  ChurnScenario scenario;
  scenario.options = c.scenario;
  scenario.base = MakeScaleScenario(c.scenario.scale);
  return scenario;
}

std::unique_ptr<Fsps> BuildFederation(const DesConfig& c,
                                      const ChurnScenario& scenario,
                                      int shards) {
  FspsOptions options = c.fsps;
  options.shards = shards;
  return c.churn ? MakeChurnFederation(scenario, options)
                 : MakeScaleFederation(scenario.base, options);
}

/// FNV-1a over the deterministic outcome of a run.
uint64_t Digest(const ChurnRunResult& r) {
  uint64_t h = 14695981039346656037ull;
  auto add = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const ScaleRunResult& s = r.scale;
  for (uint64_t v : {s.tuples_received, s.tuples_processed, s.tuples_shed,
                     s.messages, s.bytes, s.events, r.crashes, r.restores,
                     r.latency_updates, r.replaced_fragments,
                     r.dropped_queries, r.skipped_arrivals,
                     r.batches_dropped_dead, r.tuples_dropped_dead}) {
    add(v);
  }
  for (double sic : s.final_sics) {
    uint64_t bits = 0;
    std::memcpy(&bits, &sic, sizeof(bits));
    add(bits);
  }
  return h;
}

/// The library's own runner on the same inputs: the reference digest.
uint64_t RunLibrary(const DesConfig& c, int shards) {
  ChurnScenario scenario = BuildScenario(c);
  std::unique_ptr<Fsps> fsps = BuildFederation(c, scenario, shards);
  if (c.churn) {
    return Digest(RunChurnScenario(fsps.get(), scenario, c.measure));
  }
  ChurnRunResult r;
  r.scale = RunScaleScenario(fsps.get(), scenario.base, c.measure);
  return Digest(r);
}

/// Nominal source tuples offered between each query's arrival and `end`.
double OfferedTuples(const ScaleScenario& s, SimTime end) {
  double total = 0.0;
  for (const ScaleQuerySpec& q : s.queries) {
    int sources = q.fragments * ScaleSourcesPerFragment(
                                    q.kind, s.options.sources_per_fragment);
    total += sources * s.options.source_rate * ToSeconds(end - q.arrival);
  }
  return total;
}

struct Episode {
  double scenario_s = 0.0;  ///< scenario generation
  double build_s = 0.0;     ///< federation build
  double setup_s = 0.0;     ///< scenario + federation + deploys due at t = 0
  double timed_s = 0.0;     ///< everything after set-up
  double offered = 0.0;     ///< nominal source tuples of the timed phase
  uint64_t allocs = 0;      ///< heap allocations of the timed phase
  Samples deploy_s;         ///< ScaleDeployer::DeployQuery, every arrival
  Samples run_for_s;        ///< Fsps::RunFor segments
  Samples plan_s;           ///< TopologyPlan::Apply, one per churn instant
  uint64_t arrivals = 0;
  uint64_t plans = 0;
  uint64_t plans_failed = 0;
  ChurnRunResult outcome;
  uint64_t digest = 0;
  NodeStats nodes;                ///< summed over nodes
  BatchPool::Stats pool;          ///< summed over nodes
  CheckpointStore::Stats ckpt;    ///< summed over nodes
  uint64_t result_tuples = 0;     ///< delivered to the coordinators
  double sim_s = 0.0;
  size_t node_count = 0;
};

/// A federation between set-up and the timed phase.
struct Deployment {
  ChurnScenario scenario;
  std::unique_ptr<Fsps> fsps;
  std::unique_ptr<ScaleDeployer> deployer;
  size_t next_query = 0;
};

/// Set-up: scenario generation, federation build, and the arrivals due
/// before the simulation first advances (ahead of any topology event at
/// the same instant, as RunChurnScenario orders them).
Deployment SetUp(const DesConfig& c, int shards, Episode* ep) {
  const double start = NowSeconds();
  Deployment d;
  Samples scenario_s, build_s;
  {
    Stopwatch sw("e2e.scenario_build", &scenario_s);
    d.scenario = BuildScenario(c);
  }
  {
    Stopwatch sw("e2e.federation_build", &build_s);
    d.fsps = BuildFederation(c, d.scenario, shards);
  }
  const std::vector<ScaleQuerySpec>& queries = d.scenario.base.queries;
  const std::vector<ChurnEvent>& events = d.scenario.events;
  // Keep the benchmark's own bookkeeping out of the allocation count.
  ep->deploy_s.Reserve(queries.size());
  ep->run_for_s.Reserve(queries.size() + events.size() + 1);
  ep->plan_s.Reserve(events.size());
  d.deployer = std::make_unique<ScaleDeployer>(d.fsps.get(), d.scenario.base);
  while (d.next_query < queries.size() &&
         queries[d.next_query].arrival <= d.fsps->now() &&
         (events.empty() || queries[d.next_query].arrival < events[0].time)) {
    Stopwatch sw("e2e.deploy", &ep->deploy_s);
    d.deployer->DeployQuery(queries[d.next_query]);
    ++d.next_query;
    ++ep->arrivals;
  }
  ep->scenario_s = scenario_s.Sum();
  ep->build_s = build_s.Sum();
  ep->setup_s = NowSeconds() - start;
  return d;
}

Episode RunEpisode(const DesConfig& c, int shards) {
  Episode ep;
  Deployment d = SetUp(c, shards, &ep);
  Fsps* fsps = d.fsps.get();
  const std::vector<ScaleQuerySpec>& queries = d.scenario.base.queries;
  const std::vector<ChurnEvent>& events = d.scenario.events;
  const double timed_start = NowSeconds();
  const uint64_t allocs_start = Allocations();

  // The replay order of RunChurnScenario (which RunScaleScenario shares
  // when there are no events): events win ties, and same-instant events
  // commit as one plan.
  size_t next_query = d.next_query;
  size_t next_event = 0;
  while (next_query < queries.size() || next_event < events.size()) {
    bool take_query =
        next_event >= events.size() ||
        (next_query < queries.size() &&
         queries[next_query].arrival < events[next_event].time);
    SimTime at =
        take_query ? queries[next_query].arrival : events[next_event].time;
    if (at > fsps->now()) {
      Stopwatch sw("e2e.run_for", &ep.run_for_s);
      fsps->RunFor(at - fsps->now());
    }
    if (take_query) {
      Stopwatch sw("e2e.deploy", &ep.deploy_s);
      d.deployer->DeployQuery(queries[next_query]);
      ++next_query;
      ++ep.arrivals;
      continue;
    }
    TopologyPlan plan = fsps->PlanTopology();
    while (next_event < events.size() && events[next_event].time == at) {
      const ChurnEvent& ev = events[next_event];
      ++next_event;
      switch (ev.kind) {
        case ChurnEventKind::kCrash:
          plan.Crash(ev.a);
          break;
        case ChurnEventKind::kRestore:
          plan.Restore(ev.a);
          break;
        case ChurnEventKind::kSetLinkLatency:
          plan.SetLinkLatency(ev.a, ev.b, ev.latency);
          break;
      }
    }
    Stopwatch sw("e2e.plan_apply", &ep.plan_s);
    ++ep.plans;
    if (!plan.Apply().ok()) ++ep.plans_failed;
  }
  {
    Stopwatch sw("e2e.run_for", &ep.run_for_s);
    fsps->RunFor(c.measure);
  }
  ep.timed_s = NowSeconds() - timed_start;
  ep.allocs = Allocations() - allocs_start;
  ep.offered = OfferedTuples(d.scenario.base, fsps->now());

  ChurnRunResult& r = ep.outcome;
  r.scale = CollectScaleResult(fsps);
  const FspsChurnStats& churn = fsps->churn_stats();
  r.crashes = churn.crashes;
  r.restores = churn.restores;
  r.latency_updates = churn.latency_updates;
  r.replaced_fragments = churn.replaced_fragments;
  r.dropped_queries = churn.dropped_queries;
  r.skipped_arrivals = d.deployer->skipped_arrivals();
  ep.nodes = fsps->TotalNodeStats();
  r.batches_dropped_dead = ep.nodes.batches_dropped_dead;
  r.tuples_dropped_dead = ep.nodes.tuples_dropped_dead;
  ep.digest = Digest(r);

  for (NodeId id : fsps->node_ids()) {
    Node* node = fsps->node(id);
    const BatchPool::Stats& p = node->batch_pool()->stats();
    ep.pool.row_hits += p.row_hits;
    ep.pool.row_misses += p.row_misses;
    ep.pool.row_peak += p.row_peak;
    const CheckpointStore::Stats& k = node->checkpoint_store()->stats();
    ep.ckpt.taken += k.taken;
    ep.ckpt.skipped_clean += k.skipped_clean;
    ep.ckpt.restores += k.restores;
    ep.ckpt.missed += k.missed;
    ep.ckpt.bytes_written += k.bytes_written;
  }
  for (QueryId q : fsps->query_ids()) {
    ep.result_tuples += fsps->coordinator(q)->result_tuples();
  }
  ep.sim_s = ToSeconds(fsps->now());
  ep.node_count = fsps->node_ids().size();
  return ep;
}

constexpr int kSetupsPerEpisode = 2;

void CheckOutcome(const Episode& ep, const ScaleScenario& scenario,
                  Report* report) {
  const ScaleRunResult& r = ep.outcome.scale;
  const double n = static_cast<double>(r.final_sics.size());
  report->Check(n > 0 && r.jain >= 1.0 / n - 1e-12 && r.jain <= 1.0 + 1e-12,
                "jain lies in [1/n, 1]");
  bool sics_in_range = true;
  for (double sic : r.final_sics) {
    sics_in_range = sics_in_range && sic >= 0.0 && sic <= 1.0;
  }
  report->Check(sics_in_range, "every final query SIC lies in [0, 1]");
  report->Check(r.tuples_processed + r.tuples_shed <= r.tuples_received,
                "processed + shed <= received");
  report->Check(r.tuples_processed > 0 && ep.result_tuples > 0,
                "queries processed tuples and delivered results");
  // The benchmark's offered-load count must agree with the scenario's own
  // aggregate rate: offered tuples per second with every query deployed.
  double rate = OfferedTuples(scenario, Seconds(1)) -
                OfferedTuples(scenario, 0);
  report->Check(rate > 0 && std::abs(rate - scenario.total_source_rate) <=
                                1e-9 * scenario.total_source_rate,
                "offered-load count matches the scenario's source rate");
}

}  // namespace

void RunDesWorkload(const RunOptions& options, Report* report) {
  const double start = NowSeconds();
  const DesConfig c = MakeConfig(options);
  const int shards = c.fsps.shards;

  // The library runner first: its digest is the reference every episode
  // must reproduce, and it warms caches and the allocator before anything
  // is timed.
  const uint64_t reference = RunLibrary(c, shards);

  std::unique_ptr<telemetry::Telemetry> tel;
  double one_shard_throughput = 0.0;
  if (options.traced()) {
    // Large enough that no ring overwrites a span; run.py compares the
    // exported span count against recorded() to prove it.
    telemetry::TelemetryOptions to;
    to.trace_ring_capacity = size_t{1} << 17;
    tel = std::make_unique<telemetry::Telemetry>(to);
    if (shards > 1) {
      // The same inputs on one shard: the baseline of the parallel engine's
      // speedup, and shard-count identity. The engine does not guarantee
      // the latter for every input (some seeds diverge by a few tuples),
      // so it is reported rather than checked; run.py --verify checks it.
      Episode one = RunEpisode(c, 1);
      report->Note("shard_identity",
                   one.digest == reference ? "match" : "mismatch");
      one_shard_throughput = one.offered / one.timed_s;
    }
  }

  std::vector<Episode> plain;
  std::vector<Episode> traced;
  Samples episode_s, speed, setup, scenario_s, build_s;
  const size_t min_episodes = tel ? 2 : 3;
  for (;;) {
    // Traced runs alternate untraced and traced episodes, so drift on the
    // host hits both alike and the overhead estimate stays fair.
    bool trace_this = tel != nullptr && traced.size() < plain.size();
    if (!trace_this) speed.Add(MeasureHostSpeed());
    double t0 = NowSeconds();
    if (trace_this) telemetry::Install(tel.get());
    Episode ep = RunEpisode(c, shards);
    if (trace_this) telemetry::Uninstall();
    episode_s.Add(NowSeconds() - t0);
    report->Check(ep.digest == reference,
                  std::string(trace_this ? "traced" : "untraced") +
                      " episode digest equals the library runner's");
    report->AddOps(ep.arrivals + ep.plans,
                   ep.outcome.skipped_arrivals + ep.outcome.dropped_queries +
                       ep.plans_failed);
    (trace_this ? traced : plain).push_back(std::move(ep));
    // Set-up alone, twice per episode: on the sparse federations it lasts
    // about a millisecond, and samples spread over the run are steadier
    // than a burst at one end of it.
    for (int i = 0; i < kSetupsPerEpisode; ++i) {
      Episode setup_only;
      SetUp(c, shards, &setup_only);
      setup.Add(setup_only.setup_s);
      scenario_s.Add(setup_only.scenario_s);
      build_s.Add(setup_only.build_s);
    }

    bool enough = plain.size() >= min_episodes &&
                  (tel == nullptr || traced.size() >= min_episodes);
    double elapsed = NowSeconds() - start;
    if (enough && elapsed + episode_s.Median() > options.seconds) break;
    // Keep a run well under three minutes on a slow host.
    if (!plain.empty() && elapsed > 120.0) break;
  }

  const Episode& first = plain.front();
  const ScaleScenario scenario = BuildScenario(c).base;
  CheckOutcome(first, scenario, report);

  Samples throughput, allocs, run_for_share, events_per_s, deploy_s, plan_s;
  for (const Episode& ep : plain) {
    throughput.Add(ep.offered / ep.timed_s);
    setup.Add(ep.setup_s);
    allocs.Add(static_cast<double>(ep.allocs) / ep.offered);
    run_for_share.Add(ep.run_for_s.Sum() / ep.timed_s);
    events_per_s.Add(static_cast<double>(ep.outcome.scale.events) /
                     ep.timed_s);
    scenario_s.Add(ep.scenario_s);
    build_s.Add(ep.build_s);
    deploy_s.Append(ep.deploy_s);
    plan_s.Append(ep.plan_s);
  }
  const ScaleRunResult& r = first.outcome.scale;
  const NodeStats& ns = first.nodes;

  // End to end.
  SetWallClockMetrics(throughput, setup, speed, report);
  report->Set("allocs_per_offered_tuple", allocs.Median(), allocs.size());
  report->Set("jain", r.jain, r.final_sics.size());
  report->Set("mean_sic", r.mean_sic, r.final_sics.size());

  // Per layer, from the untraced episodes.
  report->Set("workload.scenario_build_ms", scenario_s.Median() * 1e3,
              scenario_s.size());
  report->Set("deploy.build_ms", build_s.Median() * 1e3, build_s.size());
  report->Set("deploy.query_us_p50", deploy_s.Percentile(50) * 1e6,
              deploy_s.size());
  report->Set("deploy.query_us_p99", deploy_s.Percentile(99) * 1e6,
              deploy_s.size());
  report->Set("federation.run_for_share", run_for_share.Median(),
              run_for_share.size());
  report->Set("federation.plan_applies", static_cast<double>(first.plans));
  report->Set("federation.plan_apply_ms_p50", plan_s.Percentile(50) * 1e3,
              plan_s.size());
  report->Set("federation.plan_apply_ms_max", plan_s.Max() * 1e3,
              plan_s.size());
  report->Set("runtime.results_per_offered_tuple",
              static_cast<double>(first.result_tuples) / first.offered);
  report->Set("node.shed_ticks", static_cast<double>(ns.detector_invocations));
  report->Set("node.busy_share",
              Ratio(ToSeconds(ns.busy_time),
                    static_cast<double>(first.node_count) * first.sim_s));
  report->Set("shedding.shed_fraction",
              Ratio(static_cast<double>(ns.tuples_shed),
                    static_cast<double>(ns.tuples_received)));
  report->Set("shedding.overloaded_tick_ratio",
              Ratio(static_cast<double>(ns.shed_invocations),
                    static_cast<double>(ns.detector_invocations)));
  report->Set("sim.events_per_offered_tuple",
              static_cast<double>(r.events) / first.offered);
  report->Set("sim.messages_per_offered_tuple",
              static_cast<double>(r.messages) / first.offered);
  report->Set("sim.bytes_per_offered_tuple",
              static_cast<double>(r.bytes) / first.offered);
  report->Set("sim.events_per_wall_s", events_per_s.Median(),
              events_per_s.size());
  report->Set("runtime.pool_hit_ratio",
              Ratio(static_cast<double>(first.pool.row_hits),
                    static_cast<double>(first.pool.row_hits +
                                        first.pool.row_misses)));
  report->Set("runtime.pool_peak_batches",
              static_cast<double>(first.pool.row_peak));
  const CheckpointStore::Stats& k = first.ckpt;
  report->Set("runtime.ckpt_captures", static_cast<double>(k.taken));
  report->Set("runtime.ckpt_bytes_per_capture",
              Ratio(static_cast<double>(k.bytes_written),
                    static_cast<double>(k.taken)));
  report->Set("runtime.ckpt_skip_ratio",
              Ratio(static_cast<double>(k.skipped_clean),
                    static_cast<double>(k.taken + k.skipped_clean)));
  report->Set("runtime.ckpt_restore_hit_ratio",
              Ratio(static_cast<double>(k.restores),
                    static_cast<double>(k.restores + k.missed)));
  report->Note("shards", std::to_string(shards));

  if (tel == nullptr) return;
  // Per layer, from the traced episodes: the engine's epoch metrics and the
  // cost of tracing itself. Span-derived metrics are computed by run.py
  // from the exported trace.
  Samples traced_throughput;
  for (const Episode& ep : traced) {
    traced_throughput.Add(ep.offered / ep.timed_s);
  }
  telemetry::MetricRegistry& m = tel->metrics();
  const telemetry::Histogram* busy =
      m.GetHistogram("infra.parsim.epoch_busy_us");
  const telemetry::Histogram* wait =
      m.GetHistogram("infra.parsim.epoch_wait_us");
  const telemetry::Histogram* inbox =
      m.GetHistogram("infra.parsim.inbox_depth");
  const double epochs =
      static_cast<double>(m.GetCounter("infra.parsim.epochs")->Value());
  report->Set("parsim.epochs", epochs / static_cast<double>(traced.size()));
  report->Set("parsim.epoch_wait_share",
              Ratio(wait->Sum(), busy->Sum() + wait->Sum()));
  report->Set("parsim.inbox_depth_mean",
              Ratio(inbox->Sum(), static_cast<double>(inbox->Count())));
  report->Set("parsim.speedup_vs_1shard",
              Ratio(throughput.Median(), one_shard_throughput));
  report->Set("trace.overhead_pct",
              (throughput.Median() / traced_throughput.Median() - 1.0) * 100.0,
              traced.size());
  ExportTrace(tel.get(), options.trace_file, report);
}

}  // namespace e2e
}  // namespace themis
