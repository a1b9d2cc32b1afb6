// Elastic-federation benchmark: the 64-node WAN-of-LANs churn scenario
// overlaid with §7.4 bursts AND a diurnal load swing, with the autoscaler
// loop (federation/autoscaler.h) growing, shrinking and re-balancing the
// federation through the TopologyPlan control plane while crash waves and
// link drift keep perturbing it. Run on the parallel engine at 1 shard and
// at `--shards N` (default 4).
//
// Two jobs in one binary, mirroring bench_churn_federation:
//  * Throughput: PerfRecorder captures tuples/s per shard count; CI gates
//    shards=4 at >= 1.5x the shards=1 wall-clock throughput — the parallel
//    win must survive mid-run joins, migrations and re-balances.
//  * Determinism: the printed report contains only simulated quantities,
//    so its bytes are a pure function of the scenario. CI byte-diffs two
//    full invocations for run-to-run identity at every shard count. The
//    multi-shard report may legitimately differ from the single-shard one
//    (see federation/elastic_federation.h): crashes re-place orphans
//    within a shard, and re-balances move timers and in-flight deliveries
//    between shards, each at its own deadline.
//
// Flags (besides the PerfRecorder ones): --shards N, --nodes N,
// --queries N.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/perf.h"
#include "federation/elastic_federation.h"
#include "metrics/reporter.h"

int main(int argc, char** argv) {
  using namespace themis;
  using namespace themis::bench;
  PerfRecorder perf(argc, argv, "bench_elastic_federation");
  std::printf("Elastic federation run: autoscaler + shard re-balancing over "
              "churn with diurnal + burst load, per shard count.\n");

  ChurnScenarioOptions co;
  co.scale.nodes = IntFlag(argc, argv, "--nodes", 64);
  co.scale.queries = IntFlag(argc, argv, "--queries", 96);
  co.scale.source_rate = 150.0;
  // Size the base federation so the diurnal + burst swing crosses BOTH
  // autoscaler thresholds per period: the loop has to grow into the peaks
  // and give capacity back in the troughs, not ratchet one way.
  co.scale.overload_factor = 0.4;
  co.scale.burst_prob = 0.10;  // 10x spikes (burst_multiplier's default)
  co.scale.diurnal_amplitude = 0.8;
  co.scale.diurnal_period = Seconds(32);
  AutoscalerOptions ao;
  ao.shrink_utilization = 0.7;
  ao.max_added_nodes = 16;
  SimDuration measure = Seconds(10);
  if (perf.quick()) {
    co.scale.queries = IntFlag(argc, argv, "--queries", 64);
    co.crash_waves = 2;
    co.churn_horizon = Seconds(16);
    ao.max_added_nodes = 8;
    measure = Seconds(6);
  }
  const int parallel_shards = IntFlag(argc, argv, "--shards", 4);
  ChurnScenario scenario = MakeChurnScenario(co);

  Reporter reporter(
      "Elastic federation (" + std::to_string(co.scale.nodes) + " nodes, " +
          std::to_string(co.scale.queries) + " queries, " +
          std::to_string(scenario.events.size()) + " topology events)",
      {"engine", "processed", "shed", "added", "rebal", "migr", "live",
       "mean_SIC", "jain"});

  std::vector<int> shard_counts = {1};
  if (parallel_shards > 1) shard_counts.push_back(parallel_shards);

  for (int shards : shard_counts) {
    const std::string name = "shards=" + std::to_string(shards);
    FspsOptions fo;
    fo.shards = shards;
    auto fsps = MakeElasticFederation(scenario, fo);
    perf.BeginRun(name);
    ElasticRunResult r = RunElasticScenario(fsps.get(), scenario, ao, measure);
    perf.EndRun(r.churn.scale.tuples_processed);
    perf.AddMetric("nodes_added", static_cast<double>(r.nodes_added));
    perf.AddMetric("rebalances", static_cast<double>(r.rebalances));
    perf.AddMetric("final_live_nodes",
                   static_cast<double>(r.final_live_nodes));
    perf.AddMetric("mean_sic", r.churn.scale.mean_sic);

    // One deterministic line per shard count.
    char line[400];
    std::snprintf(
        line, sizeof(line),
        "processed=%llu shed=%llu messages=%llu events=%llu crashes=%llu "
        "restores=%llu added=%llu rebalances=%llu migrated=%llu "
        "grow=%llu shrink=%llu restored=%llu decom=%llu live=%d "
        "util=%.6f mean_sic=%.9f jain=%.9f",
        static_cast<unsigned long long>(r.churn.scale.tuples_processed),
        static_cast<unsigned long long>(r.churn.scale.tuples_shed),
        static_cast<unsigned long long>(r.churn.scale.messages),
        static_cast<unsigned long long>(r.churn.scale.events),
        static_cast<unsigned long long>(r.churn.crashes),
        static_cast<unsigned long long>(r.churn.restores),
        static_cast<unsigned long long>(r.nodes_added),
        static_cast<unsigned long long>(r.rebalances),
        static_cast<unsigned long long>(r.migrated_nodes),
        static_cast<unsigned long long>(r.autoscaler.grow_actions),
        static_cast<unsigned long long>(r.autoscaler.shrink_actions),
        static_cast<unsigned long long>(r.autoscaler.nodes_restored),
        static_cast<unsigned long long>(r.autoscaler.nodes_decommissioned),
        r.final_live_nodes, r.final_utilization, r.churn.scale.mean_sic,
        r.churn.scale.jain);
    std::printf("[%s] %s\n", name.c_str(), line);

    reporter.AddRow(name,
                    {static_cast<double>(r.churn.scale.tuples_processed),
                     static_cast<double>(r.churn.scale.tuples_shed),
                     static_cast<double>(r.nodes_added),
                     static_cast<double>(r.rebalances),
                     static_cast<double>(r.migrated_nodes),
                     static_cast<double>(r.final_live_nodes),
                     r.churn.scale.mean_sic, r.churn.scale.jain});
  }
  reporter.Print();
  return 0;
}
