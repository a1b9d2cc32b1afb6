// Dynamic-federation churn benchmark: the 64-node WAN-of-LANs scenario
// overlaid with crash waves, flapping WAN links and diurnal latency drift
// (workload/churn_scenario.h), run on the parallel engine at 1 shard and
// at `--shards N` (default 4).
//
// Two jobs in one binary, mirroring bench_scale_federation:
//  * Throughput: PerfRecorder captures tuples/s under churn per shard
//    count (the interesting number is how much fairness and throughput
//    survive node failures and link drift).
//  * Determinism: the printed report contains only simulated quantities —
//    tuple/message/event counts, SIC statistics, churn counters — so its
//    bytes are a pure function of the scenario. CI byte-diffs two full
//    invocations to pin run-to-run determinism at every shard count.
//    Unlike the static scale bench, the multi-shard report may
//    legitimately differ from the single-shard one: crash re-placement is
//    shard-scoped (orphans stay on their shard), so the candidate set
//    depends on the shard map.
//
// Flags (besides the PerfRecorder ones): --shards N, --nodes N,
// --queries N.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/perf.h"
#include "federation/churn_federation.h"
#include "metrics/reporter.h"

int main(int argc, char** argv) {
  using namespace themis;
  using namespace themis::bench;
  PerfRecorder perf(argc, argv, "bench_churn_federation");
  std::printf("Federation churn run: node crash waves + link drift on the "
              "dynamic runtime, per shard count.\n");

  ChurnScenarioOptions co;
  co.scale.nodes = IntFlag(argc, argv, "--nodes", 64);
  co.scale.queries = IntFlag(argc, argv, "--queries", 96);
  co.scale.source_rate = 150.0;
  SimDuration measure = Seconds(10);
  if (perf.quick()) {
    co.scale.queries = IntFlag(argc, argv, "--queries", 64);
    co.crash_waves = 2;
    co.churn_horizon = Seconds(16);
    measure = Seconds(6);
  }
  const int parallel_shards = IntFlag(argc, argv, "--shards", 4);
  ChurnScenario scenario = MakeChurnScenario(co);

  Reporter reporter(
      "Churn federation (" + std::to_string(co.scale.nodes) + " nodes, " +
          std::to_string(co.scale.queries) + " queries, " +
          std::to_string(scenario.events.size()) + " topology events)",
      {"engine", "processed", "shed", "replaced", "dropQ", "mean_SIC",
       "jain"});

  std::vector<int> shard_counts = {1};
  if (parallel_shards > 1) shard_counts.push_back(parallel_shards);

  for (int shards : shard_counts) {
    const std::string name = "shards=" + std::to_string(shards);
    FspsOptions fo;
    fo.shards = shards;
    auto fsps = MakeChurnFederation(scenario, fo);
    perf.BeginRun(name);
    ChurnRunResult r = RunChurnScenario(fsps.get(), scenario, measure);
    perf.EndRun(r.scale.tuples_processed);

    // One deterministic line per shard count.
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "processed=%llu shed=%llu messages=%llu events=%llu "
        "crashes=%llu restores=%llu latency_updates=%llu replaced=%llu "
        "dropped_queries=%llu dead_drops=%llu mean_sic=%.9f jain=%.9f",
        static_cast<unsigned long long>(r.scale.tuples_processed),
        static_cast<unsigned long long>(r.scale.tuples_shed),
        static_cast<unsigned long long>(r.scale.messages),
        static_cast<unsigned long long>(r.scale.events),
        static_cast<unsigned long long>(r.crashes),
        static_cast<unsigned long long>(r.restores),
        static_cast<unsigned long long>(r.latency_updates),
        static_cast<unsigned long long>(r.replaced_fragments),
        static_cast<unsigned long long>(r.dropped_queries),
        static_cast<unsigned long long>(r.tuples_dropped_dead),
        r.scale.mean_sic, r.scale.jain);
    std::printf("[%s] %s\n", name.c_str(), line);

    reporter.AddRow(name,
                    {static_cast<double>(r.scale.tuples_processed),
                     static_cast<double>(r.scale.tuples_shed),
                     static_cast<double>(r.replaced_fragments),
                     static_cast<double>(r.dropped_queries),
                     r.scale.mean_sic, r.scale.jain});
  }
  reporter.Print();
  return 0;
}
