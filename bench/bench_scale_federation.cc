// Federation-scale engine benchmark: the 64-node WAN-of-LANs scenario
// (workload/scale_scenario.h) run on the parallel engine at 1 shard and at
// `--shards N` (default 4).
//
// Two jobs in one binary:
//  * Throughput: PerfRecorder captures tuples/s per shard count; CI gates
//    the parallel speedup (shards=N vs shards=1) via
//    bench/check_regression.py --min-speedup.
//  * Determinism: the printed report contains only simulated quantities
//    (tuple/message/event counts, SIC statistics) — never wall-clock — so
//    its bytes are a pure function of the scenario. CI byte-diffs two full
//    invocations to pin run-to-run determinism at every shard count, and
//    requires the shards=1 and shards=4 report lines to be equal: this
//    static scenario is where identity across shard counts is checked.
//
// Flags (besides the PerfRecorder ones): --shards N, --nodes N,
// --queries N.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/perf.h"
#include "federation/scale_federation.h"
#include "metrics/reporter.h"

int main(int argc, char** argv) {
  using namespace themis;
  using namespace themis::bench;
  PerfRecorder perf(argc, argv, "bench_scale_federation");
  std::printf("Federation-scale run: parallel engine (themis_parsim) at 1 "
              "shard vs N shards.\n");

  ScaleScenarioOptions so;
  so.nodes = IntFlag(argc, argv, "--nodes", 64);
  so.queries = IntFlag(argc, argv, "--queries", 96);
  // Heavier batches than the scenario default: more data-plane work per
  // epoch makes the parallel-efficiency measurement robust against barrier
  // overhead (and matches Table 2's higher-rate test-beds).
  so.source_rate = 150.0;
  SimDuration measure = Seconds(20);
  if (perf.quick()) {
    so.queries = IntFlag(argc, argv, "--queries", 64);
    measure = Seconds(10);
  }
  const int parallel_shards = IntFlag(argc, argv, "--shards", 4);
  ScaleScenario scenario = MakeScaleScenario(so);

  Reporter reporter(
      "Scale federation (" + std::to_string(so.nodes) + " nodes, " +
          std::to_string(so.queries) + " queries, " +
          std::to_string(so.clusters) + " LAN clusters over WAN)",
      {"engine", "processed", "shed", "messages", "events", "mean_SIC",
       "jain"});

  std::vector<int> shard_counts = {1};
  if (parallel_shards > 1) shard_counts.push_back(parallel_shards);

  for (int shards : shard_counts) {
    const std::string name = "shards=" + std::to_string(shards);
    FspsOptions fo;
    fo.shards = shards;
    auto fsps = MakeScaleFederation(scenario, fo);
    perf.BeginRun(name);
    ScaleRunResult r = RunScaleScenario(fsps.get(), scenario, measure);
    perf.EndRun(r.tuples_processed);

    // One deterministic line per shard count.
    char line[256];
    std::snprintf(line, sizeof(line),
                  "processed=%llu shed=%llu messages=%llu events=%llu "
                  "mean_sic=%.9f jain=%.9f",
                  static_cast<unsigned long long>(r.tuples_processed),
                  static_cast<unsigned long long>(r.tuples_shed),
                  static_cast<unsigned long long>(r.messages),
                  static_cast<unsigned long long>(r.events), r.mean_sic,
                  r.jain);
    std::printf("[%s] %s\n", name.c_str(), line);

    reporter.AddRow(name,
                    {static_cast<double>(r.tuples_processed),
                     static_cast<double>(r.tuples_shed),
                     static_cast<double>(r.messages),
                     static_cast<double>(r.events), r.mean_sic, r.jain});
  }
  reporter.Print();
  return 0;
}
