// Recovery benchmark: the churn + burst interaction scenario (crash waves
// and link drift while sources spike at 10x, workload/churn_scenario.h)
// with the recovery tracker enabled, comparing the two orphan re-placement
// policies — the PR 4 round-robin cursor vs the SIC-aware least-loaded
// chooser (federation/placement.h).
//
// Three jobs in one binary:
//  * Observability: for every crash wave the report lists each affected
//    query's SIC dip depth and time-to-recover (MTTR), plus per-wave and
//    whole-run summaries with the federation-wide Jain-over-time extremes.
//  * Fairness gate: SIC-aware re-placement must recover no slower than
//    round-robin — censored mean TTR over crash waves, compared in-binary
//    (the bench fails otherwise) and re-checked in CI from the emitted
//    BENCH_results.json metrics (check_regression.py --max-metric-ratio).
//  * Determinism: the report contains only simulated quantities, so its
//    bytes are a pure function of the scenario; CI byte-diffs two full
//    invocations (run-to-run identity at 1 shard and at `--shards N`).
//
// Flags (besides the PerfRecorder ones): --shards N, --nodes N,
// --queries N.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/perf.h"
#include "federation/churn_federation.h"
#include "metrics/recovery_tracker.h"
#include "metrics/reporter.h"

int main(int argc, char** argv) {
  using namespace themis;
  using namespace themis::bench;
  PerfRecorder perf(argc, argv, "bench_recovery");
  std::printf("Recovery run: churn + burst stress with per-query SIC "
              "dip/MTTR tracking, per re-placement policy.\n");

  ChurnScenarioOptions co;
  co.scale.nodes = IntFlag(argc, argv, "--nodes", 64);
  co.scale.queries = IntFlag(argc, argv, "--queries", 96);
  co.scale.source_rate = 150.0;
  // Deep waves: an eighth of the federation fails at once (the cluster-
  // majority invariant still holds), so the survivors lose real capacity
  // and the SIC dip / recovery arc is actually visible — the shallow
  // default waves vanish inside the 10 s STW smoothing. The waves start
  // only after the arrival ramp AND a full STW have passed (arrivals end
  // at ~8 s, STW is 10 s), so each query's pre-fault baseline is its
  // steady-state SIC, not a transient the load ramp would never return
  // to; the measure tail then leaves a full STW after the last restore
  // for SIC to climb back.
  co.crashes_per_wave = 8;
  co.downtime = Seconds(3);
  co.churn_start = Seconds(18);
  co.churn_horizon = Seconds(33);
  // §7.4 bursts: any given second runs at 10x (burst_multiplier's default)
  // with probability 0.10.
  co.scale.burst_prob = 0.10;
  SimDuration measure = Seconds(15);
  if (perf.quick()) {
    co.scale.queries = IntFlag(argc, argv, "--queries", 64);
    co.crash_waves = 2;
    co.churn_horizon = Seconds(28);
  }
  const int parallel_shards = IntFlag(argc, argv, "--shards", 4);
  ChurnScenario scenario = MakeChurnScenario(co);

  Reporter reporter(
      "Recovery under churn + burst (" + std::to_string(co.scale.nodes) +
          " nodes, " + std::to_string(co.scale.queries) + " queries, " +
          std::to_string(scenario.events.size()) + " topology events)",
      {"policy", "processed", "affected", "unrecov", "mean_dip",
       "cens_mttr_ms", "min_jain"});

  struct PolicyConfig {
    std::string name;
    ReplacementPolicy policy;
    int shards;
  };
  std::vector<PolicyConfig> configs = {
      {"round-robin", ReplacementPolicy::kRoundRobin, 1},
      {"sic-aware", ReplacementPolicy::kSicAware, 1},
  };
  if (parallel_shards > 1) {
    configs.push_back({"sic-aware/shards=" + std::to_string(parallel_shards),
                       ReplacementPolicy::kSicAware, parallel_shards});
  }

  // Crash-wave summaries of the two single-shard headline policies, for
  // the fairness gate.
  RecoverySummary headline[2];

  for (const PolicyConfig& config : configs) {
    FspsOptions fo;
    fo.replacement = config.policy;
    fo.shards = config.shards;
    fo.recovery.enabled = true;
    fo.recovery.recover_fraction = 0.85;
    auto fsps = MakeChurnFederation(scenario, fo);
    perf.BeginRun(config.name);
    ChurnRunResult r = RunChurnScenario(fsps.get(), scenario, measure);
    perf.EndRun(r.scale.tuples_processed);

    const RecoveryTracker& tracker = fsps->recovery_tracker();
    RecoverySummary waves = tracker.Summarize(DisturbanceKind::kCrashWave);
    perf.AddMetric("mean_censored_ttr_ms", waves.mean_censored_ttr_ms);
    perf.AddMetric("mean_ttr_ms", waves.mean_ttr_ms);
    perf.AddMetric("mean_dip_depth", waves.mean_dip_depth);
    perf.AddMetric("unrecovered", waves.unrecovered);
    perf.AddMetric("min_jain", waves.min_jain);
    // Fairness recovery (ROADMAP item 5): censored mean time for the Jain
    // index to regain 95% of its pre-fault value.
    perf.AddMetric("mean_jain_ttr_ms", waves.mean_jain_ttr_ms);
    perf.AddMetric("jain_dips", waves.jain_dips);

    // One deterministic line per config.
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "processed=%llu shed=%llu events=%llu replaced=%llu dropped=%llu "
        "samples=%llu waves=%d affected=%d unrecovered=%d "
        "mean_dip=%.9f max_dip=%.9f mttr_ms=%.3f censored_mttr_ms=%.3f "
        "mean_area=%.9f min_jain=%.9f final_jain=%.9f",
        static_cast<unsigned long long>(r.scale.tuples_processed),
        static_cast<unsigned long long>(r.scale.tuples_shed),
        static_cast<unsigned long long>(r.scale.events),
        static_cast<unsigned long long>(r.replaced_fragments),
        static_cast<unsigned long long>(r.dropped_queries),
        static_cast<unsigned long long>(tracker.samples()), waves.disturbances,
        waves.affected, waves.unrecovered, waves.mean_dip_depth,
        waves.max_dip_depth, waves.mean_ttr_ms, waves.mean_censored_ttr_ms,
        waves.mean_area_under_dip, waves.min_jain, waves.final_jain);
    std::printf("[%s] %s\n", config.name.c_str(), line);

    // Per-query dip depth and time-to-recover, listed for every crash wave
    // (only queries whose SIC actually dipped below the recovery
    // threshold; link-change disturbances are tracked too but summarized
    // rather than listed).
    int wave_index = 0;
    for (const Disturbance& d : tracker.disturbances()) {
      if (d.kind != DisturbanceKind::kCrashWave) continue;
      std::printf("[%s] wave %d t_ms=%lld crashes=%d:", config.name.c_str(),
                  wave_index, static_cast<long long>(d.time / kMillisecond),
                  d.events);
      int listed = 0;
      for (const QueryDip& dip : d.dips) {
        if (!dip.dipped) continue;
        std::printf(" q%d dip=%.4f ttr_ms=%lld", dip.query, dip.dip_depth,
                    static_cast<long long>(
                        dip.time_to_recover < 0
                            ? -1
                            : dip.time_to_recover / kMillisecond));
        ++listed;
      }
      if (listed == 0) std::printf(" (no query dipped)");
      std::printf("\n");
      ++wave_index;
    }

    if (config.shards == 1) {
      headline[config.policy == ReplacementPolicy::kSicAware ? 1 : 0] = waves;
    }

    reporter.AddRow(config.name,
                    {static_cast<double>(r.scale.tuples_processed),
                     static_cast<double>(waves.affected),
                     static_cast<double>(waves.unrecovered),
                     waves.mean_dip_depth, waves.mean_censored_ttr_ms,
                     waves.min_jain});
  }
  reporter.Print();

  // The fairness gate: moving orphans to the least-loaded live node must
  // recover fairness no slower than the blind cursor. Censored MTTR, so
  // "never recovered" cannot hide from the mean. Deterministic quantities:
  // no tolerance needed.
  const RecoverySummary& rr = headline[0];
  const RecoverySummary& sic = headline[1];
  std::printf("crash-wave censored MTTR: sic-aware %.3f ms vs round-robin "
              "%.3f ms\n",
              sic.mean_censored_ttr_ms, rr.mean_censored_ttr_ms);
  if (sic.mean_censored_ttr_ms > rr.mean_censored_ttr_ms) {
    std::fprintf(stderr,
                 "FAIL: SIC-aware re-placement recovered slower than "
                 "round-robin\n");
    return 1;
  }
  std::printf("sic-aware recovers no slower than round-robin: OK\n");
  return 0;
}
