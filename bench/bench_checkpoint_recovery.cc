// Checkpoint-recovery benchmark: the crash-state ablation behind ROADMAP
// item 4. The churn scenario (crash waves + link drift) runs with *wide*
// 8 s windows — so a crash mid-pane destroys a visible amount of
// accumulated operator state — once per crash-state mode and checkpoint
// cadence / error-bound point, with the recovery tracker measuring each
// wave's SIC dip depth, censored MTTR and area-under-dip.
//
// Three jobs in one binary:
//  * Trade-off sweep: reset (cold standby, the default crash state) and
//    checkpoint restore at cadences 2000/500/250 ms plus an approximate
//    (error-bound) point — recovery quality vs serialized-byte overhead.
//  * Gates (in-binary, deterministic): capture overhead stays monotone in
//    cadence; the approximate point skips captures and writes fewer bytes
//    than its exact twin; checkpoint restore dips no deeper than reset.
//  * Determinism: enabling capture without ever restoring (reset+capture)
//    must leave the simulated run byte-identical to the checkpoint-off
//    reset run. CI byte-diffs two full invocations on top (run-to-run
//    identity at shards 1 and the sharded config).
//
// Flags (besides the PerfRecorder ones): --shards N, --nodes N,
// --queries N.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/perf.h"
#include "federation/churn_federation.h"
#include "metrics/recovery_tracker.h"
#include "metrics/reporter.h"

int main(int argc, char** argv) {
  using namespace themis;
  using namespace themis::bench;
  PerfRecorder perf(argc, argv, "bench_checkpoint_recovery");
  std::printf("Checkpoint recovery run: crash-state modes x checkpoint "
              "cadence/error-bound under churn, wide (8 s) windows.\n");

  ChurnScenarioOptions co;
  co.scale.nodes = IntFlag(argc, argv, "--nodes", 32);
  co.scale.clusters = 4;
  co.scale.queries = IntFlag(argc, argv, "--queries", 48);
  co.scale.arrival_wave = 12;
  co.scale.source_rate = 150.0;
  // The point of the exercise: windows much longer than the checkpoint
  // cadence, so reset and the checkpoint cadences genuinely diverge in how
  // much pane state survives a mid-pane crash.
  co.scale.window = Seconds(8);
  // Deep waves after the arrival ramp and a full STW (see bench_recovery):
  // each query's pre-fault baseline is its steady state, and the measure
  // tail leaves the last restore a full STW to climb back.
  co.crashes_per_wave = 4;
  co.downtime = Seconds(3);
  co.churn_start = Seconds(18);
  co.churn_horizon = Seconds(30);
  SimDuration measure = Seconds(12);
  if (perf.quick()) {
    co.scale.queries = IntFlag(argc, argv, "--queries", 32);
    co.crash_waves = 2;
    co.churn_horizon = Seconds(26);
  }
  const int parallel_shards = IntFlag(argc, argv, "--shards", 4);
  ChurnScenario scenario = MakeChurnScenario(co);

  Reporter reporter(
      "Crash recovery vs checkpoint cadence (" +
          std::to_string(co.scale.nodes) + " nodes, " +
          std::to_string(co.scale.queries) + " queries, 8 s windows)",
      {"mode", "processed", "affected", "mean_dip", "cens_mttr_ms",
       "mean_area", "ckpt_kb"});

  struct ModeConfig {
    std::string name;
    CrashStateMode crash_state;
    bool capture;
    SimDuration cadence;
    double error_bound;
    int shards;
  };
  std::vector<ModeConfig> configs = {
      {"reset", CrashStateMode::kReset, false, 0, 0.0, 1},
      // Same simulated run as reset, but capturing: the identity gate
      // proving capture does zero simulated work.
      {"reset+capture", CrashStateMode::kReset, true, Millis(250), 0.0, 1},
      {"ckpt/2000ms", CrashStateMode::kCheckpoint, true, Millis(2000), 0.0,
       1},
      {"ckpt/500ms", CrashStateMode::kCheckpoint, true, Millis(500), 0.0, 1},
      {"ckpt/250ms", CrashStateMode::kCheckpoint, true, Millis(250), 0.0, 1},
      {"ckpt/250ms/approx", CrashStateMode::kCheckpoint, true, Millis(250),
       0.5, 1},
  };
  if (parallel_shards > 1) {
    configs.push_back({"ckpt/250ms/shards=" + std::to_string(parallel_shards),
                       CrashStateMode::kCheckpoint, true, Millis(250), 0.0,
                       parallel_shards});
  }

  struct ModeOutcome {
    std::string line;  // deterministic result line (identity comparisons)
    RecoverySummary waves;
    CheckpointStore::Stats ckpt;  // summed over all node stores
  };
  std::map<std::string, ModeOutcome> outcomes;

  for (const ModeConfig& config : configs) {
    FspsOptions fo;
    fo.crash_state = config.crash_state;
    fo.checkpoint.enabled = config.capture;
    fo.checkpoint.cadence =
        config.cadence > 0 ? config.cadence : Millis(500);
    fo.checkpoint.error_bound = config.error_bound;
    fo.shards = config.shards;
    fo.recovery.enabled = true;
    fo.recovery.recover_fraction = 0.85;
    auto fsps = MakeChurnFederation(scenario, fo);
    perf.BeginRun(config.name);
    ChurnRunResult r = RunChurnScenario(fsps.get(), scenario, measure);
    perf.EndRun(r.scale.tuples_processed);

    const RecoveryTracker& tracker = fsps->recovery_tracker();
    RecoverySummary waves = tracker.Summarize(DisturbanceKind::kCrashWave);
    CheckpointStore::Stats ckpt;
    for (NodeId id : fsps->node_ids()) {
      const CheckpointStore::Stats& s =
          fsps->node(id)->checkpoint_store()->stats();
      ckpt.taken += s.taken;
      ckpt.skipped_clean += s.skipped_clean;
      ckpt.restores += s.restores;
      ckpt.missed += s.missed;
      ckpt.bytes_written += s.bytes_written;
    }
    perf.AddMetric("mean_dip_depth", waves.mean_dip_depth);
    perf.AddMetric("mean_censored_ttr_ms", waves.mean_censored_ttr_ms);
    perf.AddMetric("mean_area_under_dip", waves.mean_area_under_dip);
    perf.AddMetric("unrecovered", waves.unrecovered);
    perf.AddMetric("min_jain", waves.min_jain);
    perf.AddMetric("ckpt_taken", static_cast<double>(ckpt.taken));
    perf.AddMetric("ckpt_skipped_clean",
                   static_cast<double>(ckpt.skipped_clean));
    perf.AddMetric("ckpt_restores", static_cast<double>(ckpt.restores));
    perf.AddMetric("ckpt_bytes_written",
                   static_cast<double>(ckpt.bytes_written));

    // The deterministic result line. Checkpoint counters are printed on a
    // separate line: the reset+capture identity gate compares *simulated
    // results* against the capture-off run, which by design has different
    // capture counters.
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "processed=%llu shed=%llu events=%llu replaced=%llu dropped=%llu "
        "waves=%d affected=%d unrecovered=%d mean_dip=%.9f max_dip=%.9f "
        "censored_mttr_ms=%.3f mean_area=%.9f min_jain=%.9f final_jain=%.9f",
        static_cast<unsigned long long>(r.scale.tuples_processed),
        static_cast<unsigned long long>(r.scale.tuples_shed),
        static_cast<unsigned long long>(r.scale.events),
        static_cast<unsigned long long>(r.replaced_fragments),
        static_cast<unsigned long long>(r.dropped_queries), waves.disturbances,
        waves.affected, waves.unrecovered, waves.mean_dip_depth,
        waves.max_dip_depth, waves.mean_censored_ttr_ms,
        waves.mean_area_under_dip, waves.min_jain, waves.final_jain);
    std::printf("[%s] %s\n", config.name.c_str(), line);
    std::printf("[%s] ckpt taken=%llu skipped_clean=%llu restores=%llu "
                "missed=%llu bytes=%llu\n",
                config.name.c_str(),
                static_cast<unsigned long long>(ckpt.taken),
                static_cast<unsigned long long>(ckpt.skipped_clean),
                static_cast<unsigned long long>(ckpt.restores),
                static_cast<unsigned long long>(ckpt.missed),
                static_cast<unsigned long long>(ckpt.bytes_written));

    outcomes[config.name] = {line, waves, ckpt};
    reporter.AddRow(config.name,
                    {static_cast<double>(r.scale.tuples_processed),
                     static_cast<double>(waves.affected),
                     waves.mean_dip_depth, waves.mean_censored_ttr_ms,
                     waves.mean_area_under_dip,
                     static_cast<double>(ckpt.bytes_written) / 1024.0});
  }
  reporter.Print();

  int failures = 0;
  auto gate = [&failures](bool ok, const char* what) {
    std::printf("%s: %s\n", what, ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  };

  const ModeOutcome& reset = outcomes.at("reset");
  const ModeOutcome& captured = outcomes.at("reset+capture");
  const ModeOutcome& c2000 = outcomes.at("ckpt/2000ms");
  const ModeOutcome& c500 = outcomes.at("ckpt/500ms");
  const ModeOutcome& c250 = outcomes.at("ckpt/250ms");
  const ModeOutcome& approx = outcomes.at("ckpt/250ms/approx");

  // Determinism: capture with no restore perturbs nothing, bit for bit.
  gate(captured.ckpt.taken > 0 && captured.line == reset.line,
       "capture-only run byte-identical to checkpoint-off");
  // Overhead is monotone in cadence, and the approximate point skips
  // captures (writing strictly fewer bytes than its exact twin).
  gate(c250.ckpt.bytes_written > c500.ckpt.bytes_written &&
           c500.ckpt.bytes_written > c2000.ckpt.bytes_written &&
           c2000.ckpt.bytes_written > 0,
       "serialized bytes monotone in capture cadence");
  gate(approx.ckpt.skipped_clean > 0 &&
           approx.ckpt.bytes_written < c250.ckpt.bytes_written,
       "error-bound point skips clean captures and writes fewer bytes");
  // Recovery: every crash wave restored from images, and the restored runs
  // dip no deeper (and lose no more SIC-seconds) than the cold reset.
  gate(c250.ckpt.restores > 0 && c250.ckpt.missed == 0,
       "every re-placed operator restored from an image at 250 ms");
  gate(c250.waves.mean_dip_depth <= reset.waves.mean_dip_depth,
       "250 ms checkpoint restore dips no deeper than reset");
  gate(c250.waves.mean_area_under_dip <= reset.waves.mean_area_under_dip,
       "250 ms checkpoint restore loses no more SIC-seconds than reset");

  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d checkpoint-recovery gate(s) failed\n",
                 failures);
    return 1;
  }
  return 0;
}
