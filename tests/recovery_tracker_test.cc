// RecoveryTracker math in isolation (metrics/recovery_tracker.h): dip
// depth, time-to-recover and area-under-dip against hand-computed series,
// the never-recovers (open dip at end of run) and unaffected (settled by
// the onset window) lifecycles, back-to-back overlapping dips with
// independent baselines, exact statistics from the newest sample alone,
// Jain-over-time, and the idempotence/coalescing rules the Fsps control
// plane relies on.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "metrics/recovery_tracker.h"

namespace themis {
namespace {

using Sics = std::vector<std::pair<QueryId, double>>;

RecoveryTrackerOptions SmallOptions() {
  RecoveryTrackerOptions opts;
  opts.enabled = true;
  opts.sample_interval = Millis(250);
  opts.recover_fraction = 0.9;
  opts.dip_onset_window = Seconds(2);
  return opts;
}

TEST(RecoveryTrackerTest, DipDepthTtrAndAreaMatchHandComputedSeries) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 1.0}});
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  // 1 s steps: 0.5 (dip opens), 0.2 (deepest), 0.95 (recovered).
  tracker.Sample(Seconds(2), Sics{{0, 0.5}});
  tracker.Sample(Seconds(3), Sics{{0, 0.2}});
  tracker.Sample(Seconds(4), Sics{{0, 0.95}});

  ASSERT_EQ(tracker.disturbances().size(), 1u);
  const Disturbance& d = tracker.disturbances()[0];
  EXPECT_FALSE(d.open);
  ASSERT_EQ(d.dips.size(), 1u);
  const QueryDip& dip = d.dips[0];
  EXPECT_DOUBLE_EQ(dip.baseline, 1.0);
  EXPECT_DOUBLE_EQ(dip.threshold, 0.9);
  EXPECT_TRUE(dip.dipped);
  EXPECT_TRUE(dip.recovered);
  EXPECT_DOUBLE_EQ(dip.dip_depth, 0.8);
  // (1-0.5)*1s + (1-0.2)*1s + (1-0.95)*1s = 1.35 SIC-seconds.
  EXPECT_DOUBLE_EQ(dip.area_under_dip, 1.35);
  EXPECT_EQ(dip.recover_time, Seconds(4));
  EXPECT_EQ(dip.time_to_recover, Seconds(3));

  RecoverySummary s = tracker.Summarize(DisturbanceKind::kCrashWave);
  EXPECT_EQ(s.disturbances, 1);
  EXPECT_EQ(s.affected, 1);
  EXPECT_EQ(s.unrecovered, 0);
  EXPECT_DOUBLE_EQ(s.mean_dip_depth, 0.8);
  EXPECT_DOUBLE_EQ(s.max_dip_depth, 0.8);
  EXPECT_DOUBLE_EQ(s.mean_ttr_ms, 3000.0);
  EXPECT_DOUBLE_EQ(s.max_ttr_ms, 3000.0);
  EXPECT_DOUBLE_EQ(s.mean_censored_ttr_ms, 3000.0);
  EXPECT_DOUBLE_EQ(s.mean_area_under_dip, 1.35);
}

TEST(RecoveryTrackerTest, NeverRecoversStaysOpenAndIsCensored) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 1.0}});
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  tracker.Sample(Seconds(2), Sics{{0, 0.3}});
  tracker.Sample(Seconds(3), Sics{{0, 0.4}});
  tracker.Sample(Seconds(4), Sics{{0, 0.5}});  // still < 0.9 at end of run

  const Disturbance& d = tracker.disturbances()[0];
  EXPECT_TRUE(d.open);
  const QueryDip& dip = d.dips[0];
  EXPECT_TRUE(dip.dipped);
  EXPECT_FALSE(dip.recovered);
  EXPECT_EQ(dip.time_to_recover, -1);
  EXPECT_DOUBLE_EQ(dip.dip_depth, 0.7);

  RecoverySummary s = tracker.SummarizeAll();
  EXPECT_EQ(s.affected, 1);
  EXPECT_EQ(s.unrecovered, 1);
  EXPECT_DOUBLE_EQ(s.mean_ttr_ms, 0.0);  // nothing recovered
  // Censored at end of run: 4 s - 1 s = 3000 ms elapsed open time.
  EXPECT_DOUBLE_EQ(s.mean_censored_ttr_ms, 3000.0);
}

TEST(RecoveryTrackerTest, LateDipAtRunEndIsFlooredAtTheOnsetWindow) {
  // A disturbance landing in the final moments of a run has almost no
  // elapsed open time; counting the raw 250 ms would *deflate* the censored
  // mean below what the dip is known to cost (it is still developing when
  // the run ends). Both censored means floor such dips at the onset window.
  RecoveryTracker tracker(SmallOptions());  // onset window 2 s
  tracker.Sample(Seconds(1), Sics{{0, 1.0}, {1, 1.0}});
  tracker.Sample(Seconds(2), Sics{{0, 1.0}, {1, 1.0}});
  tracker.MarkDisturbance(Seconds(2), DisturbanceKind::kCrashWave);
  // Run ends one sample later: q1 collapsed (jain ~ 0.599 < 0.95 dips the
  // fairness index too), open for only 2250 ms - 2000 ms = 250 ms.
  tracker.Sample(Millis(2250), Sics{{0, 1.0}, {1, 0.1}});

  const Disturbance& d = tracker.disturbances()[0];
  EXPECT_TRUE(d.open);
  EXPECT_TRUE(d.jain.dipped);
  EXPECT_FALSE(d.jain.recovered);

  RecoverySummary s = tracker.Summarize(DisturbanceKind::kCrashWave);
  EXPECT_EQ(s.affected, 1);
  EXPECT_EQ(s.unrecovered, 1);
  EXPECT_EQ(s.jain_unrecovered, 1);
  // Hand-computed: raw open time is 250 ms, floored to the 2000 ms onset
  // window for both the per-query and the fairness censored means.
  EXPECT_DOUBLE_EQ(s.mean_censored_ttr_ms, 2000.0);
  EXPECT_DOUBLE_EQ(s.mean_jain_ttr_ms, 2000.0);
}

TEST(RecoveryTrackerTest, UntouchedQuerySettlesAfterTheOnsetWindow) {
  RecoveryTracker tracker(SmallOptions());  // onset window 2 s
  tracker.Sample(Seconds(1), Sics{{0, 1.0}});
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  // Never below the 0.9 threshold: the STW-smoothed dent must appear
  // within the onset window or the query settles as unaffected.
  tracker.Sample(Seconds(2), Sics{{0, 0.96}});
  tracker.Sample(Seconds(3), Sics{{0, 0.93}});
  EXPECT_TRUE(tracker.disturbances()[0].open);  // still armed at 2 s
  tracker.Sample(Seconds(4), Sics{{0, 0.95}});  // 3 s > onset window
  const Disturbance& d = tracker.disturbances()[0];
  EXPECT_FALSE(d.open);
  EXPECT_FALSE(d.dips[0].dipped);
  EXPECT_FALSE(d.dips[0].recovered);
  // Sub-threshold wobble still integrates as (small) dip depth/area, but
  // the pair is not "affected".
  EXPECT_NEAR(d.dips[0].dip_depth, 0.07, 1e-12);
  RecoverySummary s = tracker.SummarizeAll();
  EXPECT_EQ(s.affected, 0);
  EXPECT_EQ(s.unrecovered, 0);
}

TEST(RecoveryTrackerTest, OverlappingDisturbancesTrackIndependentBaselines) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 1.0}});
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  tracker.Sample(Seconds(2), Sics{{0, 0.4}});  // first dip open
  // Second fault lands while the first dip is still open: its baseline is
  // the already-dipped 0.4, threshold 0.36.
  tracker.MarkDisturbance(Seconds(2), DisturbanceKind::kCrashWave);
  tracker.Sample(Seconds(3), Sics{{0, 0.2}});  // below both thresholds
  tracker.Sample(Seconds(4), Sics{{0, 0.5}});  // recovers d2 only
  tracker.Sample(Seconds(5), Sics{{0, 0.95}});  // recovers d1 too

  ASSERT_EQ(tracker.disturbances().size(), 2u);
  const QueryDip& d1 = tracker.disturbances()[0].dips[0];
  const QueryDip& d2 = tracker.disturbances()[1].dips[0];
  EXPECT_DOUBLE_EQ(d1.baseline, 1.0);
  EXPECT_DOUBLE_EQ(d2.baseline, 0.4);
  EXPECT_TRUE(d1.recovered);
  EXPECT_TRUE(d2.recovered);
  EXPECT_EQ(d1.time_to_recover, Seconds(4));  // 1 s -> 5 s
  EXPECT_EQ(d2.time_to_recover, Seconds(2));  // 2 s -> 4 s
  EXPECT_DOUBLE_EQ(d1.dip_depth, 0.8);
  EXPECT_DOUBLE_EQ(d2.dip_depth, 0.2);
  // d1 integrates from 1 s: 0.6 + 0.8 + 0.5 + 0.05; d2 from its own mark
  // at 2 s against the lower baseline: 0.2 * 1 s only.
  EXPECT_DOUBLE_EQ(d1.area_under_dip, 1.95);
  EXPECT_DOUBLE_EQ(d2.area_under_dip, 0.2);
}

TEST(RecoveryTrackerTest, SameInstantSamplesAndMarksAreDeduplicated) {
  RecoveryTracker tracker(SmallOptions());
  EXPECT_TRUE(tracker.Sample(Seconds(1), Sics{{0, 1.0}}));
  EXPECT_FALSE(tracker.Sample(Seconds(1), Sics{{0, 0.1}}));  // first wins
  EXPECT_EQ(tracker.samples(), 1u);

  // A wave of control-plane calls at one instant is one disturbance.
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kRestore);
  ASSERT_EQ(tracker.disturbances().size(), 2u);
  EXPECT_EQ(tracker.disturbances()[0].events, 2);
  EXPECT_EQ(tracker.disturbances()[1].events, 1);
  EXPECT_EQ(tracker.disturbances()[1].kind, DisturbanceKind::kRestore);
  // Both baseline q0 at the instant's first reading.
  for (const Disturbance& d : tracker.disturbances()) {
    ASSERT_EQ(d.dips.size(), 1u);
    EXPECT_DOUBLE_EQ(d.dips[0].baseline, 1.0);
  }
}

TEST(RecoveryTrackerTest, StatsStayExactFromTheNewestSampleAlone) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 1.0}});
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  for (int i = 2; i <= 10; ++i) {
    tracker.Sample(Seconds(i), Sics{{0, i < 10 ? 0.5 : 0.95}});
  }
  EXPECT_EQ(tracker.samples(), 10u);
  EXPECT_EQ(tracker.last_sample_time(), Seconds(10));
  // Dip statistics accumulate online, so no sample history is kept:
  // 8 samples at 0.5 -> area 0.5 * 8 s, recovery at t = 10 s.
  const QueryDip& dip = tracker.disturbances()[0].dips[0];
  EXPECT_TRUE(dip.recovered);
  EXPECT_EQ(dip.time_to_recover, Seconds(9));
  EXPECT_DOUBLE_EQ(dip.dip_depth, 0.5);
  EXPECT_DOUBLE_EQ(dip.area_under_dip, 0.5 * 8 + 0.05);
}

TEST(RecoveryTrackerTest, JainSeriesTracksFairnessOverTime) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 0.5}, {1, 0.5}});
  EXPECT_DOUBLE_EQ(tracker.latest_jain(), 1.0);
  tracker.Sample(Seconds(2), Sics{{0, 0.8}, {1, 0.2}});
  // (0.8+0.2)^2 / (2 * (0.64+0.04)) = 1 / 1.36.
  EXPECT_NEAR(tracker.latest_jain(), 1.0 / 1.36, 1e-12);
  tracker.Sample(Seconds(3), Sics{{0, 0.5}, {1, 0.4}});
  EXPECT_EQ(tracker.samples(), 3u);
  EXPECT_NEAR(tracker.min_jain(), 1.0 / 1.36, 1e-12);
  // (0.5+0.4)^2 / (2 * (0.25+0.16)) = 0.81 / 0.82.
  EXPECT_NEAR(tracker.latest_jain(), 0.81 / 0.82, 1e-12);
  EXPECT_NEAR(tracker.SummarizeAll().final_jain, 0.81 / 0.82, 1e-12);
}

TEST(RecoveryTrackerTest, DepartedQueryStaysUnrecovered) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 1.0}, {1, 1.0}});
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  tracker.Sample(Seconds(2), Sics{{0, 0.1}, {1, 1.0}});  // q0 dips
  // q0 force-undeploys: it vanishes from later samples. Its dip can never
  // close, so it reports as unrecovered; q1 settles unaffected at the
  // onset window.
  tracker.Sample(Seconds(3), Sics{{1, 1.0}});
  tracker.Sample(Seconds(4), Sics{{1, 1.0}});
  const Disturbance& d = tracker.disturbances()[0];
  EXPECT_TRUE(d.open);
  EXPECT_TRUE(d.dips[0].dipped);
  EXPECT_FALSE(d.dips[0].recovered);
  EXPECT_FALSE(d.dips[1].dipped);
  RecoverySummary s = tracker.SummarizeAll();
  EXPECT_EQ(s.affected, 1);
  EXPECT_EQ(s.unrecovered, 1);
}

TEST(RecoveryTrackerTest, MonotoneClocksAndDeterministicDebugString) {
  auto run = [] {
    RecoveryTracker tracker(SmallOptions());
    tracker.Sample(Seconds(1), Sics{{0, 0.9}, {1, 0.7}});
    tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
    tracker.Sample(Seconds(2), Sics{{0, 0.3}, {1, 0.6}});
    tracker.MarkDisturbance(Seconds(2), DisturbanceKind::kLinkChange);
    tracker.Sample(Seconds(3), Sics{{0, 0.88}, {1, 0.7}});
    return tracker;
  };
  RecoveryTracker a = run();
  RecoveryTracker b = run();
  EXPECT_EQ(a.last_sample_time(), Seconds(3));
  SimTime prev = -1;
  for (const Disturbance& d : a.disturbances()) {
    EXPECT_GE(d.time, prev);
    prev = d.time;
  }
  EXPECT_FALSE(a.DebugString().empty());
  EXPECT_EQ(a.DebugString(), b.DebugString());
}

TEST(RecoveryTrackerTest, JainDipFollowsTheArmedDippedRecoveredLifecycle) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 1.0}, {1, 1.0}});  // jain = 1
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  // Query 1 collapses: jain = 1.1^2 / (2 * 1.01) ~ 0.599 < 0.95.
  tracker.Sample(Seconds(2), Sics{{0, 1.0}, {1, 0.1}});
  // Back near parity: jain = 1.9^2 / (2 * 1.81) ~ 0.997 >= 0.95.
  tracker.Sample(Seconds(3), Sics{{0, 1.0}, {1, 0.9}});

  const Disturbance& d = tracker.disturbances()[0];
  EXPECT_DOUBLE_EQ(d.jain.baseline, 1.0);
  EXPECT_DOUBLE_EQ(d.jain.threshold, 0.95);
  EXPECT_TRUE(d.jain.dipped);
  EXPECT_TRUE(d.jain.recovered);
  EXPECT_TRUE(d.jain.settled);
  EXPECT_EQ(d.jain.time_to_recover, Seconds(2));

  RecoverySummary s = tracker.Summarize(DisturbanceKind::kCrashWave);
  EXPECT_EQ(s.jain_dips, 1);
  EXPECT_EQ(s.jain_unrecovered, 0);
  EXPECT_DOUBLE_EQ(s.mean_jain_ttr_ms, 2000.0);
}

TEST(RecoveryTrackerTest, UnrecoveredJainDipIsCensoredIntoTheMean) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 1.0}, {1, 1.0}});
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  tracker.Sample(Seconds(2), Sics{{0, 1.0}, {1, 0.1}});
  tracker.Sample(Seconds(4), Sics{{0, 1.0}, {1, 0.2}});  // still unfair

  const Disturbance& d = tracker.disturbances()[0];
  EXPECT_TRUE(d.jain.dipped);
  EXPECT_FALSE(d.jain.recovered);
  EXPECT_TRUE(d.open);
  EXPECT_EQ(d.jain.time_to_recover, -1);

  // Censored: the open dip counts its elapsed time (4s - 1s = 3s).
  RecoverySummary s = tracker.Summarize(DisturbanceKind::kCrashWave);
  EXPECT_EQ(s.jain_dips, 1);
  EXPECT_EQ(s.jain_unrecovered, 1);
  EXPECT_DOUBLE_EQ(s.mean_jain_ttr_ms, 3000.0);
}

TEST(RecoveryTrackerTest, SteadyJainSettlesAfterTheOnsetWindow) {
  RecoveryTracker tracker(SmallOptions());
  tracker.Sample(Seconds(1), Sics{{0, 1.0}, {1, 1.0}});
  tracker.MarkDisturbance(Seconds(1), DisturbanceKind::kCrashWave);
  // Both queries dip together: SIC dips open but fairness never dents.
  tracker.Sample(Seconds(2), Sics{{0, 0.5}, {1, 0.5}});
  tracker.Sample(Seconds(4), Sics{{0, 0.95}, {1, 0.95}});  // past onset

  const Disturbance& d = tracker.disturbances()[0];
  EXPECT_FALSE(d.jain.dipped);
  EXPECT_TRUE(d.jain.settled);
  RecoverySummary s = tracker.Summarize(DisturbanceKind::kCrashWave);
  EXPECT_EQ(s.jain_dips, 0);
  EXPECT_DOUBLE_EQ(s.mean_jain_ttr_ms, 0.0);
}

}  // namespace
}  // namespace themis
