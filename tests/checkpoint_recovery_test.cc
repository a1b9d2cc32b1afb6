// Federation-level checkpoint/recovery tests (ROADMAP item 4): crash-time
// state semantics (kReset, the default, vs kCheckpoint), capture riding the
// shed tick, the byte-compat contract (enabling checkpoints perturbs
// nothing while no restore happens; sharded runs with restores stay
// deterministic), and query-retirement hygiene — panes return to the
// BatchPool, images leave every store, repeated deploy/undeploy cycles do
// not accumulate allocations (the ASan job covers this file too).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/alloc_counter.h"
#include "federation/fsps.h"
#include "workload/workloads.h"

namespace themis {
namespace {

// One crash-mid-pane experiment, repeated per crash-state mode. An 8 s
// tumbling AVG window accumulates ~5 s of tuples on node 1, the node dies
// mid-pane, the orphaned fragment re-places onto node 0, and the pane
// releases at 8 s — so the released result's SIC mass is a direct probe of
// what state survived the crash.
struct CrashRun {
  double sic = 0.0;              // Eq. 4 (clamped): health probe only
  double result_sic_mass = 0.0;  // cumulative delivered SIC: the state probe
  uint64_t result_tuples = 0;
  CheckpointStore::Stats crashed_store;   // stats of the crashed node's store
  size_t survivor_images = 0;             // images moved to the new host
  std::vector<double> all_sics;
  NodeStats node_totals;
};

constexpr SimDuration kWindow = Seconds(8);
constexpr SimTime kCrashAt = Millis(5130);      // strictly mid-pane
constexpr SimDuration kDrain = Millis(7870);    // to 13 s: pane released

// An unset `mode` keeps the default FspsOptions::crash_state.
CrashRun RunCrashExperiment(std::optional<CrashStateMode> mode,
                            bool checkpoints, double error_bound = 0.0) {
  FspsOptions opts;
  opts.seed = 77;
  if (mode.has_value()) opts.crash_state = *mode;
  opts.checkpoint.enabled = checkpoints;
  opts.checkpoint.cadence = Millis(250);
  opts.checkpoint.error_bound = error_bound;
  // Eq. 4 clamps to [0, 1] and this unshedded scenario pins it there; the
  // recorded per-result SIC mass is the unclamped probe of surviving state.
  opts.coordinator.record_results = true;
  Fsps fsps(opts);
  NodeId survivor = fsps.AddNode();
  NodeId victim = fsps.AddNode();

  WorkloadFactory factory(9);
  AggregateQueryOptions ao;
  ao.window = kWindow;
  BuiltQuery built = factory.MakeAvg(1, ao);
  EXPECT_TRUE(fsps.Deploy(std::move(built.graph), {{0, victim}}).ok());
  EXPECT_TRUE(fsps.AttachSources(1, built.sources).ok());

  fsps.RunFor(kCrashAt);
  EXPECT_TRUE(fsps.PlanTopology().Crash(victim).Apply().ok());
  fsps.RunFor(kDrain);

  CrashRun r;
  r.sic = fsps.QuerySic(1);
  for (const ResultRecord& rec : fsps.coordinator(1)->results()) {
    r.result_sic_mass += rec.sic;
  }
  r.result_tuples = fsps.coordinator(1)->result_tuples();
  r.crashed_store = fsps.node(victim)->checkpoint_store()->stats();
  r.survivor_images = fsps.node(survivor)->checkpoint_store()->size();
  r.all_sics = fsps.AllQuerySics();
  r.node_totals = fsps.TotalNodeStats();
  return r;
}

// The default crash state is an actual cold standby: the re-placed
// fragment does not inherit the crashed node's window contents through the
// shared QueryGraph, so the released pane carries exactly the SIC mass of
// an explicit kReset run.
TEST(CrashStateModeTest, DefaultIsReset) {
  CrashRun fallback = RunCrashExperiment(std::nullopt, /*checkpoints=*/false);
  CrashRun reset =
      RunCrashExperiment(CrashStateMode::kReset, /*checkpoints=*/false);

  ASSERT_GT(reset.result_tuples, 0u);
  EXPECT_EQ(fallback.result_sic_mass, reset.result_sic_mass);
  EXPECT_EQ(fallback.result_tuples, reset.result_tuples);
}

// The tentpole: kCheckpoint restores the re-placed fragment from the
// crashed node's store. With a 250 ms cadence the last image is at most one
// shed tick older than the crash, so the restored pane recovers almost all
// of the SIC mass a reset run forfeits.
TEST(CrashStateModeTest, CheckpointRestoreRecoversMostOfTheLostState) {
  CrashRun ckpt = RunCrashExperiment(CrashStateMode::kCheckpoint,
                                     /*checkpoints=*/true);
  CrashRun reset =
      RunCrashExperiment(CrashStateMode::kReset, /*checkpoints=*/false);

  // The crashed node had been capturing all along...
  EXPECT_GT(ckpt.crashed_store.taken, 0u);
  EXPECT_GT(ckpt.crashed_store.bytes_written, 0u);
  // ...every orphaned operator restored from an image (none missed)...
  EXPECT_GT(ckpt.crashed_store.restores, 0u);
  EXPECT_EQ(ckpt.crashed_store.missed, 0u);
  // ...and the images migrated to the new host's store with the fragment.
  EXPECT_GT(ckpt.survivor_images, 0u);

  // Both runs survive the crash and deliver the released pane.
  ASSERT_GT(ckpt.result_tuples, 0u);
  ASSERT_GT(reset.result_tuples, 0u);
  ASSERT_GT(reset.sic, 0.0);
  ASSERT_GT(reset.result_sic_mass, 0.0);
  EXPECT_GT(ckpt.result_sic_mass, reset.result_sic_mass);
}

// Approximate mode: an absurdly large error bound skips every re-capture
// after the mandatory first image, and the restored state is accordingly
// stale — still at least as good as a cold reset (the first image may be
// nearly empty, never worse than empty).
TEST(CrashStateModeTest, ApproximateModeSkipsRecapturesAndStillRestores) {
  CrashRun approx = RunCrashExperiment(CrashStateMode::kCheckpoint,
                                       /*checkpoints=*/true,
                                       /*error_bound=*/1e18);
  CrashRun exact = RunCrashExperiment(CrashStateMode::kCheckpoint,
                                      /*checkpoints=*/true,
                                      /*error_bound=*/0.0);

  EXPECT_GT(approx.crashed_store.skipped_clean, 0u);
  // Exact mode re-captures dirty operators at every sweep; the approximate
  // run writes strictly fewer images and strictly fewer bytes.
  EXPECT_LT(approx.crashed_store.taken, exact.crashed_store.taken);
  EXPECT_LT(approx.crashed_store.bytes_written,
            exact.crashed_store.bytes_written);
  EXPECT_GT(approx.crashed_store.restores, 0u);
  // Staleness costs SIC: the bounded-error image cannot beat the fresh one.
  EXPECT_LE(approx.result_sic_mass, exact.result_sic_mass);
  ASSERT_GT(approx.result_tuples, 0u);
}

// Byte-compat contract: with crash_state = kReset, turning checkpoint
// capture ON must change nothing observable — capture does zero simulated
// work and nothing ever restores, so every figure (SIC, result count, node
// totals) is bit-identical to the checkpoint-off run, crash included.
TEST(CheckpointDeterminismTest, CaptureAloneIsByteIdenticalToOff) {
  CrashRun off =
      RunCrashExperiment(CrashStateMode::kReset, /*checkpoints=*/false);
  CrashRun on =
      RunCrashExperiment(CrashStateMode::kReset, /*checkpoints=*/true);

  // The on-run genuinely captured (this is not a vacuous comparison)...
  EXPECT_GT(on.crashed_store.taken, 0u);
  // ...yet the simulation is untouched, bit for bit.
  ASSERT_EQ(on.all_sics.size(), off.all_sics.size());
  for (size_t i = 0; i < off.all_sics.size(); ++i) {
    EXPECT_EQ(on.all_sics[i], off.all_sics[i]) << "query index " << i;
  }
  EXPECT_EQ(on.result_tuples, off.result_tuples);
  EXPECT_EQ(on.result_sic_mass, off.result_sic_mass);
  EXPECT_EQ(on.node_totals.tuples_processed, off.node_totals.tuples_processed);
  EXPECT_EQ(on.node_totals.tuples_shed, off.node_totals.tuples_shed);
}

// Run-to-run bit-identity on the sharded engine with a checkpoint-restoring
// crash: the restore path must not introduce any iteration-order or timing
// nondeterminism.
TEST(CheckpointDeterminismTest, ShardedCrashRestoreIsRunToRunDeterministic) {
  auto run = [] {
    FspsOptions opts;
    opts.seed = 77;
    opts.shards = 2;
    opts.default_link_latency = Millis(50);
    opts.crash_state = CrashStateMode::kCheckpoint;
    opts.checkpoint.enabled = true;
    opts.checkpoint.cadence = Millis(250);
    Fsps fsps(opts);
    std::vector<NodeId> nodes;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(*fsps.AddNode(opts.node, i / 2));  // 0,1 | 2,3
    }
    WorkloadFactory factory(9);
    ComplexQueryOptions co;
    co.fragments = 2;
    co.source_rate = 50;
    co.window = Seconds(4);
    BuiltQuery built = factory.MakeCov(1, co);
    std::map<FragmentId, NodeId> placement = {{0, nodes[2]}, {1, nodes[3]}};
    EXPECT_TRUE(fsps.Deploy(std::move(built.graph), placement).ok());
    EXPECT_TRUE(fsps.AttachSources(1, built.sources).ok());
    fsps.RunFor(Millis(3370));
    EXPECT_TRUE(fsps.PlanTopology().Crash(nodes[3]).Apply().ok());
    fsps.RunFor(Seconds(8));
    return std::make_pair(fsps.AllQuerySics(),
                          fsps.node(nodes[3])->checkpoint_store()->stats());
  };
  auto [sics_a, stats_a] = run();
  auto [sics_b, stats_b] = run();
  ASSERT_GT(stats_a.restores, 0u);
  ASSERT_EQ(sics_a.size(), sics_b.size());
  for (size_t i = 0; i < sics_a.size(); ++i) {
    EXPECT_EQ(sics_a[i], sics_b[i]) << "query index " << i;
  }
  EXPECT_EQ(stats_a.taken, stats_b.taken);
  EXPECT_EQ(stats_a.bytes_written, stats_b.bytes_written);
}

// Capture wiring: with checkpoints enabled every node sweeps its hosted
// operators on the cadence grid; exact mode (error_bound 0) re-captures any
// dirty operator, approximate mode skips clean ones.
TEST(CheckpointCaptureTest, NodesCaptureOnTheCadenceGrid) {
  FspsOptions opts;
  opts.seed = 11;
  opts.checkpoint.enabled = true;
  opts.checkpoint.cadence = Millis(500);
  Fsps fsps(opts);
  NodeId n = fsps.AddNode();
  WorkloadFactory factory(11);
  BuiltQuery built = factory.MakeAvg(1);
  ASSERT_TRUE(fsps.Deploy(std::move(built.graph), {{0, n}}).ok());
  ASSERT_TRUE(fsps.AttachSources(1, built.sources).ok());
  fsps.RunFor(Seconds(5));

  CheckpointStore* store = fsps.node(n)->checkpoint_store();
  // ~10 sweeps over 3 stateful-seam operators: many images, all resident.
  EXPECT_GT(store->stats().taken, 3u);
  EXPECT_GT(store->size(), 0u);
  EXPECT_GT(store->resident_bytes(), 0u);
  EXPECT_EQ(store->stats().restores, 0u);
}

// Satellite 2, part 1: Undeploy hands the retired graph's window panes and
// batch buffers back to the hosting node's BatchPool instead of stranding
// them in the retired graph until federation teardown.
TEST(RetirementTest, UndeployReturnsWindowPanesToThePool) {
  FspsOptions opts;
  opts.seed = 11;
  opts.checkpoint.enabled = true;  // also exercises store hygiene below
  Fsps fsps(opts);
  NodeId n = fsps.AddNode();
  WorkloadFactory factory(11);
  AggregateQueryOptions ao;
  ao.window = Seconds(4);
  BuiltQuery built = factory.MakeAvg(1, ao);
  ASSERT_TRUE(fsps.Deploy(std::move(built.graph), {{0, n}}).ok());
  ASSERT_TRUE(fsps.AttachSources(1, built.sources).ok());
  // Stop mid-pane: the 4 s window is open with ~2 s of buffered tuples.
  fsps.RunFor(Millis(2130));

  ASSERT_GT(fsps.node(n)->checkpoint_store()->size(), 0u);
  uint64_t released_before = fsps.node(n)->batch_pool()->stats().row_released;
  ASSERT_TRUE(fsps.Undeploy(1).ok());
  // The open pane's tuple buffer came back to the free list...
  EXPECT_GT(fsps.node(n)->batch_pool()->stats().row_released,
            released_before);
  // ...and the query's images left every store.
  EXPECT_EQ(fsps.node(n)->checkpoint_store()->size(), 0u);

  // The drained federation keeps running cleanly (ASan covers leaks).
  fsps.RunFor(Seconds(2));
  EXPECT_TRUE(fsps.query_ids().empty());
}

// Satellite 2, part 2: repeated deploy / run / undeploy cycles reuse pooled
// buffers instead of allocating fresh ones each round. Retired graphs and
// coordinators accumulate by design (in-flight events may still point at
// them), so the assertion is on per-cycle allocation *flatness*, not on
// live bytes.
TEST(RetirementTest, DeployCyclesDoNotAccumulateAllocationChurn) {
  ForceLinkAllocCounter();
  ASSERT_TRUE(AllocCounter::active());

  FspsOptions opts;
  opts.seed = 11;
  Fsps fsps(opts);
  NodeId n = fsps.AddNode();
  WorkloadFactory factory(11);

  std::vector<uint64_t> cycle_allocs;
  for (QueryId q = 1; q <= 6; ++q) {
    uint64_t before = AllocCounter::allocations();
    BuiltQuery built = factory.MakeAvg(q);
    ASSERT_TRUE(fsps.Deploy(std::move(built.graph), {{0, n}}).ok());
    ASSERT_TRUE(fsps.AttachSources(q, built.sources).ok());
    fsps.RunFor(Seconds(3));
    ASSERT_TRUE(fsps.Undeploy(q).ok());
    cycle_allocs.push_back(AllocCounter::allocations() - before);
  }
  // Cycle 1 warms the pools; later cycles must not out-allocate the warm
  // second cycle by more than slack (1.25x absorbs map-node jitter).
  ASSERT_GT(cycle_allocs[1], 0u);
  for (size_t i = 2; i < cycle_allocs.size(); ++i) {
    EXPECT_LT(static_cast<double>(cycle_allocs[i]),
              1.25 * static_cast<double>(cycle_allocs[1]))
        << "cycle " << i << " allocated " << cycle_allocs[i] << " vs warm "
        << cycle_allocs[1];
  }
  // And the pool genuinely recycled retired panes.
  EXPECT_GT(fsps.node(n)->batch_pool()->stats().row_released, 0u);
  EXPECT_GT(fsps.node(n)->batch_pool()->hits(), 0u);
}

}  // namespace
}  // namespace themis
