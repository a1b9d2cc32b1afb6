// Reproducibility tests: the whole simulation is seed-deterministic, which
// is what makes every EXPERIMENTS.md number regenerable bit-for-bit.
#include <gtest/gtest.h>

#include "federation/churn_federation.h"
#include "federation/fsps.h"
#include "federation/placement.h"
#include "workload/workloads.h"

namespace themis {
namespace {

std::vector<double> RunOnce(uint64_t seed, int shards = 1) {
  FspsOptions opts;
  opts.seed = seed;
  opts.node.cpu_speed = 0.005;  // overloaded: shedding decisions involved
  opts.shards = shards;
  if (shards > 1) {
    // A wider link keeps the epoch count modest for the multi-shard run;
    // multi-shard results are only compared against other multi-shard runs.
    opts.default_link_latency = Millis(50);
  }
  Fsps fsps(opts);
  fsps.AddNode();
  fsps.AddNode();
  WorkloadFactory factory(seed);
  Rng place_rng(seed + 1);
  for (QueryId q = 0; q < 8; ++q) {
    ComplexQueryOptions co;
    co.fragments = 1 + (q % 2);
    co.sources_per_fragment = 4;
    co.source_rate = 80;
    BuiltQuery built = factory.MakeRandomComplex(q, co);
    auto placement = PlaceFragments(*built.graph, fsps.node_ids(),
                                    PlacementPolicy::kUniformRandom, 0.0,
                                    &place_rng);
    EXPECT_TRUE(fsps.Deploy(std::move(built.graph), placement).ok());
    EXPECT_TRUE(fsps.AttachSources(q, built.sources).ok());
  }
  fsps.RunFor(Seconds(25));
  return fsps.AllQuerySics();
}

TEST(DeterminismTest, SameSeedSameOutcome) {
  auto a = RunOnce(101);
  auto b = RunOnce(101);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "query " << i;
  }
}

TEST(DeterminismTest, DifferentSeedDifferentOutcome) {
  auto a = RunOnce(101);
  auto b = RunOnce(202);
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(DeterminismTest, ParsimMultiShardIsDeterministic) {
  // Two shards, nodes split across them: repeated runs must agree exactly
  // (the conservative epoch merge is interleaving-independent).
  auto a = RunOnce(101, /*shards=*/2);
  auto b = RunOnce(101, /*shards=*/2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "query " << i;
  }
}

// One small churn run: crash waves, restores and link drift on a 16-node
// federation, returning every deterministic aggregate.
ChurnRunResult RunChurnOnce(uint64_t seed, int shards = 1) {
  ChurnScenarioOptions co;
  co.scale.nodes = 16;
  co.scale.clusters = 4;
  co.scale.queries = 16;
  co.scale.arrival_wave = 8;
  co.scale.seed = seed;
  co.crashes_per_wave = 1;
  co.churn_horizon = Seconds(16);
  ChurnScenario scenario = MakeChurnScenario(co);
  FspsOptions fo;
  fo.shards = shards;
  auto fsps = MakeChurnFederation(scenario, fo);
  return RunChurnScenario(fsps.get(), scenario, Seconds(5));
}

void ExpectChurnResultsEqual(const ChurnRunResult& a, const ChurnRunResult& b) {
  EXPECT_EQ(a.scale.tuples_processed, b.scale.tuples_processed);
  EXPECT_EQ(a.scale.tuples_shed, b.scale.tuples_shed);
  EXPECT_EQ(a.scale.messages, b.scale.messages);
  EXPECT_EQ(a.scale.events, b.scale.events);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.replaced_fragments, b.replaced_fragments);
  EXPECT_EQ(a.dropped_queries, b.dropped_queries);
  EXPECT_EQ(a.tuples_dropped_dead, b.tuples_dropped_dead);
  ASSERT_EQ(a.scale.final_sics.size(), b.scale.final_sics.size());
  for (size_t i = 0; i < a.scale.final_sics.size(); ++i) {
    EXPECT_EQ(a.scale.final_sics[i], b.scale.final_sics[i]) << "query " << i;
  }
}

TEST(DeterminismTest, ChurnRunIsSeedDeterministic) {
  ExpectChurnResultsEqual(RunChurnOnce(101), RunChurnOnce(101));
}

TEST(DeterminismTest, ChurnParsimMultiShardIsDeterministic) {
  // Repeated multi-shard churn runs agree exactly: topology mutation lands
  // only at epoch boundaries, so the conservative merge stays
  // interleaving-independent through crash waves and lookahead changes.
  ExpectChurnResultsEqual(RunChurnOnce(101, /*shards=*/2),
                          RunChurnOnce(101, /*shards=*/2));
}

TEST(DeterminismTest, WorkloadFactoryIsSeedStable) {
  WorkloadFactory f1(5), f2(5);
  for (int i = 0; i < 20; ++i) {
    ComplexQueryOptions co;
    co.fragments = 1 + i % 4;
    auto a = f1.MakeRandomComplex(i, co);
    auto b = f2.MakeRandomComplex(i, co);
    EXPECT_EQ(a.graph->label(), b.graph->label());
    EXPECT_EQ(a.graph->num_operators(), b.graph->num_operators());
    EXPECT_EQ(a.sources.size(), b.sources.size());
  }
}

}  // namespace
}  // namespace themis
