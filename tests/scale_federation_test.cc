// Federation-scale scenario tests: scenario generation determinism, the
// cluster-aligned shard pinning, and the engine guarantees at Fsps level —
// multi-shard runs deterministic, and query departure (Undeploy) working
// under the parallel engine.
#include <gtest/gtest.h>

#include <set>

#include "federation/scale_federation.h"

namespace themis {
namespace {

ScaleScenarioOptions SmallOptions() {
  ScaleScenarioOptions o;
  o.nodes = 16;
  o.clusters = 4;
  o.queries = 12;
  o.arrival_wave = 4;
  o.arrival_interval = Seconds(1);
  o.sources_per_fragment = 2;
  o.source_rate = 40.0;
  o.seed = 11;
  return o;
}

ScaleRunResult RunSmall(int shards, uint64_t seed = 11) {
  ScaleScenarioOptions o = SmallOptions();
  o.seed = seed;
  ScaleScenario scenario = MakeScaleScenario(o);
  FspsOptions fo;
  fo.shards = shards;
  auto fsps = MakeScaleFederation(scenario, fo);
  return RunScaleScenario(fsps.get(), scenario, Seconds(5));
}

void ExpectIdentical(const ScaleRunResult& a, const ScaleRunResult& b) {
  EXPECT_EQ(a.tuples_received, b.tuples_received);
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.tuples_shed, b.tuples_shed);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_sics, b.final_sics);  // exact: no tolerance
  EXPECT_EQ(a.mean_sic, b.mean_sic);
  EXPECT_EQ(a.jain, b.jain);
}

TEST(ScaleScenarioTest, DeterministicInSeed) {
  ScaleScenario a = MakeScaleScenario(SmallOptions());
  ScaleScenario b = MakeScaleScenario(SmallOptions());
  ASSERT_EQ(a.queries.size(), b.queries.size());
  EXPECT_EQ(a.cluster_of_node, b.cluster_of_node);
  EXPECT_EQ(a.total_source_rate, b.total_source_rate);
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].kind, b.queries[i].kind);
    EXPECT_EQ(a.queries[i].fragments, b.queries[i].fragments);
    EXPECT_EQ(a.queries[i].arrival, b.queries[i].arrival);
    EXPECT_EQ(a.queries[i].home_cluster, b.queries[i].home_cluster);
    EXPECT_EQ(a.queries[i].peer_cluster, b.queries[i].peer_cluster);
  }
}

TEST(ScaleScenarioTest, StructureMatchesOptions) {
  ScaleScenarioOptions o;
  o.nodes = 64;
  o.clusters = 8;
  o.queries = 96;
  ScaleScenario s = MakeScaleScenario(o);

  // Contiguous, balanced clusters.
  ASSERT_EQ(s.cluster_of_node.size(), 64u);
  std::vector<int> per_cluster(o.clusters, 0);
  for (int n = 0; n < o.nodes; ++n) {
    ++per_cluster[s.cluster_of_node[n]];
    if (n > 0) {
      EXPECT_GE(s.cluster_of_node[n], s.cluster_of_node[n - 1]);
    }
  }
  for (int c = 0; c < o.clusters; ++c) EXPECT_EQ(per_cluster[c], 8);

  // Staggered arrivals in waves, some WAN-spanning queries, valid peers.
  std::set<SimTime> arrivals;
  int wan_queries = 0;
  for (const ScaleQuerySpec& q : s.queries) {
    arrivals.insert(q.arrival);
    if (q.peer_cluster >= 0) {
      ++wan_queries;
      EXPECT_NE(q.peer_cluster, q.home_cluster);
      EXPECT_LT(q.peer_cluster, o.clusters);
      EXPECT_GE(q.fragments, 2);
    }
  }
  EXPECT_EQ(arrivals.size(), static_cast<size_t>(96 / o.arrival_wave));
  EXPECT_GT(wan_queries, 0);
}

TEST(ScaleFederationTest, ClusterAlignedShardPinning) {
  ScaleScenario scenario = MakeScaleScenario(SmallOptions());
  FspsOptions fo;
  fo.shards = 2;
  auto fsps = MakeScaleFederation(scenario, fo);
  // 4 clusters over 2 shards: same cluster -> same shard, clusters 0/1 on
  // shard 0, clusters 2/3 on shard 1.
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(fsps->shard_of(n), scenario.cluster_of_node[n] / 2);
  }
}

TEST(ScaleFederationTest, MultiShardRunsAreDeterministic) {
  ScaleRunResult a = RunSmall(/*shards=*/4);
  ScaleRunResult b = RunSmall(/*shards=*/4);
  EXPECT_GT(a.tuples_processed, 0u);
  ExpectIdentical(a, b);
  ScaleRunResult c = RunSmall(/*shards=*/3);
  ScaleRunResult d = RunSmall(/*shards=*/3);
  ExpectIdentical(c, d);
}

TEST(ScaleFederationTest, DifferentSeedsDiverge) {
  ScaleRunResult a = RunSmall(1, 11);
  ScaleRunResult b = RunSmall(1, 12);
  EXPECT_GT(a.tuples_processed, 0u);
  EXPECT_GT(a.tuples_shed, 0u);  // overloaded: shedding exercised
  EXPECT_NE(a.final_sics, b.final_sics);
}

TEST(ScaleFederationTest, NeverRunFederationReportsPerfectJain) {
  // Deployed but never run: every final SIC is 0, a degenerate allocation
  // that metrics/jain.h defines as perfectly fair.
  ScaleScenario scenario = MakeScaleScenario(SmallOptions());
  auto fsps = MakeScaleFederation(scenario);
  ScaleDeployer deployer(fsps.get(), scenario);
  for (const ScaleQuerySpec& spec : scenario.queries) {
    if (spec.arrival == 0) {
      ASSERT_TRUE(deployer.DeployQuery(spec));
    }
  }
  ScaleRunResult r = CollectScaleResult(fsps.get());
  ASSERT_FALSE(r.final_sics.empty());
  for (double sic : r.final_sics) EXPECT_EQ(sic, 0.0);
  EXPECT_EQ(r.mean_sic, 0.0);
  EXPECT_EQ(r.jain, 1.0);
}

TEST(ScaleFederationTest, UndeployBetweenSegmentsUnderParallelEngine) {
  ScaleScenario scenario = MakeScaleScenario(SmallOptions());
  FspsOptions fo;
  fo.shards = 4;
  auto fsps = MakeScaleFederation(scenario, fo);
  RunScaleScenario(fsps.get(), scenario, Seconds(3));
  ASSERT_EQ(fsps->query_ids().size(), scenario.queries.size());

  // Departure mid-run: WAN batches and coordinator timers of query 0 are
  // still in flight across shards; they must drain safely.
  ASSERT_TRUE(fsps->Undeploy(0).ok());
  fsps->RunFor(Seconds(5));
  EXPECT_EQ(fsps->query_ids().size(), scenario.queries.size() - 1);
  EXPECT_EQ(fsps->coordinator(0), nullptr);
  for (QueryId q : fsps->query_ids()) {
    EXPECT_GE(fsps->QuerySic(q), 0.0);
  }
  EXPECT_GT(fsps->TotalNodeStats().tuples_processed, 0u);
}

}  // namespace
}  // namespace themis
