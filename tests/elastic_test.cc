// Elastic-federation tests: shard re-balancing mid-churn (entity migration
// with traffic in flight), the TopologyPlan control plane's validate-then-
// commit contract, mid-run AddNode on a started sharded engine, the
// autoscaler loop, and the determinism contract across re-balances:
// bit-identical run-to-run at every shard count. The ASan/TSan jobs cover
// this file: migration moves live timer chains, queued deliveries and
// pooled batches between shards.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "federation/elastic_federation.h"
#include "federation/fsps.h"
#include "workload/workloads.h"

namespace themis {
namespace {

// --- control-plane fixture ----------------------------------------------
//
// Three nodes on two shards (0,1 | 2) over 50 ms links: crashing node 2
// empties shard 1 of live nodes, the canonical starvation shape.
class ElasticShardTest : public ::testing::Test {
 protected:
  ElasticShardTest() : factory_(9) {
    options_.seed = 77;
    options_.shards = 2;
    options_.elastic = true;
    options_.default_link_latency = Millis(50);
    options_.source_link_latency = Millis(50);
    Build();
  }

  // (Re)builds the federation from options_. The shards are pinned:
  // AddNode() would auto-shard node 1 onto shard 1 (id % 2).
  void Build() {
    fsps_ = std::make_unique<Fsps>(options_);
    nodes_.clear();
    for (int shard : {0, 0, 1}) {
      nodes_.push_back(*fsps_->AddNode(options_.node, shard));
    }
  }

  // Two-fragment COV query on shard-0 nodes (survives a shard-1 crash).
  Status DeployCov(QueryId q) {
    ComplexQueryOptions co;
    co.fragments = 2;
    co.source_rate = 50;
    BuiltQuery built = factory_.MakeCov(q, co);
    std::map<FragmentId, NodeId> placement = {{0, nodes_[0]}, {1, nodes_[1]}};
    THEMIS_RETURN_NOT_OK(fsps_->Deploy(std::move(built.graph), placement));
    return fsps_->AttachSources(q, built.sources);
  }

  WorkloadFactory factory_;
  FspsOptions options_;
  std::unique_ptr<Fsps> fsps_;
  std::vector<NodeId> nodes_;
};

TEST_F(ElasticShardTest, PlanValidatesAsAWholeAndCommitsNothingOnError) {
  ASSERT_TRUE(DeployCov(1).ok());
  fsps_->RunFor(Seconds(1));
  // Crash is staged before the invalid op, but the plan validates as a
  // whole: nothing commits, node 2 stays alive.
  Status s = fsps_->PlanTopology()
                 .Crash(nodes_[2])
                 .SetLinkLatency(nodes_[0], nodes_[0], Millis(5))
                 .Apply();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_TRUE(fsps_->node_alive(nodes_[2]));
  EXPECT_EQ(fsps_->churn_stats().crashes, 0u);
}

TEST_F(ElasticShardTest, PlanValidatesAgainstStagedStateNotCurrentState) {
  // Crash + restore of the same node in one plan: the restore is valid
  // only against the staged (post-crash) liveness, and both commit.
  ASSERT_TRUE(
      fsps_->PlanTopology().Crash(nodes_[2]).Restore(nodes_[2]).Apply().ok());
  EXPECT_TRUE(fsps_->node_alive(nodes_[2]));
  EXPECT_EQ(fsps_->churn_stats().crashes, 1u);
  EXPECT_EQ(fsps_->churn_stats().restores, 1u);
  // A double crash inside one plan is caught up front.
  Status s = fsps_->PlanTopology().Crash(nodes_[2]).Crash(nodes_[2]).Apply();
  EXPECT_TRUE(s.IsFailedPrecondition());
  EXPECT_TRUE(fsps_->node_alive(nodes_[2]));
}

TEST_F(ElasticShardTest, PlanRejectsDoubleApply) {
  TopologyPlan plan = fsps_->PlanTopology();
  plan.SetLinkLatency(nodes_[0], nodes_[1], Millis(20));
  ASSERT_TRUE(plan.Apply().ok());
  EXPECT_TRUE(plan.Apply().IsFailedPrecondition());
}

TEST_F(ElasticShardTest, PlannedAddNodeIdIsUsableWithinTheSamePlan) {
  fsps_->RunFor(Seconds(1));
  TopologyPlan plan = fsps_->PlanTopology();
  NodeId id = plan.AddNode(options_.node, 1);
  EXPECT_EQ(id, static_cast<NodeId>(nodes_.size()));
  plan.SetLinkLatency(id, nodes_[2], Millis(5));
  ASSERT_TRUE(plan.Apply().ok());
  EXPECT_TRUE(fsps_->node_alive(id));
  EXPECT_EQ(fsps_->shard_of(id), 1);
  EXPECT_EQ(fsps_->churn_stats().nodes_added, 1u);
  // The queued link edit lands at the next boundary, like any other edit.
  fsps_->RunFor(Seconds(1));
  EXPECT_EQ(fsps_->network()->Latency(id, nodes_[2]), Millis(5));
}

TEST_F(ElasticShardTest, RebalanceValidatesGroupsAndEpochWidth) {
  // Before Start() there is nothing to re-balance.
  EXPECT_TRUE(fsps_->PlanTopology().Rebalance().Apply().IsFailedPrecondition());
  ASSERT_TRUE(DeployCov(1).ok());
  fsps_->RunFor(Seconds(2));
  // Wrong group-map size.
  EXPECT_TRUE(fsps_->PlanTopology()
                  .Rebalance({0, 1})
                  .Apply()
                  .IsInvalidArgument());
  // A single group would leave no cross-shard links (lookahead undefined).
  EXPECT_TRUE(fsps_->PlanTopology()
                  .Rebalance({0, 0, 0})
                  .Apply()
                  .IsInvalidArgument());
}

TEST_F(ElasticShardTest, StarvedShardRebalancesBackToBothShards) {
  ASSERT_TRUE(DeployCov(1).ok());
  ASSERT_TRUE(DeployCov(2).ok());
  fsps_->RunFor(Millis(5130));  // mid-interval: traffic strictly in flight

  // Crash the only shard-1 node: every live entity now sits on shard 0 and
  // the parallel engine runs effectively single-shard.
  ASSERT_TRUE(fsps_->PlanTopology().Crash(nodes_[2]).Apply().ok());
  uint64_t results_before = fsps_->coordinator(1)->result_tuples() +
                            fsps_->coordinator(2)->result_tuples();

  // Re-balance with per-node groups: the two live (loaded) nodes must land
  // on different shards — parallelism restored, dead node wherever.
  ASSERT_TRUE(fsps_->PlanTopology().Rebalance().Apply().ok());
  EXPECT_EQ(fsps_->churn_stats().rebalances, 1u);
  EXPECT_GE(fsps_->churn_stats().migrated_nodes, 1u);
  EXPECT_NE(fsps_->shard_of(nodes_[0]), fsps_->shard_of(nodes_[1]));

  // The migrated node keeps producing: queries survive with phase intact,
  // in-flight deliveries move to the new shard at their own deadlines,
  // nothing is lost.
  fsps_->RunFor(Seconds(10));
  EXPECT_GT(fsps_->coordinator(1)->result_tuples() +
                fsps_->coordinator(2)->result_tuples(),
            results_before);
  EXPECT_GT(fsps_->QuerySic(1), 0.0);
  EXPECT_GT(fsps_->QuerySic(2), 0.0);
}

TEST_F(ElasticShardTest, MidChurnRebalancePreservesConservationAndLiveness) {
  ASSERT_TRUE(DeployCov(1).ok());
  ASSERT_TRUE(DeployCov(2).ok());
  fsps_->RunFor(Millis(5130));

  // Crash + re-balance in one plan, with deliveries in flight.
  ASSERT_TRUE(fsps_->PlanTopology().Crash(nodes_[2]).Rebalance().Apply().ok());
  fsps_->RunFor(Seconds(5));
  // Restore + re-balance again: the revived node re-enters the map.
  ASSERT_TRUE(
      fsps_->PlanTopology().Restore(nodes_[2]).Rebalance().Apply().ok());
  fsps_->RunFor(Seconds(10));

  EXPECT_EQ(fsps_->churn_stats().rebalances, 2u);
  EXPECT_EQ(fsps_->live_node_ids().size(), 3u);
  // Conservation: every tuple a node accepted was either processed or
  // shed; the remainder is still buffered, never silently lost.
  NodeStats stats = fsps_->TotalNodeStats();
  EXPECT_GE(stats.tuples_received,
            stats.tuples_processed + stats.tuples_shed);
  EXPECT_GT(stats.tuples_processed, 0u);
  EXPECT_GT(fsps_->QuerySic(1), 0.0);
  EXPECT_GT(fsps_->QuerySic(2), 0.0);
}

// Joins and re-balances are open to every sharded federation; elastic only
// picks the load signal the re-balancer ranks by.
TEST_F(ElasticShardTest, NonElasticShardedFederationJoinsAndRebalances) {
  options_.elastic = false;
  Build();
  ASSERT_TRUE(DeployCov(1).ok());
  ASSERT_TRUE(DeployCov(2).ok());
  fsps_->RunFor(Millis(5130));  // mid-interval: traffic strictly in flight

  Result<NodeId> late = fsps_->AddNode(options_.node, 1);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(fsps_->shard_of(*late), 1);
  EXPECT_EQ(fsps_->churn_stats().nodes_added, 1u);
  // An out-of-range shard is still an argument error.
  EXPECT_TRUE(fsps_->AddNode(options_.node, 7).status().IsInvalidArgument());
  EXPECT_TRUE(fsps_->AddNode(options_.node, -2).status().IsInvalidArgument());
  uint64_t results_before = fsps_->coordinator(1)->result_tuples() +
                            fsps_->coordinator(2)->result_tuples();

  // Both loaded nodes sit on shard 0: the re-balance splits them.
  ASSERT_TRUE(fsps_->PlanTopology().Rebalance().Apply().ok());
  EXPECT_EQ(fsps_->churn_stats().rebalances, 1u);
  EXPECT_GE(fsps_->churn_stats().migrated_nodes, 1u);
  EXPECT_NE(fsps_->shard_of(nodes_[0]), fsps_->shard_of(nodes_[1]));

  fsps_->RunFor(Seconds(10));
  EXPECT_GT(fsps_->coordinator(1)->result_tuples() +
                fsps_->coordinator(2)->result_tuples(),
            results_before);
  EXPECT_GT(fsps_->QuerySic(1), 0.0);
  EXPECT_GT(fsps_->QuerySic(2), 0.0);
}

// Elastic federations rank nodes by offered load, so their nodes track
// arrivals at ingress; any other run pays nothing for the tracker.
TEST(ElasticLoadSignalTest, ArrivalTrackingFollowsElastic) {
  for (bool elastic : {false, true}) {
    FspsOptions opts;
    opts.elastic = elastic;
    Fsps fsps(opts);
    NodeId node = fsps.AddNode();
    WorkloadFactory factory(9);
    BuiltQuery built = factory.MakeAvg(1);
    ASSERT_TRUE(fsps.Deploy(std::move(built.graph), {{0, node}}).ok());
    ASSERT_TRUE(fsps.AttachSources(1, built.sources).ok());
    fsps.RunFor(Seconds(2));
    double offered = fsps.node(node)->OfferedLoadUs(fsps.now());
    if (elastic) {
      EXPECT_GT(offered, 0.0);
    } else {
      EXPECT_EQ(offered, 0.0);
    }
  }
}

// --- scenario-level determinism -----------------------------------------

// A churn scenario with 10x bursts (burst_multiplier's default) and a
// diurnal swing, as the elastic bench runs.
ChurnScenarioOptions SmallElasticOptions() {
  ChurnScenarioOptions co;
  co.scale.nodes = 16;
  co.scale.clusters = 8;
  co.scale.queries = 12;
  co.scale.arrival_wave = 4;
  co.scale.burst_prob = 0.10;
  co.scale.diurnal_amplitude = 0.5;
  co.scale.diurnal_period = Seconds(8);
  co.churn_horizon = Seconds(20);
  co.crashes_per_wave = 1;
  return co;
}

// Serialises every deterministic field of an elastic run.
std::string Digest(const ElasticRunResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "recv=%llu proc=%llu shed=%llu msg=%llu ev=%llu crash=%llu rest=%llu "
      "lat=%llu repl=%llu dropq=%llu skip=%llu dead=%llu added=%llu "
      "rebal=%llu migr=%llu ticks=%llu grow=%llu shrink=%llu asadd=%llu "
      "asrest=%llu asdecom=%llu live=%d util=%.17g sic=%.17g jain=%.17g",
      static_cast<unsigned long long>(r.churn.scale.tuples_received),
      static_cast<unsigned long long>(r.churn.scale.tuples_processed),
      static_cast<unsigned long long>(r.churn.scale.tuples_shed),
      static_cast<unsigned long long>(r.churn.scale.messages),
      static_cast<unsigned long long>(r.churn.scale.events),
      static_cast<unsigned long long>(r.churn.crashes),
      static_cast<unsigned long long>(r.churn.restores),
      static_cast<unsigned long long>(r.churn.latency_updates),
      static_cast<unsigned long long>(r.churn.replaced_fragments),
      static_cast<unsigned long long>(r.churn.dropped_queries),
      static_cast<unsigned long long>(r.churn.skipped_arrivals),
      static_cast<unsigned long long>(r.churn.tuples_dropped_dead),
      static_cast<unsigned long long>(r.nodes_added),
      static_cast<unsigned long long>(r.rebalances),
      static_cast<unsigned long long>(r.migrated_nodes),
      static_cast<unsigned long long>(r.autoscaler.ticks),
      static_cast<unsigned long long>(r.autoscaler.grow_actions),
      static_cast<unsigned long long>(r.autoscaler.shrink_actions),
      static_cast<unsigned long long>(r.autoscaler.nodes_added),
      static_cast<unsigned long long>(r.autoscaler.nodes_restored),
      static_cast<unsigned long long>(r.autoscaler.nodes_decommissioned),
      r.final_live_nodes, r.final_utilization, r.churn.scale.mean_sic,
      r.churn.scale.jain);
  std::string out = buf;
  for (double sic : r.churn.scale.final_sics) {
    std::snprintf(buf, sizeof(buf), " %.17g", sic);
    out += buf;
  }
  return out;
}

ElasticRunResult RunOnce(const ChurnScenario& scenario, int shards) {
  FspsOptions fo;
  fo.shards = shards;
  auto fsps = MakeElasticFederation(scenario, fo);
  AutoscalerOptions ao;
  ao.max_added_nodes = 8;
  return RunElasticScenario(fsps.get(), scenario, ao, Seconds(5));
}

TEST(ElasticScenarioTest, RunToRunDigestIdentityAtEveryShardCount) {
  ChurnScenario scenario = MakeChurnScenario(SmallElasticOptions());
  for (int shards : {1, 4, 8}) {
    ElasticRunResult a = RunOnce(scenario, shards);
    ElasticRunResult b = RunOnce(scenario, shards);
    EXPECT_EQ(Digest(a), Digest(b)) << "shards=" << shards;
    if (shards > 1) {
      EXPECT_GT(a.rebalances, 0u) << "shards=" << shards;
      EXPECT_GT(a.migrated_nodes, 0u) << "shards=" << shards;
    }
  }
}

TEST(ElasticScenarioTest, AutoscalerTracksLoad) {
  // The small scenario is permanently overloaded (overload_factor 2), so
  // the loop must grow the federation; diurnal troughs and the burst gaps
  // pull utilization back down, so hysteresis must gate the actions.
  ChurnScenario scenario = MakeChurnScenario(SmallElasticOptions());
  ElasticRunResult r = RunOnce(scenario, 4);
  EXPECT_GT(r.autoscaler.ticks, 0u);
  EXPECT_GT(r.autoscaler.grow_actions, 0u);
  EXPECT_GT(r.nodes_added, 0u);
  EXPECT_GT(r.final_live_nodes, 16);
  EXPECT_LE(r.autoscaler.nodes_added, 8u);  // max_added_nodes cap
  EXPECT_GT(r.churn.scale.tuples_processed, 0u);
  EXPECT_GT(r.churn.scale.mean_sic, 0.0);
}

TEST(ElasticScenarioTest, ScenarioGenerationIsSeedDeterministic) {
  ChurnScenario a = MakeChurnScenario(SmallElasticOptions());
  ChurnScenario b = MakeChurnScenario(SmallElasticOptions());
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.base.queries.size(), b.base.queries.size());
  // Diurnal + burst knobs sit on the scale options the sources are
  // generated from, and the topology schedule matches the plain one.
  EXPECT_GT(a.base.options.diurnal_amplitude, 0.0);
  EXPECT_GT(a.base.options.burst_prob, 0.0);
  ChurnScenarioOptions plain_options = SmallElasticOptions();
  plain_options.scale.burst_prob = 0.0;
  plain_options.scale.diurnal_amplitude = 0.0;
  ChurnScenario plain = MakeChurnScenario(plain_options);
  ASSERT_EQ(a.events.size(), plain.events.size());
  for (size_t i = 0; i < plain.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, plain.events[i].time);
    EXPECT_EQ(a.events[i].a, plain.events[i].a);
  }
}

}  // namespace
}  // namespace themis
