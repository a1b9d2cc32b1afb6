// Dynamic-federation churn tests: node crash/restore mid-run with in-flight
// batches, coordinator-driven re-placement of orphaned fragments, deferred
// link-latency edits, lookahead re-derivation on the sharded engine, and
// the churn scenario generator's invariants. Mirrors the mid-flight
// Undeploy tests in lifecycle_test.cc: everything in flight must drain
// without leaks (the ASan job covers this file) or pooled-batch
// double-recycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "federation/autoscaler.h"
#include "federation/churn_federation.h"
#include "federation/elastic_federation.h"
#include "federation/fsps.h"
#include "workload/churn_scenario.h"
#include "workload/workloads.h"

namespace themis {
namespace {

// Two nodes over a fat WAN pipe: with 800 ms links (source links included)
// and ~10 source batches/sec per node there are *always* deliveries in
// flight towards each node, so a crash is guaranteed to race them.
class ChurnTest : public ::testing::Test {
 protected:
  ChurnTest() : factory_(9) {
    FspsOptions opts;
    opts.seed = 77;
    opts.default_link_latency = Millis(800);
    opts.source_link_latency = Millis(800);
    fsps_ = std::make_unique<Fsps>(opts);
    node0_ = fsps_->AddNode();
    node1_ = fsps_->AddNode();
  }

  // Deploys a two-fragment COV query across both nodes.
  Status DeployCov(QueryId q) {
    ComplexQueryOptions co;
    co.fragments = 2;
    co.source_rate = 50;
    BuiltQuery built = factory_.MakeCov(q, co);
    std::map<FragmentId, NodeId> placement = {{0, node0_}, {1, node1_}};
    THEMIS_RETURN_NOT_OK(fsps_->Deploy(std::move(built.graph), placement));
    return fsps_->AttachSources(q, built.sources);
  }

  WorkloadFactory factory_;
  std::unique_ptr<Fsps> fsps_;
  NodeId node0_ = 0, node1_ = 0;
};

TEST_F(ChurnTest, CrashUnknownNodeIsNotFound) {
  EXPECT_TRUE(fsps_->PlanTopology().Crash(42).Apply().IsNotFound());
  EXPECT_TRUE(fsps_->PlanTopology().Restore(42).Apply().IsNotFound());
}

TEST_F(ChurnTest, DoubleCrashAndDoubleRestoreAreRejected) {
  ASSERT_TRUE(fsps_->PlanTopology().Crash(node1_).Apply().ok());
  EXPECT_TRUE(
      fsps_->PlanTopology().Crash(node1_).Apply().IsFailedPrecondition());
  ASSERT_TRUE(fsps_->PlanTopology().Restore(node1_).Apply().ok());
  EXPECT_TRUE(
      fsps_->PlanTopology().Restore(node1_).Apply().IsFailedPrecondition());
}

TEST_F(ChurnTest, LiveNodeIdsExcludesCrashed) {
  ASSERT_TRUE(fsps_->PlanTopology().Crash(node0_).Apply().ok());
  EXPECT_EQ(fsps_->live_node_ids(), (std::vector<NodeId>{node1_}));
  EXPECT_FALSE(fsps_->node_alive(node0_));
  EXPECT_TRUE(fsps_->node_alive(node1_));
  ASSERT_TRUE(fsps_->PlanTopology().Restore(node0_).Apply().ok());
  EXPECT_EQ(fsps_->live_node_ids().size(), 2u);
}

TEST_F(ChurnTest, CrashWithInFlightBatchesReplacesAndDrains) {
  ASSERT_TRUE(DeployCov(1).ok());
  // Stop mid-interval so batches, shed timers and dissemination messages
  // are all strictly in flight towards node1 when it dies.
  fsps_->RunFor(Millis(5130));
  ASSERT_TRUE(fsps_->PlanTopology().Crash(node1_).Apply().ok());

  // The orphaned fragment re-placed onto the only live node: the query
  // survives, co-located (the distinct-node guarantee yields to a 1-node
  // live set).
  EXPECT_EQ(fsps_->query_ids(), (std::vector<QueryId>{1}));
  EXPECT_EQ(fsps_->churn_stats().replaced_fragments, 1u);
  EXPECT_EQ(fsps_->churn_stats().dropped_queries, 0u);
  EXPECT_EQ(fsps_->node(node1_)->input_buffer().num_batches(), 0u);
  EXPECT_TRUE(fsps_->node(node1_)->HostedQueries().empty());

  // Everything in flight (>= 800 ms of WAN deliveries) drains; arrivals at
  // the dead node are dropped at ingress and recycled, never processed.
  uint64_t results_before = fsps_->coordinator(1)->result_tuples();
  fsps_->RunFor(Seconds(1));
  uint64_t dropped_dead = fsps_->node(node1_)->stats().batches_dropped_dead;
  EXPECT_GT(dropped_dead, 0u);
  // Once the wire has drained nothing is addressed to the dead node: the
  // re-placement re-routed the sources and the upstream fragment.
  fsps_->RunFor(Seconds(9));
  EXPECT_EQ(fsps_->node(node1_)->stats().batches_dropped_dead, dropped_dead);
  EXPECT_GT(fsps_->coordinator(1)->result_tuples(), results_before);
  EXPECT_GT(fsps_->QuerySic(1), 0.0);
  // The dead node does nothing after the crash.
  EXPECT_EQ(fsps_->node(node1_)->input_buffer().num_batches(), 0u);
}

TEST_F(ChurnTest, CrashOfCoordinatorHomeMovesIt) {
  ASSERT_TRUE(DeployCov(1).ok());
  fsps_->RunFor(Millis(3370));
  NodeId home = fsps_->coordinator(1)->home();
  ASSERT_TRUE(fsps_->PlanTopology().Crash(home).Apply().ok());
  NodeId survivor = home == node0_ ? node1_ : node0_;
  EXPECT_EQ(fsps_->coordinator(1)->home(), survivor);
  fsps_->RunFor(Seconds(10));
  EXPECT_GT(fsps_->QuerySic(1), 0.0);
}

TEST_F(ChurnTest, CrashDropsQueryWhenNoLiveCandidates) {
  ASSERT_TRUE(DeployCov(1).ok());
  fsps_->RunFor(Millis(4210));
  ASSERT_TRUE(fsps_->PlanTopology().Crash(node0_).Apply().ok());
  // node1 is the only live node left; crashing it strands the query with
  // no candidate host, forcing a departure.
  ASSERT_TRUE(fsps_->PlanTopology().Crash(node1_).Apply().ok());
  EXPECT_TRUE(fsps_->query_ids().empty());
  EXPECT_EQ(fsps_->churn_stats().dropped_queries, 1u);
  // The wire drains quietly: no sources, no dissemination, no processing.
  fsps_->RunFor(Seconds(3));
  uint64_t messages_after_drain = fsps_->network()->messages_sent();
  fsps_->RunFor(Seconds(10));
  EXPECT_EQ(fsps_->network()->messages_sent(), messages_after_drain);
}

TEST_F(ChurnTest, RestoredNodeRejoinsEmptyAndHostsNewQueries) {
  ASSERT_TRUE(DeployCov(1).ok());
  fsps_->RunFor(Seconds(5));
  ASSERT_TRUE(fsps_->PlanTopology().Crash(node1_).Apply().ok());
  fsps_->RunFor(Seconds(5));
  ASSERT_TRUE(fsps_->PlanTopology().Restore(node1_).Apply().ok());
  EXPECT_TRUE(fsps_->node(node1_)->HostedQueries().empty());
  // A fresh query can span both nodes again.
  ASSERT_TRUE(DeployCov(2).ok());
  fsps_->RunFor(Seconds(15));
  EXPECT_GT(fsps_->coordinator(2)->result_tuples(), 0u);
  EXPECT_GT(fsps_->node(node1_)->stats().batches_processed, 0u);
}

TEST_F(ChurnTest, DeployOnCrashedNodeIsRejected) {
  ASSERT_TRUE(fsps_->PlanTopology().Crash(node1_).Apply().ok());
  ComplexQueryOptions co;
  co.fragments = 2;
  BuiltQuery built = factory_.MakeCov(3, co);
  std::map<FragmentId, NodeId> placement = {{0, node0_}, {1, node1_}};
  EXPECT_TRUE(
      fsps_->Deploy(std::move(built.graph), placement).IsInvalidArgument());
}

TEST_F(ChurnTest, SetLinkLatencyValidates) {
  auto set_link = [this](NodeId a, NodeId b, SimDuration latency) {
    return fsps_->PlanTopology().SetLinkLatency(a, b, latency).Apply();
  };
  EXPECT_TRUE(set_link(node0_, node0_, Millis(5)).IsInvalidArgument());
  EXPECT_TRUE(set_link(node0_, 99, Millis(5)).IsInvalidArgument());
  EXPECT_TRUE(set_link(node0_, node1_, -1).IsInvalidArgument());
  EXPECT_TRUE(set_link(node0_, node1_, Millis(5)).ok());
  EXPECT_TRUE(set_link(kInvalidId, node1_, Millis(2)).ok());
}

TEST_F(ChurnTest, LinkEditDefersToNextRunBoundary) {
  ASSERT_TRUE(DeployCov(1).ok());
  fsps_->RunFor(Seconds(2));
  ASSERT_TRUE(fsps_->PlanTopology()
                  .SetLinkLatency(node0_, node1_, Millis(100))
                  .Apply()
                  .ok());
  // Queued, not applied: the wire still runs at the constructor default.
  EXPECT_EQ(fsps_->network()->Latency(node0_, node1_), Millis(800));
  fsps_->RunFor(Seconds(1));
  EXPECT_EQ(fsps_->network()->Latency(node0_, node1_), Millis(100));
  fsps_->RunFor(Seconds(10));
  EXPECT_GT(fsps_->QuerySic(1), 0.0);
}

// Sharded churn: four nodes on two shards. Crash re-placement stays on the
// crashed node's shard and the epoch width follows the mutated topology.
class ShardedChurnTest : public ::testing::Test {
 protected:
  ShardedChurnTest() {
    FspsOptions opts;
    opts.seed = 77;
    opts.shards = 2;
    opts.default_link_latency = Millis(50);
    fsps_ = std::make_unique<Fsps>(opts);
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(*fsps_->AddNode(opts.node, i / 2));  // 0,1 | 2,3
    }
  }

  std::unique_ptr<Fsps> fsps_;
  std::vector<NodeId> nodes_;
};

TEST_F(ShardedChurnTest, LookaheadFollowsLinkDriftAndCrashes) {
  // Tightest cross-shard link: (1, 2) at 20 ms; the rest default to 50 ms.
  ASSERT_TRUE(fsps_->network()->SetLatency(1, 2, Millis(20)).ok());
  fsps_->RunFor(Millis(100));
  EXPECT_EQ(fsps_->engine()->lookahead(), Millis(20));

  // Drift the tight link tighter; the epoch narrows at the next boundary.
  ASSERT_TRUE(
      fsps_->PlanTopology().SetLinkLatency(1, 2, Millis(10)).Apply().ok());
  fsps_->RunFor(Millis(100));
  EXPECT_EQ(fsps_->engine()->lookahead(), Millis(10));

  // Crash an endpoint of the tight link: its links carry no traffic, so
  // the epoch widens back to the 50 ms default.
  ASSERT_TRUE(fsps_->PlanTopology().Crash(2).Apply().ok());
  fsps_->RunFor(Millis(100));
  EXPECT_EQ(fsps_->engine()->lookahead(), Millis(50));

  // Restore: the 10 ms link constrains the epoch again.
  ASSERT_TRUE(fsps_->PlanTopology().Restore(2).Apply().ok());
  fsps_->RunFor(Millis(100));
  EXPECT_EQ(fsps_->engine()->lookahead(), Millis(10));

  // Zero-latency edits are rejected on a sharded engine.
  EXPECT_TRUE(fsps_->PlanTopology()
                  .SetLinkLatency(1, 2, 0)
                  .Apply()
                  .IsInvalidArgument());
}

TEST_F(ShardedChurnTest, ReplacementStaysOnTheCrashedNodesShard) {
  WorkloadFactory factory(9);
  ComplexQueryOptions co;
  co.fragments = 2;
  co.source_rate = 50;
  BuiltQuery built = factory.MakeCov(1, co);
  // Both fragments on shard 1 (nodes 2 and 3).
  std::map<FragmentId, NodeId> placement = {{0, nodes_[2]}, {1, nodes_[3]}};
  ASSERT_TRUE(fsps_->Deploy(std::move(built.graph), placement).ok());
  ASSERT_TRUE(fsps_->AttachSources(1, built.sources).ok());
  fsps_->RunFor(Seconds(5));

  ASSERT_TRUE(fsps_->PlanTopology().Crash(nodes_[3]).Apply().ok());
  // The orphan lands on node 2 — the only live shard-1 node — never on
  // shard 0 (source drivers and the coordinator are pinned to shard 1).
  EXPECT_EQ(fsps_->churn_stats().replaced_fragments, 1u);
  EXPECT_EQ(fsps_->node(nodes_[2])->HostedQueries(),
            (std::vector<QueryId>{1}));
  EXPECT_TRUE(fsps_->node(nodes_[0])->HostedQueries().empty());
  EXPECT_TRUE(fsps_->node(nodes_[1])->HostedQueries().empty());
  fsps_->RunFor(Seconds(10));
  EXPECT_GT(fsps_->QuerySic(1), 0.0);
}

// --- churn scenario generator -------------------------------------------

ChurnScenarioOptions SmallChurnOptions() {
  ChurnScenarioOptions co;
  co.scale.nodes = 16;
  co.scale.clusters = 4;
  co.scale.queries = 12;
  co.scale.arrival_wave = 4;
  co.churn_horizon = Seconds(20);
  return co;
}

TEST(ChurnScenarioTest, GenerationIsSeedDeterministic) {
  ChurnScenario a = MakeChurnScenario(SmallChurnOptions());
  ChurnScenario b = MakeChurnScenario(SmallChurnOptions());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].a, b.events[i].a);
    EXPECT_EQ(a.events[i].b, b.events[i].b);
    EXPECT_EQ(a.events[i].latency, b.events[i].latency);
  }
  ChurnScenarioOptions other = SmallChurnOptions();
  other.scale.seed = 43;
  ChurnScenario c = MakeChurnScenario(other);
  bool any_difference = c.events.size() != a.events.size();
  for (size_t i = 0; !any_difference && i < a.events.size(); ++i) {
    any_difference = c.events[i].a != a.events[i].a ||
                     c.events[i].time != a.events[i].time;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChurnScenarioTest, EveryClusterKeepsALiveMajority) {
  ChurnScenario scenario = MakeChurnScenario(SmallChurnOptions());
  const ScaleScenario& base = scenario.base;
  int clusters = base.options.clusters;
  std::vector<int> cluster_size(clusters, 0);
  for (int cluster : base.cluster_of_node) cluster_size[cluster] += 1;
  std::vector<int> alive = cluster_size;
  SimTime prev = 0;
  for (const ChurnEvent& ev : scenario.events) {
    EXPECT_GE(ev.time, prev);  // sorted
    prev = ev.time;
    if (ev.kind == ChurnEventKind::kCrash) {
      alive[base.cluster_of_node[ev.a]] -= 1;
    } else if (ev.kind == ChurnEventKind::kRestore) {
      alive[base.cluster_of_node[ev.a]] += 1;
    } else {
      EXPECT_GT(ev.latency, 0);  // epoch width can never collapse
      EXPECT_NE(base.cluster_of_node[ev.a], base.cluster_of_node[ev.b]);
    }
    for (int c = 0; c < clusters; ++c) {
      EXPECT_GE(alive[c], (cluster_size[c] + 1) / 2) << "cluster " << c;
    }
  }
  // Every crash is eventually restored.
  for (int c = 0; c < clusters; ++c) EXPECT_EQ(alive[c], cluster_size[c]);
}

TEST(ChurnScenarioTest, BurstOverlayKeepsTheScheduleIdentical) {
  // Layering §7.4 bursts onto the churn scenario must only touch the
  // source models: the topology schedule is drawn from the same rng
  // stream, so every event matches the burst-free scenario's exactly.
  ChurnScenario plain = MakeChurnScenario(SmallChurnOptions());
  ChurnScenarioOptions bo = SmallChurnOptions();
  bo.scale.burst_prob = 0.2;
  bo.scale.burst_multiplier = 8.0;
  ChurnScenario burst = MakeChurnScenario(bo);
  EXPECT_DOUBLE_EQ(burst.options.scale.burst_prob, 0.2);
  EXPECT_DOUBLE_EQ(burst.options.scale.burst_multiplier, 8.0);
  EXPECT_DOUBLE_EQ(plain.options.scale.burst_prob, 0.0);
  ASSERT_EQ(burst.events.size(), plain.events.size());
  for (size_t i = 0; i < plain.events.size(); ++i) {
    EXPECT_EQ(burst.events[i].time, plain.events[i].time);
    EXPECT_EQ(burst.events[i].kind, plain.events[i].kind);
    EXPECT_EQ(burst.events[i].a, plain.events[i].a);
    EXPECT_EQ(burst.events[i].b, plain.events[i].b);
    EXPECT_EQ(burst.events[i].latency, plain.events[i].latency);
  }
  // Same arrivals too: the burst knob lives beside the query stream, not
  // inside it.
  ASSERT_EQ(burst.base.queries.size(), plain.base.queries.size());
  EXPECT_EQ(burst.base.total_source_rate, plain.base.total_source_rate);
}

TEST(ChurnScenarioTest, BurstOverlayGeneratesMoreTuples) {
  // End-to-end: bursty sources actually spike. Same federation, same
  // schedule; the burst run must generate strictly more source tuples.
  ChurnScenarioOptions co = SmallChurnOptions();
  co.crashes_per_wave = 1;
  ChurnScenario plain = MakeChurnScenario(co);
  co.scale.burst_prob = 0.3;
  co.scale.burst_multiplier = 6.0;
  ChurnScenario burst = MakeChurnScenario(co);
  auto plain_fsps = MakeChurnFederation(plain);
  auto burst_fsps = MakeChurnFederation(burst);
  ChurnRunResult pr = RunChurnScenario(plain_fsps.get(), plain, Seconds(4));
  ChurnRunResult br = RunChurnScenario(burst_fsps.get(), burst, Seconds(4));
  EXPECT_GT(br.scale.tuples_received + br.tuples_dropped_dead,
            pr.scale.tuples_received + pr.tuples_dropped_dead);
}

TEST(ChurnScenarioTest, EndToEndChurnRunStaysHealthy) {
  // A small federation survives its full churn schedule: queries keep
  // producing results, re-placements happen, nothing leaks (ASan).
  ChurnScenarioOptions co = SmallChurnOptions();
  co.crashes_per_wave = 1;
  ChurnScenario scenario = MakeChurnScenario(co);
  auto fsps = MakeChurnFederation(scenario);
  ChurnRunResult r = RunChurnScenario(fsps.get(), scenario, Seconds(5));
  EXPECT_GT(r.crashes, 0u);
  EXPECT_EQ(r.crashes, r.restores);
  EXPECT_GT(r.latency_updates, 0u);
  EXPECT_GT(r.scale.tuples_processed, 0u);
  EXPECT_GT(r.scale.mean_sic, 0.0);
  EXPECT_GT(r.scale.jain, 0.0);
  // All nodes are back up at the end.
  size_t total_nodes = static_cast<size_t>(co.scale.nodes);
  EXPECT_EQ(fsps->live_node_ids().size(), total_nodes);
}

TEST(ChurnScenarioTest, OneInstantReplaysEventsThenArrivalsThenTick) {
  // An arrival, a crash wave and an autoscaler tick share t = 2 s. The
  // replay must commit the wave first, deploy the arrival onto the
  // post-crash topology, then tick against the post-crash live set.
  ScaleScenarioOptions so;
  so.nodes = 4;
  so.clusters = 2;  // cluster 0 = nodes {0, 1}, cluster 1 = nodes {2, 3}
  so.queries = 3;
  ChurnScenario scenario;
  scenario.base = MakeScaleScenario(so);
  const SimTime at = Seconds(2);
  // q0 and q1 take nodes 0 and 2, leaving cluster 0's round-robin cursor
  // on node 1 for q2 — the node the wave crashes at q2's arrival instant.
  scenario.base.queries = {{0, ComplexKind::kAvgAll, 1, 0, 0},
                           {1, ComplexKind::kAvgAll, 1, 0, 1},
                           {2, ComplexKind::kAvgAll, 1, at, 0}};
  scenario.events = {{at, ChurnEventKind::kCrash, 1},
                     {at, ChurnEventKind::kCrash, 3}};
  FspsOptions fo;
  fo.shards = 1;
  auto fsps = MakeElasticFederation(scenario, fo);
  AutoscalerOptions ao;
  ao.first_tick = at;
  ao.tick_interval = Seconds(60);  // the only tick of the run
  Autoscaler autoscaler(fsps.get(), scenario.base, ao);
  ChurnRunResult r = ReplayScenario(fsps.get(), scenario.base, scenario.events,
                                    0, &autoscaler);
  ASSERT_EQ(fsps->now(), at);  // measure 0: the run ends at the instant
  EXPECT_EQ(r.crashes, 2u);
  // q2 skipped the crashed node 1 and landed on node 0: no orphan to
  // re-place, no bounced arrival.
  EXPECT_EQ(r.replaced_fragments, 0u);
  EXPECT_EQ(r.skipped_arrivals, 0u);
  std::vector<QueryId> on_node0 = fsps->node(0)->HostedQueries();
  EXPECT_NE(std::find(on_node0.begin(), on_node0.end(), 2), on_node0.end());

  ASSERT_EQ(autoscaler.stats().ticks, 1u);
  std::vector<NodeId> live = fsps->live_node_ids();
  ASSERT_EQ(live, (std::vector<NodeId>{0, 2}));
  double offered = 0.0;
  for (NodeId id : live) offered += fsps->node(id)->OfferedLoadUs(at);
  ASSERT_GT(offered, 0.0);  // the two live-set sizes give different values
  const double stw = static_cast<double>(fsps->options().node.stw);
  EXPECT_DOUBLE_EQ(autoscaler.last_utilization(), offered / (2.0 * stw));
}

}  // namespace
}  // namespace themis
