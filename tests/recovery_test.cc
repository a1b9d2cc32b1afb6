// Randomized fault-injection property tests: for a family of derived
// seeds, drive an Fsps (recovery tracker enabled) through a random
// crash/restore/link-flap schedule and assert the runtime's invariants
// after every RunFor segment —
//   * conservation: no tuple is accounted twice (a node's processed + shed
//     + still-buffered tuples never exceed what it received),
//   * liveness: crashed nodes host nothing and every deployed query is
//     hosted on at least one live node,
//   * the recovery tracker's clocks are monotone,
// and that the tracker's serialized output is bit-identical run-to-run at
// shards = 1 and at shards = 4.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "federation/fsps.h"
#include "federation/placement.h"
#include "workload/workloads.h"

namespace themis {
namespace {

constexpr int kSeeds = 20;
constexpr uint64_t kBaseSeed = 20260731;

// The i-th derived seed (splitmix-style mix so neighbouring schedules share
// nothing).
uint64_t DeriveSeed(int i) {
  uint64_t z = kBaseSeed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Deterministic digest of one run: the tracker's serialized state plus the
// aggregate simulation outcome.
struct RunDigest {
  std::string tracker;
  std::vector<double> sics;
  uint64_t messages = 0;
  uint64_t events = 0;
  uint64_t crashes = 0;
  uint64_t restores = 0;
  uint64_t replaced = 0;
  uint64_t dropped = 0;
};

void ExpectDigestsEqual(const RunDigest& a, const RunDigest& b,
                        const char* what) {
  EXPECT_EQ(a.tracker, b.tracker) << what;
  EXPECT_EQ(a.sics, b.sics) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.crashes, b.crashes) << what;
  EXPECT_EQ(a.restores, b.restores) << what;
  EXPECT_EQ(a.replaced, b.replaced) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
}

void CheckInvariants(Fsps* fsps, SimTime* last_sample_seen) {
  // Conservation: every tuple a node received is processed, shed, still
  // buffered, or died with a crash — never two of those at once, so the
  // first three can never sum past the received count.
  for (NodeId id : fsps->node_ids()) {
    Node* n = fsps->node(id);
    const NodeStats& s = n->stats();
    uint64_t accounted = s.tuples_processed + s.tuples_shed +
                         n->input_buffer().num_tuples();
    EXPECT_LE(accounted, s.tuples_received) << "node " << id;
    EXPECT_LE(s.batches_processed + s.batches_shed +
                  n->input_buffer().num_batches(),
              s.batches_received)
        << "node " << id;
  }

  // Liveness: dead nodes host nothing; every deployed query has at least
  // one live host, and nothing hosted is undeployed.
  std::set<QueryId> deployed;
  for (QueryId q : fsps->query_ids()) deployed.insert(q);
  std::set<QueryId> hosted_on_live;
  for (NodeId id : fsps->node_ids()) {
    Node* n = fsps->node(id);
    if (!n->alive()) {
      EXPECT_TRUE(n->HostedQueries().empty()) << "dead node " << id;
      continue;
    }
    for (QueryId q : n->HostedQueries()) {
      EXPECT_EQ(deployed.count(q), 1u) << "zombie query " << q;
      hosted_on_live.insert(q);
    }
  }
  for (QueryId q : deployed) {
    EXPECT_EQ(hosted_on_live.count(q), 1u) << "orphaned query " << q;
  }

  // Tracker clocks are monotone: samples never step back across RunFor
  // segments and disturbances are recorded in time order.
  const RecoveryTracker& tracker = fsps->recovery_tracker();
  EXPECT_GE(tracker.last_sample_time(), *last_sample_seen);
  *last_sample_seen = tracker.last_sample_time();
  SimTime prev = -1;
  for (const Disturbance& d : tracker.disturbances()) {
    EXPECT_GE(d.time, prev);
    prev = d.time;
  }
}

RunDigest RunRandomFaultInjection(uint64_t seed, int shards) {
  FspsOptions opts;
  opts.seed = seed;
  opts.shards = shards;
  opts.default_link_latency = Millis(40);
  opts.source_link_latency = Millis(10);
  opts.node.cpu_speed = 0.005;  // overloaded: shedding decisions involved
  // Alternate the re-placement policy across seeds so both paths face the
  // fault injector.
  opts.replacement = (seed % 2 == 0) ? ReplacementPolicy::kRoundRobin
                                     : ReplacementPolicy::kSicAware;
  opts.recovery.enabled = true;
  opts.recovery.sample_interval = Millis(200);
  Fsps fsps(opts);
  constexpr int kNodes = 8;
  for (int i = 0; i < kNodes; ++i) fsps.AddNode();

  WorkloadFactory factory(seed);
  Rng place_rng(seed + 1);
  for (QueryId q = 0; q < 4; ++q) {
    ComplexQueryOptions co;
    co.fragments = 1 + (q % 2);
    co.sources_per_fragment = 3;
    co.source_rate = 50;
    BuiltQuery built = factory.MakeRandomComplex(q, co);
    auto placement =
        PlaceFragments(*built.graph, fsps.node_ids(),
                       PlacementPolicy::kUniformRandom, 0.0, &place_rng);
    EXPECT_TRUE(fsps.Deploy(std::move(built.graph), placement).ok());
    EXPECT_TRUE(fsps.AttachSources(q, built.sources).ok());
  }

  // The schedule rng drives segment lengths and fault choices; it depends
  // only on the seed and the (deterministic) live set, so two runs of the
  // same seed replay the exact same schedule.
  Rng rng(seed ^ 0xfa1737u);
  SimTime last_sample_seen = -1;
  for (int step = 0; step < 18; ++step) {
    fsps.RunFor(Millis(rng.UniformInt(150, 650)));
    CheckInvariants(&fsps, &last_sample_seen);

    switch (rng.UniformInt(0, 3)) {
      case 0: {  // crash a live node (keep at least two alive)
        std::vector<NodeId> live = fsps.live_node_ids();
        if (live.size() <= 2) break;
        NodeId victim = live[rng.UniformInt(
            0, static_cast<int64_t>(live.size()) - 1)];
        EXPECT_TRUE(fsps.PlanTopology().Crash(victim).Apply().ok());
        break;
      }
      case 1: {  // restore a crashed node
        std::vector<NodeId> live = fsps.live_node_ids();
        if (live.size() == kNodes) break;
        std::set<NodeId> alive(live.begin(), live.end());
        for (NodeId id = 0; id < kNodes; ++id) {
          if (alive.count(id) == 0) {
            EXPECT_TRUE(fsps.PlanTopology().Restore(id).Apply().ok());
            break;
          }
        }
        break;
      }
      case 2: {  // flap a random link (always strictly positive latency)
        NodeId a = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
        NodeId b = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
        if (a == b) break;
        EXPECT_TRUE(fsps.PlanTopology()
                        .SetLinkLatency(a, b, Millis(rng.UniformInt(5, 120)))
                        .Apply()
                        .ok());
        break;
      }
      default:  // quiet segment
        break;
    }
  }
  fsps.RunFor(Seconds(2));
  CheckInvariants(&fsps, &last_sample_seen);

  RunDigest digest;
  digest.tracker = fsps.recovery_tracker().DebugString();
  digest.sics = fsps.AllQuerySics();
  digest.messages = fsps.network()->messages_sent();
  digest.events = fsps.engine()->executed();
  const FspsChurnStats& churn = fsps.churn_stats();
  digest.crashes = churn.crashes;
  digest.restores = churn.restores;
  digest.replaced = churn.replaced_fragments;
  digest.dropped = churn.dropped_queries;
  EXPECT_FALSE(digest.tracker.empty());
  return digest;
}

TEST(RecoveryPropertyTest, InvariantsAndDeterminismSequential) {
  for (int i = 0; i < kSeeds; ++i) {
    uint64_t seed = DeriveSeed(i);
    RunDigest a = RunRandomFaultInjection(seed, 1);
    RunDigest b = RunRandomFaultInjection(seed, 1);
    ExpectDigestsEqual(a, b, "run-to-run at shards=1");
    if (HasFailure()) {
      ADD_FAILURE() << "failing seed " << seed << " (index " << i << ")";
      break;
    }
  }
}

TEST(RecoveryPropertyTest, InvariantsAndDeterminismSharded) {
  for (int i = 0; i < kSeeds; ++i) {
    uint64_t seed = DeriveSeed(i);
    RunDigest a = RunRandomFaultInjection(seed, 4);
    RunDigest b = RunRandomFaultInjection(seed, 4);
    ExpectDigestsEqual(a, b, "run-to-run at shards=4");
    if (HasFailure()) {
      ADD_FAILURE() << "failing seed " << seed << " (index " << i << ")";
      break;
    }
  }
}

}  // namespace
}  // namespace themis
