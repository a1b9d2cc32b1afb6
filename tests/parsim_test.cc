// Tests for the conservative parallel engine (sim/parallel_engine.h): the
// one-shard path every single-shard federation runs on, cross-shard delivery
// through the epoch barriers, and the deterministic (deliver_time,
// from_shard, ring_seq) merge order.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "federation/fsps.h"
#include "sim/network.h"
#include "sim/parallel_engine.h"

namespace themis {
namespace {

// Execution trace entry: (simulated time, event tag).
using Trace = std::vector<std::pair<SimTime, int>>;

TEST(ParallelEngineTest, SingleShardWrapsOneQueue) {
  ParallelEngine engine(1);
  ASSERT_EQ(engine.num_shards(), 1);
  int fired = 0;
  engine.queue(0)->Schedule(Millis(10), [&] { ++fired; });
  engine.queue(0)->Schedule(Millis(30), [&] { ++fired; });
  engine.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), Millis(20));
  EXPECT_EQ(engine.executed(), 1u);
}

TEST(ParallelEngineTest, SingleShardRunsEventsInTimeThenFifoOrder) {
  ParallelEngine engine(1);
  EventQueue* q = engine.queue(0);
  Trace trace;
  // Tags 0..4 land at 50, 40, 30, 20 and 10 ms.
  for (int i = 0; i < 5; ++i) {
    q->ScheduleAfter(Millis(10 * (5 - i)),
                     [&trace, q, i] { trace.push_back({q->now(), i}); });
  }
  // Two more events at 30 ms, after tag 2: equal-time ties stay FIFO.
  q->Schedule(Millis(30), [&trace, q] { trace.push_back({q->now(), 100}); });
  q->Schedule(Millis(30), [&trace, q] { trace.push_back({q->now(), 101}); });

  // The target is inclusive: all three 30 ms events run.
  engine.RunUntil(Millis(30));
  EXPECT_EQ(trace, (Trace{{Millis(10), 4},
                          {Millis(20), 3},
                          {Millis(30), 2},
                          {Millis(30), 100},
                          {Millis(30), 101}}));
  EXPECT_EQ(engine.now(), Millis(30));
  EXPECT_EQ(engine.executed(), 5u);

  engine.RunUntil(Millis(60));
  EXPECT_EQ(trace, (Trace{{Millis(10), 4},
                          {Millis(20), 3},
                          {Millis(30), 2},
                          {Millis(30), 100},
                          {Millis(30), 101},
                          {Millis(40), 1},
                          {Millis(50), 0}}));
  EXPECT_EQ(engine.now(), Millis(60));
  EXPECT_EQ(engine.executed(), 7u);
}

TEST(ParallelEngineTest, ShardsAdvanceTogetherWithoutCrossTraffic) {
  ParallelEngine engine(3);
  std::vector<int> fired(3, 0);
  for (int s = 0; s < 3; ++s) {
    EventQueue* q = engine.queue(s);
    q->Schedule(Millis(10 * (s + 1)), [&fired, s] { ++fired[s]; });
    q->Schedule(Millis(90), [&fired, s] { ++fired[s]; });
  }
  // Default lookahead (-1): no cross-shard traffic declared, one stretch.
  engine.RunUntil(Millis(50));
  EXPECT_EQ(fired, (std::vector<int>{1, 1, 1}));
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(engine.queue(s)->now(), Millis(50));
  }
  engine.RunUntil(Millis(100));
  EXPECT_EQ(fired, (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(engine.executed(), 6u);
}

// One latency override, applied before Freeze() freezes the topology.
struct LinkSpec {
  NodeId a;
  NodeId b;
  SimDuration latency;
};

// Two-shard fixture: node 0 on shard 0, node 1 on shard 1, 10 ms default
// link latency (also the lookahead — overrides must not go below it).
struct TwoShardNet {
  ParallelEngine engine{2};
  Network net{&engine, Millis(10)};

  explicit TwoShardNet(std::vector<LinkSpec> links = {}) {
    for (const LinkSpec& link : links) {
      net.SetLatency(link.a, link.b, link.latency);
    }
    net.SetShardMap({0, 1});
    net.Freeze();
    engine.SetLookahead(Millis(10));
  }
};

TEST(ParallelEngineTest, CrossShardDeliveryRespectsLatency) {
  TwoShardNet f;
  SimTime delivered_at = -1;
  f.engine.queue(0)->Schedule(Millis(7), [&] {
    f.net.Send(0, 1, 25, [&] { delivered_at = f.engine.queue(1)->now(); });
  });
  f.engine.RunUntil(Millis(100));
  EXPECT_EQ(delivered_at, Millis(17));
  EXPECT_EQ(f.net.messages_sent(), 1u);
  EXPECT_EQ(f.net.bytes_sent(), 25u);
}

TEST(ParallelEngineTest, SameShardTrafficSkipsTheRings) {
  // Source pseudo-node traffic (from == kInvalidId) runs on the
  // destination's shard and must stay shard-local.
  TwoShardNet f({{kInvalidId, 1, Millis(3)}});
  SimTime delivered_at = -1;
  f.engine.queue(1)->Schedule(Millis(5), [&] {
    f.net.Send(kInvalidId, 1, 10,
               [&] { delivered_at = f.engine.queue(1)->now(); });
  });
  f.engine.RunUntil(Millis(100));
  EXPECT_EQ(delivered_at, Millis(8));
}

TEST(ParallelEngineTest, CrossShardOrderIsDeterministic) {
  auto run = [] {
    TwoShardNet f;
    std::vector<int> order;  // only ever touched by shard 1
    for (int i = 0; i < 24; ++i) {
      f.engine.queue(0)->Schedule(Millis(i % 6), [&f, &order, i] {
        f.net.Send(0, 1, 1, [&order, i] { order.push_back(i); });
      });
    }
    f.engine.RunUntil(Millis(200));
    return order;
  };
  std::vector<int> first = run();
  EXPECT_EQ(first.size(), 24u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(run(), first);
  }
  // Same send latency: deliveries keep send-time order; equal send times
  // keep scheduling order.
  std::vector<int> expected;
  for (int t = 0; t < 6; ++t) {
    for (int i = t; i < 24; i += 6) expected.push_back(i);
  }
  EXPECT_EQ(first, expected);
}

TEST(ParallelEngineTest, MergeOrdersByTimeThenShard) {
  // Three shards: shards 0 and 1 both send to node 2 (shard 2) with equal
  // delivery times. The merge must order by (deliver_time, from_shard),
  // regardless of wall-clock interleaving.
  ParallelEngine engine(3);
  Network net(&engine, Millis(10));
  net.SetShardMap({0, 1, 2});
  engine.SetLookahead(Millis(10));

  std::vector<int> order;  // only touched by shard 2
  for (int i = 0; i < 4; ++i) {
    engine.queue(1)->Schedule(Millis(i), [&net, &order, i] {
      net.Send(1, 2, 1, [&order, i] { order.push_back(10 + i); });
    });
    engine.queue(0)->Schedule(Millis(i), [&net, &order, i] {
      net.Send(0, 2, 1, [&order, i] { order.push_back(i); });
    });
  }
  engine.RunUntil(Millis(100));
  // Per delivery time: shard 0's message first, then shard 1's.
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11, 2, 12, 3, 13}));
}

TEST(ParallelEngineTest, RemoteDeliveryBeyondOneEpoch) {
  // A 100 ms WAN link with a 10 ms lookahead: the delivery crosses many
  // epoch boundaries and must still arrive exactly once, at the right time.
  TwoShardNet f({{0, 1, Millis(100)}});
  int delivered = 0;
  SimTime at = -1;
  f.engine.queue(0)->Schedule(Millis(3), [&] {
    f.net.Send(0, 1, 1, [&] {
      ++delivered;
      at = f.engine.queue(1)->now();
    });
  });
  f.engine.RunUntil(Millis(50));  // not yet delivered
  EXPECT_EQ(delivered, 0);
  f.engine.RunUntil(Millis(200));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(at, Millis(103));
}

TEST(ParallelEngineTest, DeliveryAtExactRunUntilTarget) {
  // Regression test: a send at exactly the run's start time over a link
  // whose latency equals the lookahead delivers at the first epoch's own
  // end. The zero-width boundary epoch merges it before the destination
  // runs past that time — matching the one-shard path, which executes
  // events at an inclusive RunUntil target.
  TwoShardNet f;
  SimTime delivered_at = -1;
  f.engine.queue(0)->Schedule(0, [&] {
    f.net.Send(0, 1, 1, [&] { delivered_at = f.engine.queue(1)->now(); });
  });
  f.engine.RunUntil(Millis(10));  // target == delivery time exactly
  EXPECT_EQ(delivered_at, Millis(10));
}

TEST(ParallelEngineTest, DeliveryAtBoundaryOfResumedRun) {
  // Same boundary case, but at the start of a *second* RunUntil: an event
  // scheduled between runs at the current clock sends with latency ==
  // lookahead, due exactly one epoch into the resumed run.
  TwoShardNet f;
  f.engine.RunUntil(Millis(25));
  SimTime delivered_at = -1;
  f.engine.queue(0)->Schedule(Millis(25), [&] {
    f.net.Send(0, 1, 1, [&] { delivered_at = f.engine.queue(1)->now(); });
  });
  f.engine.RunUntil(Millis(35));
  EXPECT_EQ(delivered_at, Millis(35));
}

TEST(ParallelEngineTest, RunForZeroRunsEventsAtCurrentClock) {
  // RunUntil(now) mirrors EventQueue::RunUntil semantics: events at the
  // current clock run, including ones that send cross-shard (their
  // deliveries queue up for the next run).
  TwoShardNet f;
  f.engine.RunUntil(Millis(20));
  bool ran = false;
  SimTime delivered_at = -1;
  f.engine.queue(0)->Schedule(Millis(20), [&] {
    ran = true;
    f.net.Send(0, 1, 1, [&] { delivered_at = f.engine.queue(1)->now(); });
  });
  f.engine.RunUntil(Millis(20));
  EXPECT_TRUE(ran);
  EXPECT_EQ(delivered_at, -1);  // due at 30 ms, not yet
  f.engine.RunUntil(Millis(40));
  EXPECT_EQ(delivered_at, Millis(30));
}

TEST(ParallelEngineTest, TopologyFrozenOnShardedNetwork) {
  // Outcome 1 of a late topology edit: the immediate setter rejects it
  // with a Status error (no more process abort) and the matrix is
  // untouched.
  TwoShardNet f;
  EXPECT_TRUE(f.net.SetLatency(0, 1, Millis(1)).IsFailedPrecondition());
  EXPECT_EQ(f.net.Latency(0, 1), Millis(10));
}

TEST(ParallelEngineTest, QueuedTopologyEditDefersToEpochBoundary) {
  // Outcome 2: the edit queues and only lands when ApplyQueuedMutations
  // drains the queue at an epoch boundary — messages sent before the drain
  // still travel at the old latency.
  TwoShardNet f;
  f.net.QueueSetLatency(0, 1, Millis(30));
  EXPECT_TRUE(f.net.has_queued_mutations());
  EXPECT_EQ(f.net.Latency(0, 1), Millis(10));  // not yet applied

  SimTime first = -1;
  f.engine.queue(0)->Schedule(0, [&] {
    f.net.Send(0, 1, 1, [&] { first = f.engine.queue(1)->now(); });
  });
  f.engine.RunUntil(Millis(20));
  EXPECT_EQ(first, Millis(10));  // old latency

  EXPECT_EQ(f.net.ApplyQueuedMutations(), 1u);
  EXPECT_FALSE(f.net.has_queued_mutations());
  EXPECT_EQ(f.net.Latency(0, 1), Millis(30));
  // The caller re-derives the lookahead from the mutated matrix before
  // resuming (Fsps::ApplyTopologyMutations does this at RunFor time).
  EXPECT_EQ(f.net.MinCrossShardLatency({0, 1}), Millis(30));
  f.engine.SetLookahead(Millis(30));
  EXPECT_EQ(f.engine.lookahead(), Millis(30));

  SimTime second = -1;
  f.engine.queue(0)->Schedule(Millis(20), [&] {
    f.net.Send(0, 1, 1, [&] { second = f.engine.queue(1)->now(); });
  });
  f.engine.RunUntil(Millis(100));
  EXPECT_EQ(second, Millis(50));  // new latency
}

TEST(ParallelEngineTest, InFlightDeliveryMovesWithItsNode) {
  // The migration rule for deliveries (Network::SetShardMap): a 0 -> 1
  // delivery sent at 7 ms over the 10 ms link sits on shard 1's queue after
  // the 10 ms barrier. A re-balance moves node 1 to shard 0; the delivery
  // moves with it and fires there at its own deadline, 17 ms.
  TwoShardNet f;
  SimTime delivered_at = -1;
  f.engine.queue(0)->Schedule(Millis(7), [&] {
    f.net.Send(0, 1, 1, [&] { delivered_at = f.engine.queue(0)->now(); });
  });
  f.engine.RunUntil(Millis(10));
  ASSERT_EQ(f.engine.queue(1)->pending(), 1u);
  f.net.SetShardMap({0, 0});
  EXPECT_EQ(f.engine.queue(1)->pending(), 0u);
  EXPECT_EQ(f.engine.queue(0)->pending(), 1u);
  f.engine.RunUntil(Millis(100));
  EXPECT_EQ(delivered_at, Millis(17));
  EXPECT_EQ(f.engine.queue(0)->executed(), 2u);  // the send and the delivery
  EXPECT_EQ(f.engine.queue(1)->executed(), 0u);
}

TEST(ParallelEngineTest, MinCrossShardLatencySkipsDeadNodes) {
  // Lookahead re-derivation after a crash: links touching a dead node
  // carry no future traffic and must not narrow the epoch.
  ParallelEngine engine(1);
  Network net(&engine, Millis(50));
  net.SetLatency(0, 3, Millis(5));  // the tightest link, endpoint 3
  std::vector<int> shard_of_node = {0, 0, 1, 1};
  EXPECT_EQ(net.MinCrossShardLatency(shard_of_node), Millis(5));
  EXPECT_EQ(net.MinCrossShardLatency(shard_of_node, {1, 1, 1, 0}), Millis(50));
  // Restore: the link constrains the epoch again.
  EXPECT_EQ(net.MinCrossShardLatency(shard_of_node, {1, 1, 1, 1}), Millis(5));
}

// --- mid-run AddNode admission (Fsps control plane over this engine) ----

TEST(ParallelEngineTest, AddNodeAfterStartAdmittedWhenElastic) {
  FspsOptions opts;
  opts.shards = 2;
  opts.elastic = true;
  Fsps fsps(opts);
  fsps.AddNode();
  fsps.AddNode(opts.node, 1);
  fsps.RunFor(Millis(100));
  Result<NodeId> late = fsps.AddNode(opts.node, 1);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(*late, 2);
  EXPECT_TRUE(fsps.node_alive(*late));
  EXPECT_EQ(fsps.shard_of(*late), 1);
  // The join's source-link wiring defers to the next run boundary, like
  // any sharded topology edit; the node is schedulable right after it.
  fsps.RunFor(Millis(100));
  EXPECT_EQ(fsps.live_node_ids().size(), 3u);
  // A one-shard federation admits late joins too.
  FspsOptions seq_opts;
  Fsps seq(seq_opts);
  seq.AddNode();
  seq.RunFor(Millis(100));
  EXPECT_TRUE(seq.AddNode(seq_opts.node, 0).ok());
}

TEST(ParallelEngineTest, PingPongAcrossShards) {
  // Messages bouncing 0 -> 1 -> 0 -> ... for many epochs.
  TwoShardNet f;
  std::vector<SimTime> hops;  // alternately touched, never concurrently
  std::function<void(int)> bounce = [&](int at_node) {
    hops.push_back(f.engine.queue(at_node)->now());
    if (hops.size() >= 8) return;
    f.net.Send(at_node, 1 - at_node, 1, [&bounce, at_node] {
      bounce(1 - at_node);
    });
  };
  f.engine.queue(0)->Schedule(0, [&] { bounce(0); });
  f.engine.RunUntil(Millis(500));
  ASSERT_EQ(hops.size(), 8u);
  for (size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i], Millis(10) * static_cast<SimDuration>(i));
  }
}

}  // namespace
}  // namespace themis
