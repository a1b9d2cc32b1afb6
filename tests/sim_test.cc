// Tests for the discrete-event core: event ordering, clock semantics,
// network latency and statistics, and the migratable timer.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/parallel_engine.h"
#include "sim/timer.h"

namespace themis {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Millis(30), [&] { order.push_back(3); });
  q.Schedule(Millis(10), [&] { order.push_back(1); });
  q.Schedule(Millis(20), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Millis(30));
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(Millis(10), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.Schedule(Millis(10), [&] { ++fired; });
  q.Schedule(Millis(20), [&] { ++fired; });
  q.Schedule(Millis(30), [&] { ++fired; });
  q.RunUntil(Millis(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Millis(20));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.ScheduleAfter(Millis(1), recurse);
  };
  q.Schedule(0, recurse);
  q.RunUntil(Millis(100));
  EXPECT_EQ(depth, 5);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  q.Schedule(Millis(50), [] {});
  q.RunAll();
  bool ran = false;
  q.Schedule(Millis(10), [&] { ran = true; });  // in the past
  q.RunUntil(Millis(50));
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, TakeIfTakesTaggedEventsInRunOrder) {
  EventQueue q;
  std::vector<int> order;
  auto push = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  // Untagged and tag-1 events stay; the tag-2 events are taken out.
  q.Schedule(Millis(30), push(0), 2);
  q.Schedule(Millis(10), push(1), 1);
  q.Schedule(Millis(20), push(2));
  q.Schedule(Millis(10), push(3), 2);
  q.Schedule(Millis(20), push(4), 1);
  q.Schedule(Millis(10), push(5), 2);
  q.Schedule(Millis(20), push(6));
  std::vector<EventQueue::Taken> taken;
  q.TakeIf([](int32_t tag) { return tag == 2; }, &taken);
  EXPECT_EQ(q.pending(), 4u);

  // Taken in (time, seq) order, with their deadlines and tags.
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].time, Millis(10));
  EXPECT_EQ(taken[1].time, Millis(10));
  EXPECT_EQ(taken[2].time, Millis(30));
  EventQueue other;
  for (EventQueue::Taken& ev : taken) {
    EXPECT_EQ(ev.tag, 2);
    other.Schedule(ev.time, std::move(ev.cb), ev.tag);
  }
  other.RunAll();
  EXPECT_EQ(order, (std::vector<int>{3, 5, 0}));

  // Untagged events never match, whatever the predicate says.
  taken.clear();
  q.TakeIf([](int32_t) { return true; }, &taken);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].tag, 1);
  EXPECT_EQ(taken[1].time, Millis(20));
  for (EventQueue::Taken& ev : taken) q.Schedule(ev.time, std::move(ev.cb));

  // The rest still run in time order, FIFO among equal times (the taken
  // tag-1 events re-scheduled last).
  order.clear();
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 6, 4}));
}

TEST(NetworkTest, DefaultLatencyApplied) {
  ParallelEngine engine(1);
  EventQueue& q = *engine.queue(0);
  Network net(&engine, Millis(5));
  SimTime delivered_at = -1;
  net.Send(0, 1, 100, [&] { delivered_at = q.now(); });
  q.RunAll();
  EXPECT_EQ(delivered_at, Millis(5));
}

TEST(NetworkTest, PerLinkOverride) {
  ParallelEngine engine(1);
  EventQueue& q = *engine.queue(0);
  Network net(&engine, Millis(5));
  net.SetLatency(0, 1, Millis(50));
  SimTime t01 = -1, t02 = -1;
  net.Send(0, 1, 10, [&] { t01 = q.now(); });
  net.Send(0, 2, 10, [&] { t02 = q.now(); });
  q.RunAll();
  EXPECT_EQ(t01, Millis(50));
  EXPECT_EQ(t02, Millis(5));
}

TEST(NetworkTest, LatencyIsSymmetric) {
  ParallelEngine engine(1);
  Network net(&engine, Millis(5));
  net.SetLatency(3, 1, Millis(42));
  EXPECT_EQ(net.Latency(1, 3), Millis(42));
  EXPECT_EQ(net.Latency(3, 1), Millis(42));
}

TEST(NetworkTest, SelfDeliveryIsImmediate) {
  ParallelEngine engine(1);
  Network net(&engine, Millis(5));
  EXPECT_EQ(net.Latency(2, 2), 0);
}

TEST(NetworkTest, CountsTraffic) {
  ParallelEngine engine(1);
  EventQueue& q = *engine.queue(0);
  Network net(&engine, Millis(1));
  net.Send(0, 1, 100, [] {});
  net.Send(0, 1, 150, [] {});
  q.RunAll();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 250u);
}

TEST(NetworkTest, LatencyMatrixGrowsWithNodeIds) {
  // The dense matrix grows on demand and keeps earlier overrides; ids
  // beyond any override still resolve to the default.
  ParallelEngine engine(1);
  Network net(&engine, Millis(5));
  net.SetLatency(0, 1, Millis(11));
  net.SetLatency(40, 90, Millis(70));  // forces regrowth
  EXPECT_EQ(net.Latency(0, 1), Millis(11));
  EXPECT_EQ(net.Latency(90, 40), Millis(70));
  EXPECT_EQ(net.Latency(0, 90), Millis(5));
  EXPECT_EQ(net.Latency(500, 501), Millis(5));  // never stored: default
}

TEST(NetworkTest, SourcePseudoNodeLatency) {
  ParallelEngine engine(1);
  Network net(&engine, Millis(5));
  net.SetLatency(kInvalidId, 2, Millis(9));
  EXPECT_EQ(net.Latency(kInvalidId, 2), Millis(9));
  EXPECT_EQ(net.Latency(kInvalidId, 3), Millis(5));
}

TEST(NetworkTest, UnshardedSettersApplyImmediately) {
  ParallelEngine engine(1);
  Network net(&engine, Millis(5));
  EXPECT_TRUE(net.SetLatency(0, 1, Millis(20)).ok());
  EXPECT_EQ(net.Latency(0, 1), Millis(20));
}

TEST(NetworkTest, MutationQueueAppliesInFifoOrder) {
  ParallelEngine engine(1);
  Network net(&engine, Millis(5));
  net.QueueSetLatency(0, 1, Millis(20));
  net.QueueSetLatency(0, 1, Millis(30));  // later edit wins
  EXPECT_TRUE(net.has_queued_mutations());
  EXPECT_EQ(net.Latency(0, 1), Millis(5));  // nothing applied yet
  EXPECT_EQ(net.ApplyQueuedMutations(), 2u);
  EXPECT_FALSE(net.has_queued_mutations());
  EXPECT_EQ(net.Latency(0, 1), Millis(30));
  EXPECT_EQ(net.ApplyQueuedMutations(), 0u);  // drained
}

TEST(NetworkTest, QueuedMutationGrowsMatrixIncrementally) {
  ParallelEngine engine(1);
  Network net(&engine, Millis(5));
  net.SetLatency(0, 1, Millis(11));
  net.QueueSetLatency(80, 120, Millis(70));  // forces regrowth on apply
  net.ApplyQueuedMutations();
  EXPECT_EQ(net.Latency(0, 1), Millis(11));  // earlier override preserved
  EXPECT_EQ(net.Latency(120, 80), Millis(70));
  EXPECT_EQ(net.Latency(0, 120), Millis(5));
}

TEST(NetworkTest, MinCrossShardLatency) {
  ParallelEngine engine(1);
  Network net(&engine, Millis(50));
  net.SetLatency(0, 1, Millis(5));   // same shard: must not count
  net.SetLatency(2, 3, Millis(20));  // cross shard
  std::vector<int> shard_of_node = {0, 0, 0, 1};
  EXPECT_EQ(net.MinCrossShardLatency(shard_of_node), Millis(20));
  // All nodes on one shard: no cross-shard pair.
  EXPECT_EQ(net.MinCrossShardLatency({0, 0, 0, 0}), -1);
  // An overridden link that crosses shards caps the lookahead.
  EXPECT_EQ(net.MinCrossShardLatency({0, 1}), Millis(5));
  // Unlisted cross-shard pairs fall back to the default latency.
  Network fresh(&engine, Millis(50));
  EXPECT_EQ(fresh.MinCrossShardLatency({0, 1}), Millis(50));
}

TEST(NetworkTest, ShardOfDefaultsToZero) {
  ParallelEngine engine(2);
  Network net(&engine);
  net.SetShardMap({0, 1, 1});
  EXPECT_EQ(net.ShardOf(0), 0);
  EXPECT_EQ(net.ShardOf(2), 1);
  EXPECT_EQ(net.ShardOf(kInvalidId), 0);
  EXPECT_EQ(net.ShardOf(99), 0);
}

// Owner of a Timer: counts fires, and optionally re-arms from the callback.
class Ticker {
 public:
  Ticker(EventQueue* queue, SimDuration period = 0)
      : timer(this, queue), period_(period) {}

  void Fire() {
    fired_at.push_back(timer.queue()->now());
    if (period_ > 0) timer.Arm(timer.queue()->now() + period_);
  }

  Timer<Ticker, &Ticker::Fire> timer;
  std::vector<SimTime> fired_at;

 private:
  SimDuration period_;
};

TEST(TimerTest, MoveToFiresAtTheDeadlineOnTheNewQueue) {
  ParallelEngine engine(2);
  Ticker t(engine.queue(0));
  t.timer.Arm(Millis(30));
  engine.RunUntil(Millis(10));
  t.timer.MoveTo(engine.queue(1));
  EXPECT_TRUE(t.timer.armed());
  EXPECT_EQ(t.timer.queue(), engine.queue(1));
  engine.RunUntil(Millis(100));
  EXPECT_EQ(t.fired_at, (std::vector<SimTime>{Millis(30)}));
  EXPECT_FALSE(t.timer.armed());
  // The event left on the old queue ran as a counted no-op.
  EXPECT_EQ(engine.queue(0)->executed(), 1u);
  EXPECT_EQ(engine.queue(1)->executed(), 1u);
}

TEST(TimerTest, CancelThenMoveToSchedulesNothing) {
  ParallelEngine engine(2);
  Ticker t(engine.queue(0));
  t.timer.Arm(Millis(30));
  t.timer.Cancel();
  EXPECT_FALSE(t.timer.armed());
  t.timer.MoveTo(engine.queue(1));
  EXPECT_EQ(engine.queue(1)->pending(), 0u);
  engine.RunUntil(Millis(100));
  EXPECT_TRUE(t.fired_at.empty());
  EXPECT_EQ(engine.queue(0)->executed(), 1u);  // the cancelled event
  EXPECT_EQ(engine.queue(1)->executed(), 0u);
}

TEST(TimerTest, FireCallbackCanReArm) {
  ParallelEngine engine(2);
  Ticker t(engine.queue(0), Millis(10));
  t.timer.Arm(Millis(10));
  engine.RunUntil(Millis(35));
  EXPECT_EQ(t.fired_at,
            (std::vector<SimTime>{Millis(10), Millis(20), Millis(30)}));
  EXPECT_TRUE(t.timer.armed());
  // The chain keeps its phase across a move.
  t.timer.MoveTo(engine.queue(1));
  engine.RunUntil(Millis(55));
  EXPECT_EQ(t.fired_at, (std::vector<SimTime>{Millis(10), Millis(20),
                                              Millis(30), Millis(40),
                                              Millis(50)}));
}

TEST(TimerTest, MoveToTheSameQueueIsANoOp) {
  ParallelEngine engine(2);
  Ticker t(engine.queue(0));
  t.timer.Arm(Millis(30));
  t.timer.MoveTo(engine.queue(0));
  EXPECT_EQ(engine.queue(0)->pending(), 1u);
  engine.RunUntil(Millis(100));
  EXPECT_EQ(t.fired_at, (std::vector<SimTime>{Millis(30)}));
  EXPECT_EQ(engine.queue(0)->executed(), 1u);
}

}  // namespace
}  // namespace themis
