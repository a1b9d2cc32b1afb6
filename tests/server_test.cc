// Tests of the real-time runtime's building blocks: scheduler notify/run
// semantics, credit-based channel backpressure (pause on full, wake on
// grant, zero-credit starvation), shutdown while paused, and end-to-end
// pipeline behaviour on live worker threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/clock.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "runtime/operators/statistics.h"
#include "runtime/operators/topk.h"
#include "server/channel.h"
#include "server/scheduler.h"
#include "server/server_pipeline.h"
#include "shedding/balance_sic_shedder.h"

namespace themis {
namespace {

Batch TestBatch(QueryId q, size_t n) {
  std::vector<Tuple> ts;
  for (size_t i = 0; i < n; ++i) ts.push_back(Tuple(0, 0.01, {Value(1.0)}));
  return MakeBatch(q, /*op=*/0, /*port=*/0, /*created=*/0, std::move(ts));
}

// A task that counts its slices and returns a scripted status.
class CountingTask : public Task {
 public:
  explicit CountingTask(RunStatus status = RunStatus::kIdle)
      : status_(status) {}
  RunStatus RunSlice() override {
    runs.fetch_add(1, std::memory_order_relaxed);
    return status_;
  }
  std::atomic<int> runs{0};

 private:
  RunStatus status_;
};

TEST(ServerSchedulerTest, NotifyCollapsesWhileQueued) {
  Scheduler sched(0);
  CountingTask t;
  sched.Notify(&t);
  sched.Notify(&t);
  sched.Notify(&t);
  sched.RunUntilIdle();
  EXPECT_EQ(t.runs.load(), 1);
}

TEST(ServerSchedulerTest, NotifyDuringRunRequeues) {
  Scheduler sched(0);
  // Self-notifying task: the notify lands while the slice runs, so the
  // scheduler must mark it dirty and run it once more.
  class SelfNotify : public Task {
   public:
    Scheduler* sched = nullptr;
    int runs = 0;
    RunStatus RunSlice() override {
      ++runs;
      if (runs == 1) sched->Notify(this);
      return RunStatus::kIdle;
    }
  };
  SelfNotify t;
  t.sched = &sched;
  sched.Notify(&t);
  sched.RunUntilIdle();
  EXPECT_EQ(t.runs, 2);
}

TEST(ServerSchedulerTest, MoreWorkRequeuesFifo) {
  Scheduler sched(0);
  class TwoSlices : public Task {
   public:
    int runs = 0;
    RunStatus RunSlice() override {
      ++runs;
      return runs < 2 ? RunStatus::kMoreWork : RunStatus::kIdle;
    }
  };
  TwoSlices a;
  CountingTask b;
  sched.Notify(&a);
  sched.Notify(&b);
  sched.RunUntilIdle();
  EXPECT_EQ(a.runs, 2);
  EXPECT_EQ(b.runs.load(), 1);
}

TEST(ServerChannelTest, CreditsBoundInFlightBatches) {
  Scheduler sched(0);
  CountingTask consumer;
  CountingTask producer;
  BatchChannel ch(/*capacity=*/2, &consumer);

  Batch b1 = TestBatch(1, 4);
  Batch b2 = TestBatch(1, 4);
  Batch b3 = TestBatch(1, 4);
  EXPECT_TRUE(ch.TryPush(&b1, &producer, &sched));
  EXPECT_TRUE(ch.TryPush(&b2, &producer, &sched));
  EXPECT_EQ(ch.credits(), 0u);
  // Full: push fails, the batch stays with the producer.
  EXPECT_FALSE(ch.TryPush(&b3, &producer, &sched));
  EXPECT_EQ(b3.size(), 4u);
  EXPECT_EQ(ch.queued(), 2u);

  // Popping does not return the credit — only GrantCredit does.
  auto popped = ch.TryPop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_FALSE(ch.TryPush(&b3, &producer, &sched));
  ch.GrantCredit(&sched);
  EXPECT_TRUE(ch.TryPush(&b3, &producer, &sched));
}

TEST(ServerChannelTest, GrantWakesPausedProducer) {
  Scheduler sched(0);
  CountingTask consumer;
  CountingTask producer;
  BatchChannel ch(/*capacity=*/1, &consumer);

  Batch b1 = TestBatch(1, 1);
  Batch b2 = TestBatch(1, 1);
  ASSERT_TRUE(ch.TryPush(&b1, &producer, &sched));
  ASSERT_FALSE(ch.TryPush(&b2, &producer, &sched));
  sched.RunUntilIdle();  // consumer slice from the first push
  int producer_runs_before = producer.runs.load();

  // The grant must wake the registered waiter through the scheduler.
  (void)ch.TryPop();
  ch.GrantCredit(&sched);
  sched.RunUntilIdle();
  EXPECT_GT(producer.runs.load(), producer_runs_before);
}

TEST(ServerChannelTest, ZeroCreditStarvationHoldsUntilGrant) {
  // A consumer that pops but never grants starves the producer: no amount
  // of notifies lets a push through until the credit comes back.
  Scheduler sched(0);
  CountingTask consumer;
  CountingTask producer;
  BatchChannel ch(/*capacity=*/1, &consumer);

  Batch b1 = TestBatch(1, 1);
  ASSERT_TRUE(ch.TryPush(&b1, &producer, &sched));
  (void)ch.TryPop();  // consumer holds the only credit
  Batch b2 = TestBatch(1, 1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(ch.TryPush(&b2, &producer, &sched));
    sched.RunUntilIdle();
  }
  ch.GrantCredit(&sched);
  EXPECT_TRUE(ch.TryPush(&b2, &producer, &sched));
}

TEST(ServerSchedulerTest, ShutdownWhilePausedJoinsCleanly) {
  // A producer blocked on a full channel (kBlocked, waiting for a credit
  // that never comes) must not prevent Stop() from joining the workers.
  Scheduler sched(2);
  CountingTask consumer;
  BatchChannel ch(/*capacity=*/1, &consumer);

  class BlockedProducer : public Task {
   public:
    BatchChannel* ch = nullptr;
    Scheduler* sched = nullptr;
    std::atomic<bool> blocked{false};
    RunStatus RunSlice() override {
      Batch b = TestBatch(1, 1);
      if (!ch->TryPush(&b, this, sched)) {
        blocked.store(true, std::memory_order_release);
        return RunStatus::kBlocked;
      }
      return RunStatus::kMoreWork;  // keep pushing until full
    }
  };
  BlockedProducer producer;
  producer.ch = &ch;
  producer.sched = &sched;

  sched.Start();
  sched.Notify(&producer);
  while (!producer.blocked.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  sched.Stop();  // must return despite the paused producer
  EXPECT_EQ(ch.queued(), 1u);
}

// ---------------------------------------------------------------------
// Pipeline-level tests on live worker threads.
// ---------------------------------------------------------------------

std::unique_ptr<QueryGraph> MakeAvgGraph(QueryId q, SourceId src) {
  QueryBuilder b(q, "avg");
  OperatorId recv = b.Add(std::make_unique<ReceiverOp>(), 0);
  OperatorId avg = b.Add(
      std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                    WindowSpec::TumblingTime(kSecond)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv, avg).Connect(avg, out).BindSource(src, recv).SetRoot(out);
  return std::move(b.Build()).TakeValue();
}

Batch SourceBatch(QueryId q, SourceId src, SimTime now, size_t n,
                  double value) {
  std::vector<Tuple> ts;
  for (size_t i = 0; i < n; ++i) ts.push_back(Tuple(now, 0.0, {Value(value)}));
  Batch b = MakeBatch(q, /*op=*/0, /*port=*/0, now, std::move(ts));
  b.header.source = src;
  return b;
}

TEST(ServerPipelineTest, ProcessesBatchesEndToEnd) {
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 2;
  auto graph = MakeAvgGraph(1, /*src=*/10);
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  p.AddQuery(graph.get());
  p.Start();

  // 2.5 simulated seconds of arrivals; windows close as the clock passes
  // them (the wall-clock ticker waits on the manual clock, so ticks fire
  // on AdvanceTo).
  for (int i = 0; i < 25; ++i) {
    clock.AdvanceTo(Millis(100) * i);
    ASSERT_TRUE(p.Push(SourceBatch(1, 10, clock.NowMicros(), 100, 42.0)));
    p.WaitIdle();
  }
  clock.AdvanceTo(Seconds(3));
  p.WaitIdle();
  // The ticker thread catches up on its own pace; wait for it to pump the
  // two closed 1 s windows through before stopping.
  for (int i = 0; i < 2000 && p.ResultTuplesTotal(1) < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  p.Stop();

  EXPECT_EQ(p.stats().tuples_received, 2500u);
  EXPECT_EQ(p.stats().tuples_processed, 2500u);
  EXPECT_EQ(p.stats().tuples_shed, 0u);
  EXPECT_EQ(p.AcceptedTuplesTotal(1), 2500u);
  // Two 1 s windows fully closed by the 3 s watermark -> >= 2 AVG results.
  EXPECT_GE(p.ResultTuplesTotal(1), 2u);
  EXPECT_GT(p.AcceptedSicTotal(1), 0.0);
}

TEST(ServerPipelineTest, PushAfterStopIsRejected) {
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 1;
  auto graph = MakeAvgGraph(1, 10);
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  p.AddQuery(graph.get());
  p.Start();
  EXPECT_TRUE(p.Push(SourceBatch(1, 10, 0, 10, 1.0)));
  p.Stop();
  EXPECT_FALSE(p.Push(SourceBatch(1, 10, 0, 10, 1.0)));
}

TEST(ServerPipelineTest, SourceBackpressureBlocksAndResumes) {
  // Deterministic variant: no workers, so the IB fills while the ingress
  // is not running, the gate closes, a second-thread Push blocks, and
  // draining the pipeline reopens the gate.
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 0;
  opts.ib_high_watermark = 200;
  opts.ib_low_watermark = 50;
  auto graph = MakeAvgGraph(1, 10);
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  p.AddQuery(graph.get());
  p.Start();

  // Fill past the high watermark (gate closes at >= 200 tuples).
  ASSERT_TRUE(p.Push(SourceBatch(1, 10, 0, 150, 1.0)));
  ASSERT_TRUE(p.Push(SourceBatch(1, 10, 0, 100, 1.0)));
  EXPECT_EQ(p.ib_tuples(), 250u);

  std::atomic<bool> unblocked{false};
  std::thread source([&] {
    EXPECT_TRUE(p.Push(SourceBatch(1, 10, 0, 10, 1.0)));
    unblocked.store(true, std::memory_order_release);
  });
  // The push must be blocked: the gate is closed until the IB drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unblocked.load(std::memory_order_acquire));

  // Drain on this thread; passing the low watermark wakes the source.
  p.RunUntilIdle();
  source.join();
  EXPECT_TRUE(unblocked.load(std::memory_order_acquire));
  p.Stop();
  EXPECT_EQ(p.stats().tuples_received, 260u);
}

// The server workload's four sliding operators on two live workers: every
// query delivers results, and under TSan the per-operator window ring and
// scratch show no race (one ExecNode task owns each operator and runs one
// slice at a time).
TEST(ServerPipelineTest, SlidingOperatorsDeliverOnTwoWorkers) {
  const WindowSpec window = WindowSpec::SlidingTime(Millis(250), Millis(25));
  std::vector<std::unique_ptr<QueryGraph>> graphs;
  for (QueryId q = 0; q < 4; ++q) {
    std::unique_ptr<Operator> op;
    switch (q) {
      case 0:
        op = std::make_unique<AggregateOp>(AggregateKind::kAvg, 0, window);
        break;
      case 1:
        op = std::make_unique<QuantileOp>(0.99, 0, window);
        break;
      case 2:
        op = std::make_unique<TopKOp>(5, 0, 1, window);
        break;
      default:
        op = std::make_unique<GroupByAggregateOp>(AggregateKind::kAvg, 1, 0,
                                                  window);
        break;
    }
    QueryBuilder b(q, "sliding");
    OperatorId recv = b.Add(std::make_unique<ReceiverOp>(), 0);
    OperatorId mid = b.Add(std::move(op), 0);
    OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
    b.Connect(recv, mid)
        .Connect(mid, out)
        .BindSource(10 + q, recv)
        .SetRoot(out);
    graphs.push_back(std::move(b.Build()).TakeValue());
  }

  ManualClock clock;
  ServerOptions opts;
  opts.workers = 2;
  opts.window_grace = Millis(20);
  ServerPipeline p(opts, &clock, std::make_unique<BalanceSicShedder>(Rng(1)));
  for (const auto& g : graphs) p.AddQuery(g.get());
  p.Start();

  // One simulated second of 50-tuple batches every 5 ms per query.
  for (SimTime now = 0; now < kSecond; now += Millis(5)) {
    clock.AdvanceTo(now);
    for (QueryId q = 0; q < 4; ++q) {
      std::vector<Tuple> ts;
      for (int i = 0; i < 50; ++i) {
        const double v = static_cast<double>((now / 1000 + i) % 97);
        ts.push_back(Tuple(now, 0.0, {Value(v), Value(int64_t{i % 8})}));
      }
      Batch b = MakeBatch(q, /*op=*/0, /*port=*/0, now, std::move(ts));
      b.header.source = 10 + q;
      ASSERT_TRUE(p.Push(std::move(b)));
    }
  }
  clock.AdvanceTo(2 * kSecond);
  p.WaitIdle();
  auto all_delivered = [&] {
    for (QueryId q = 0; q < 4; ++q) {
      if (p.ResultTuplesTotal(q) == 0) return false;
    }
    return true;
  };
  for (int i = 0; i < 5000 && !all_delivered(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  p.Stop();

  EXPECT_EQ(p.stats().tuples_received, 4u * 200u * 50u);
  for (QueryId q = 0; q < 4; ++q) {
    EXPECT_GT(p.ResultTuplesTotal(q), 0u) << "query " << q;
  }
}

}  // namespace
}  // namespace themis
