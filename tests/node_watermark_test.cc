// Regression tests for the queue-aware watermark (DESIGN.md §4b item 4) and
// the node's accepted-SIC tracking: under overload, queue delay must not
// split a window's two join inputs across different panes.
#include <gtest/gtest.h>

#include <memory>

#include "node/node.h"
#include "runtime/operators/covariance.h"
#include "runtime/operators/receiver.h"
#include "shedding/balance_sic_shedder.h"

namespace themis {
namespace {

class ResultCounter : public BatchRouter {
 public:
  void RouteBatch(NodeId, QueryId, FragmentId, Batch) override {}
  void DeliverResult(QueryId query, SimTime,
                     const std::vector<Tuple>& results) override {
    counts[query] += results.size();
    for (const Tuple& t : results) sic[query] += t.sic;
  }
  std::map<QueryId, uint64_t> counts;
  std::map<QueryId, double> sic;
};

// Keeps every buffered batch, so a node never sheds however overloaded it
// looks.
class KeepAllShedder : public Shedder {
 public:
  std::vector<size_t> SelectBatchesToKeep(const std::deque<Batch>& ib,
                                          const ShedContext&) override {
    std::vector<size_t> keep(ib.size());
    for (size_t i = 0; i < keep.size(); ++i) keep[i] = i;
    return keep;
  }
  const char* name() const override { return "keep-all"; }
};

// Two-source covariance query in one fragment.
std::unique_ptr<QueryGraph> MakeCovGraph(QueryId q, SourceId s1, SourceId s2,
                                         double recv_cost_us) {
  QueryBuilder b(q, "cov");
  auto r1 = std::make_unique<ReceiverOp>();
  auto r2 = std::make_unique<ReceiverOp>();
  r1->set_cost_us_per_tuple(recv_cost_us);
  r2->set_cost_us_per_tuple(recv_cost_us);
  OperatorId recv1 = b.Add(std::move(r1), 0);
  OperatorId recv2 = b.Add(std::move(r2), 0);
  OperatorId cov = b.Add(
      std::make_unique<CovarianceOp>(0, 0, WindowSpec::TumblingTime(kSecond)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv1, cov, 0).Connect(recv2, cov, 1).Connect(cov, out);
  b.BindSource(s1, recv1).BindSource(s2, recv2).SetRoot(out);
  return std::move(b.Build()).TakeValue();
}

Batch SourceBatch(QueryId q, SourceId src, OperatorId dest, SimTime now,
                  size_t n, Rng* rng) {
  std::vector<Tuple> ts;
  for (size_t i = 0; i < n; ++i) {
    ts.push_back(Tuple(now, 0.0, {Value(rng->Uniform(0, 100))}));
  }
  Batch b = MakeBatch(q, dest, 0, now, std::move(ts));
  b.header.source = src;
  return b;
}

TEST(NodeWatermarkTest, QueueDelayDoesNotStarveBinaryOperators) {
  // Per-tuple cost 4 ms: a 20-tuple batch takes 80 ms, so with batches from
  // two sources every 100 ms the input buffer always holds ~2 intervals of
  // data. Without holding the watermark back to the oldest queued batch,
  // the covariance operator's two panes drift apart and nothing is emitted.
  EventQueue queue;
  ResultCounter router;
  NodeOptions options;
  options.window_grace = Millis(200);
  Node node(0, options, &queue, &router,
            std::make_unique<BalanceSicShedder>(Rng(1)));
  auto graph = MakeCovGraph(1, 10, 11, /*recv_cost_us=*/4000.0);
  node.HostFragment(graph.get(), 0);
  node.Start();

  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    queue.Schedule(Millis(100) * i, [&, i] {
      node.Receive(SourceBatch(1, 10, 0, queue.now(), 20, &rng));
      node.Receive(SourceBatch(1, 11, 1, queue.now(), 20, &rng));
    });
  }
  queue.RunUntil(Seconds(25));

  // The node is saturated (shedding happens) but windows stay aligned and
  // covariance results keep flowing.
  EXPECT_GT(node.stats().tuples_shed, 0u);
  EXPECT_GT(router.counts[1], 10u);
}

TEST(NodeWatermarkTest, AcceptedSicTracksProcessedMass) {
  EventQueue queue;
  ResultCounter router;
  Node node(0, NodeOptions{}, &queue, &router,
            std::make_unique<BalanceSicShedder>(Rng(1)));
  auto graph = MakeCovGraph(1, 10, 11, 0.5);
  node.HostFragment(graph.get(), 0);
  node.Start();

  Rng rng(3);
  for (int i = 0; i < 120; ++i) {
    queue.Schedule(Millis(100) * i, [&, i] {
      node.Receive(SourceBatch(1, 10, 0, queue.now(), 10, &rng));
      node.Receive(SourceBatch(1, 11, 1, queue.now(), 10, &rng));
    });
  }
  queue.RunUntil(Seconds(12));
  // Underloaded: every batch accepted, so the accepted mass over the STW is
  // ~1 (the full per-STW SIC budget of the query).
  EXPECT_EQ(node.stats().tuples_shed, 0u);
  EXPECT_NEAR(node.AcceptedSic(1, queue.now()), 1.0, 0.2);
  EXPECT_EQ(node.AcceptedSic(99, queue.now()), 0.0);
}

TEST(NodeWatermarkTest, WatermarkNeverPassesOldestQueuedBatch) {
  // White-box via behaviour: deliver a batch, let the node sit busy, then
  // confirm results of the batch's window are not lost even though sim time
  // advanced far past the window end before processing.
  EventQueue queue;
  ResultCounter router;
  NodeOptions options;
  options.window_grace = Millis(100);
  // No shedding: this test isolates lateness, not capacity.
  Node node(0, options, &queue, &router, std::make_unique<KeepAllShedder>());
  // Expensive first batch keeps the node busy for 2 simulated seconds.
  auto graph = MakeCovGraph(1, 10, 11, /*recv_cost_us=*/100000.0);
  node.HostFragment(graph.get(), 0);
  node.Start();

  Rng rng(5);
  queue.Schedule(Millis(10), [&] {
    node.Receive(SourceBatch(1, 10, 0, queue.now(), 20, &rng));
    node.Receive(SourceBatch(1, 11, 1, queue.now(), 20, &rng));
  });
  queue.RunUntil(Seconds(10));
  // Both sides of the [0, 1s) window were processed seconds late, yet the
  // covariance still fired exactly once for that window.
  EXPECT_GE(router.counts[1], 1u);
  EXPECT_GT(router.sic[1], 0.0);
}

}  // namespace
}  // namespace themis
