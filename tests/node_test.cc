// Tests of a single THEMIS node: SIC stamping at ingress, batch processing
// through a fragment, cost-model-driven capacity, overload shedding.
#include <gtest/gtest.h>

#include <memory>

#include "node/node.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "shedding/balance_sic_shedder.h"
#include "sim/event_queue.h"

namespace themis {
namespace {

// Captures everything the node routes out.
class FakeRouter : public BatchRouter {
 public:
  void RouteBatch(NodeId from, QueryId query, FragmentId to_fragment,
                  Batch batch) override {
    (void)from;
    routed.push_back({query, to_fragment, std::move(batch)});
  }
  void DeliverResult(QueryId query, SimTime now,
                     const std::vector<Tuple>& results) override {
    for (const Tuple& t : results) {
      result_sic[query] += t.sic;
      if (now >= Seconds(5)) post_warmup_sic[query] += t.sic;
      result_tuples[query] += 1;
      last_values[query] = t.values;
    }
  }

  struct Routed {
    QueryId query;
    FragmentId fragment;
    Batch batch;
  };
  std::vector<Routed> routed;
  std::map<QueryId, double> result_sic;
  std::map<QueryId, double> post_warmup_sic;
  std::map<QueryId, int> result_tuples;
  std::map<QueryId, ValueList> last_values;
};

// Single-fragment AVG query: receiver -> avg(1s window) -> output.
std::unique_ptr<QueryGraph> MakeAvgGraph(QueryId q, SourceId src,
                                         double op_cost_us = 1.0) {
  QueryBuilder b(q, "avg");
  auto recv_op = std::make_unique<ReceiverOp>();
  recv_op->set_cost_us_per_tuple(op_cost_us);
  OperatorId recv = b.Add(std::move(recv_op), 0);
  OperatorId avg = b.Add(
      std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                    WindowSpec::TumblingTime(kSecond)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv, avg).Connect(avg, out).BindSource(src, recv).SetRoot(out);
  return std::move(b.Build()).TakeValue();
}

Batch SourceBatch(QueryId q, SourceId src, OperatorId dest, SimTime now,
                  size_t n, double value) {
  std::vector<Tuple> ts;
  for (size_t i = 0; i < n; ++i) ts.push_back(Tuple(now, 0.0, {Value(value)}));
  Batch b = MakeBatch(q, dest, 0, now, std::move(ts));
  b.header.source = src;
  return b;
}

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() {
    options_.shed_interval = Millis(250);
    options_.stw = Seconds(10);
    options_.window_grace = Millis(200);
  }

  Node& MakeNode() {
    node_ = std::make_unique<Node>(0, options_, &queue_, &router_,
                                   std::make_unique<BalanceSicShedder>(Rng(1)));
    return *node_;
  }

  EventQueue queue_;
  FakeRouter router_;
  NodeOptions options_;
  std::unique_ptr<Node> node_;
};

TEST_F(NodeTest, StampsSourceTuplesWithEq1Sic) {
  auto graph = MakeAvgGraph(1, /*src=*/10);
  Node& node = MakeNode();
  node.HostFragment(graph.get(), 0);
  node.Start();

  // 100-tuple batches every 100 ms: 1000 t/s, STW 10 s -> |T_s| = 10000,
  // 1 source -> per-tuple SIC 1e-4 after the estimate settles.
  for (int i = 0; i < 300; ++i) {
    queue_.Schedule(Millis(100) * i, [&, i] {
      node.Receive(SourceBatch(1, 10, 0, queue_.now(), 100, 50.0));
    });
  }
  queue_.RunUntil(Seconds(30));

  // Underloaded: everything processed, results emitted with qSIC ~ 1 per STW
  // (0.1 SIC arriving at the result per second).
  EXPECT_GT(router_.result_tuples[1], 20);
  EXPECT_EQ(node.stats().tuples_shed, 0u);
  // Once the rate estimate has settled (first few seconds inflate per-tuple
  // SIC because |T_s| is still underestimated), the result accumulates
  // 0.1 SIC mass per second: ~2.5 over the 25 post-warmup seconds.
  EXPECT_NEAR(router_.post_warmup_sic[1], 2.5, 0.4);
}

TEST_F(NodeTest, ComputesCorrectAverages) {
  auto graph = MakeAvgGraph(1, 10);
  Node& node = MakeNode();
  node.HostFragment(graph.get(), 0);
  node.Start();
  for (int i = 0; i < 50; ++i) {
    queue_.Schedule(Millis(100) * i, [&] {
      node.Receive(SourceBatch(1, 10, 0, queue_.now(), 10, 42.0));
    });
  }
  queue_.RunUntil(Seconds(8));
  ASSERT_GT(router_.result_tuples[1], 0);
  EXPECT_DOUBLE_EQ(AsDouble(router_.last_values[1][0]), 42.0);
}

TEST_F(NodeTest, OverloadTriggersShedding) {
  // Make tuples expensive: 3000 us per tuple at the receiver -> capacity
  // ~83 tuples per 250 ms interval, while 500 t/s arrive.
  auto graph = MakeAvgGraph(1, 10, /*op_cost_us=*/3000.0);
  Node& node = MakeNode();
  node.HostFragment(graph.get(), 0);
  node.Start();
  for (int i = 0; i < 100; ++i) {
    queue_.Schedule(Millis(100) * i, [&] {
      node.Receive(SourceBatch(1, 10, 0, queue_.now(), 50, 50.0));
    });
  }
  queue_.RunUntil(Seconds(12));
  EXPECT_GT(node.stats().tuples_shed, 0u);
  EXPECT_GT(node.stats().shed_invocations, 0u);
  // The node still makes progress.
  EXPECT_GT(router_.result_tuples[1], 0);
  // Processed tuple rate respects the learned capacity (within slack).
  EXPECT_LT(node.stats().tuples_processed, node.stats().tuples_received);
}

TEST_F(NodeTest, CapacityConvergesToCostModel) {
  auto graph = MakeAvgGraph(1, 10, /*op_cost_us=*/1000.0);
  Node& node = MakeNode();
  node.HostFragment(graph.get(), 0);
  node.Start();
  for (int i = 0; i < 100; ++i) {
    queue_.Schedule(Millis(100) * i, [&] {
      node.Receive(SourceBatch(1, 10, 0, queue_.now(), 20, 50.0));
    });
  }
  queue_.RunUntil(Seconds(11));
  // 1000 us/tuple (+ small downstream cost) -> c close to 250 per 250 ms.
  EXPECT_GT(node.CurrentCapacity(), 150u);
  EXPECT_LE(node.CurrentCapacity(), 260u);
}

TEST_F(NodeTest, UpdateQuerySicIsVisibleToShedder) {
  auto graph = MakeAvgGraph(1, 10);
  Node& node = MakeNode();
  node.HostFragment(graph.get(), 0);
  node.UpdateQuerySic(1, 0.75);
  ASSERT_TRUE(node.known_query_sic(1).has_value());
  EXPECT_DOUBLE_EQ(*node.known_query_sic(1), 0.75);
}

TEST_F(NodeTest, HostedQueriesListsDeployments) {
  auto g1 = MakeAvgGraph(1, 10);
  auto g2 = MakeAvgGraph(2, 11);
  Node& node = MakeNode();
  node.HostFragment(g1.get(), 0);
  node.HostFragment(g2.get(), 0);
  auto qs = node.HostedQueries();
  EXPECT_EQ(qs, (std::vector<QueryId>{1, 2}));
}

TEST_F(NodeTest, UnknownQueryBatchIsDroppedGracefully) {
  Node& node = MakeNode();
  node.Start();
  node.Receive(SourceBatch(99, 5, 0, 0, 10, 1.0));
  queue_.RunUntil(Seconds(1));
  EXPECT_EQ(node.stats().batches_received, 1u);
  // Processed (popped) but produced no work or results.
  EXPECT_TRUE(router_.result_sic.empty());
}

}  // namespace
}  // namespace themis
