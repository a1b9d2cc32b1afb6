// Tests for QueryGraph / QueryBuilder: DAG validation, fragment bookkeeping,
// topological ordering, ingress discovery.
#include <gtest/gtest.h>

#include <memory>

#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "runtime/query_graph.h"

namespace themis {
namespace {

std::unique_ptr<Operator> Recv() { return std::make_unique<ReceiverOp>(); }
std::unique_ptr<Operator> Out() { return std::make_unique<OutputOp>(); }
std::unique_ptr<Operator> Avg() {
  return std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                       WindowSpec::TumblingTime(kSecond));
}

TEST(QueryBuilderTest, BuildsLinearQuery) {
  QueryBuilder b(7, "avg");
  OperatorId r = b.Add(Recv(), 0);
  OperatorId a = b.Add(Avg(), 0);
  OperatorId o = b.Add(Out(), 0);
  b.Connect(r, a).Connect(a, o).BindSource(100, r).SetRoot(o);
  auto g = b.Build();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto graph = std::move(g).TakeValue();
  EXPECT_EQ(graph->id(), 7);
  EXPECT_EQ(graph->label(), "avg");
  EXPECT_EQ(graph->num_operators(), 3u);
  EXPECT_EQ(graph->num_fragments(), 1u);
  EXPECT_EQ(graph->num_sources(), 1u);
  EXPECT_EQ(graph->root(), o);
  EXPECT_EQ(graph->fragment_of(r), 0);
  ASSERT_EQ(graph->out_edges(r).size(), 1u);
  EXPECT_EQ(graph->out_edges(r)[0].to, a);
}

TEST(QueryBuilderTest, RejectsCycle) {
  QueryBuilder b(1, "cyclic");
  OperatorId x = b.Add(Avg(), 0);
  OperatorId y = b.Add(Avg(), 0);
  b.Connect(x, y).Connect(y, x).SetRoot(x);
  auto g = b.Build();
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(QueryBuilderTest, RejectsMissingRoot) {
  QueryBuilder b(1, "rootless");
  b.Add(Recv(), 0);
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, RejectsEmptyGraph) {
  QueryBuilder b(1, "empty");
  b.SetRoot(0);
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, RejectsBadPort) {
  QueryBuilder b(1, "badport");
  OperatorId r = b.Add(Recv(), 0);
  OperatorId a = b.Add(Avg(), 0);
  b.Connect(r, a, /*port=*/5).SetRoot(a);  // AggregateOp has a single port
  auto g = b.Build();
  EXPECT_FALSE(g.ok());
}

TEST(QueryBuilderTest, RejectsOutOfRangeIds) {
  QueryBuilder b(1, "oob");
  OperatorId r = b.Add(Recv(), 0);
  b.Connect(r, 42).SetRoot(r);
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, RejectsNegativeQueryAndFragmentIds) {
  // Both ids index dense tables (Fsps, Node, the shedders), so a negative
  // one must never reach a deployment.
  QueryBuilder query(-1, "negative query id");
  query.SetRoot(query.Add(Out(), 0));
  EXPECT_TRUE(query.Build().status().IsInvalidArgument());

  QueryBuilder fragment(1, "negative fragment id");
  fragment.SetRoot(fragment.Add(Out(), -1));
  EXPECT_TRUE(fragment.Build().status().IsInvalidArgument());
}

TEST(QueryGraphTest, FragmentOpsAreTopologicallyOrdered) {
  QueryBuilder b(2, "chain");
  OperatorId o1 = b.Add(Recv(), 0);
  OperatorId o2 = b.Add(Avg(), 0);
  OperatorId o3 = b.Add(Avg(), 0);
  OperatorId o4 = b.Add(Out(), 0);
  // Add edges "backwards" to ensure ordering comes from topology, not ids.
  b.Connect(o3, o4).Connect(o2, o3).Connect(o1, o2).SetRoot(o4);
  auto graph = std::move(b.Build()).TakeValue();
  const auto& ops = graph->fragment_ops(0);
  ASSERT_EQ(ops.size(), 4u);
  // o1 must come before o2, o2 before o3, o3 before o4.
  auto pos = [&](OperatorId id) {
    return std::find(ops.begin(), ops.end(), id) - ops.begin();
  };
  EXPECT_LT(pos(o1), pos(o2));
  EXPECT_LT(pos(o2), pos(o3));
  EXPECT_LT(pos(o3), pos(o4));
}

TEST(QueryGraphTest, MultiFragmentBookkeeping) {
  QueryBuilder b(3, "two-frag");
  OperatorId r = b.Add(Recv(), 0);
  OperatorId a1 = b.Add(Avg(), 0);
  OperatorId a2 = b.Add(Avg(), 1);
  OperatorId o = b.Add(Out(), 1);
  b.Connect(r, a1).Connect(a1, a2).Connect(a2, o);
  b.BindSource(5, r).SetRoot(o);
  auto graph = std::move(b.Build()).TakeValue();

  EXPECT_EQ(graph->num_fragments(), 2u);
  EXPECT_EQ(graph->root_fragment(), 1);
  auto frags = graph->fragment_ids();
  EXPECT_EQ(frags, (std::vector<FragmentId>{0, 1}));

  // Fragment 0 ingress: the source-bound receiver. Fragment 1 ingress: a2
  // (fed from fragment 0).
  auto in0 = graph->FragmentIngressOps(0);
  ASSERT_EQ(in0.size(), 1u);
  EXPECT_EQ(in0[0], r);
  auto in1 = graph->FragmentIngressOps(1);
  ASSERT_EQ(in1.size(), 1u);
  EXPECT_EQ(in1[0], a2);
}

TEST(QueryGraphTest, OpLookupOutOfRangeIsNull) {
  QueryBuilder b(4, "one");
  OperatorId r = b.Add(Recv(), 0);
  b.SetRoot(r);
  auto graph = std::move(b.Build()).TakeValue();
  EXPECT_EQ(graph->op(99), nullptr);
  EXPECT_EQ(graph->op(-1), nullptr);
  EXPECT_TRUE(graph->out_edges(99).empty());
  EXPECT_EQ(graph->fragment_of(99), kInvalidId);
}

}  // namespace
}  // namespace themis
