// Behavioural tests of the operator library (aggregates, filter/map, join,
// top-k, covariance, group-by).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/covariance.h"
#include "runtime/operators/filter_map.h"
#include "runtime/operators/join.h"
#include "runtime/operators/topk.h"

namespace themis {
namespace {

Tuple T1(SimTime ts, double v, double sic = 0.1) {
  return Tuple(ts, sic, {Value(v)});
}

Tuple T2(SimTime ts, int64_t id, double v, double sic = 0.1) {
  return Tuple(ts, sic, {Value(id), Value(v)});
}

std::vector<Tuple> Advance(Operator& op, SimTime wm) {
  std::vector<Tuple> out;
  op.Advance(wm, &out);
  return out;
}

TEST(AggregateOpTest, Average) {
  AggregateOp op(AggregateKind::kAvg, 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T1(1, 10), T1(2, 20), T1(3, 30)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[0]), 20.0);
  EXPECT_NEAR(out[0].sic, 0.3, 1e-12);  // full pane SIC on the single result
}

TEST(AggregateOpTest, MaxAndMinAndSum) {
  AggregateOp mx(AggregateKind::kMax, 0, WindowSpec::TumblingTime(kSecond));
  AggregateOp mn(AggregateKind::kMin, 0, WindowSpec::TumblingTime(kSecond));
  AggregateOp sm(AggregateKind::kSum, 0, WindowSpec::TumblingTime(kSecond));
  std::vector<Tuple> in = {T1(1, 5), T1(2, -3), T1(3, 12)};
  mx.Ingest(in, 0);
  mn.Ingest(in, 0);
  sm.Ingest(in, 0);
  EXPECT_DOUBLE_EQ(AsDouble(Advance(mx, kSecond)[0].values[0]), 12.0);
  EXPECT_DOUBLE_EQ(AsDouble(Advance(mn, kSecond)[0].values[0]), -3.0);
  EXPECT_DOUBLE_EQ(AsDouble(Advance(sm, kSecond)[0].values[0]), 14.0);
}

TEST(AggregateOpTest, CountWithHavingPredicate) {
  // Table 1 COUNT: count of tuples with v >= 50.
  AggregateOp op(AggregateKind::kCount, 0, WindowSpec::TumblingTime(kSecond),
                 [](const Tuple& t) { return AsDouble(t.values[0]) >= 50.0; });
  op.Ingest({T1(1, 10), T1(2, 50), T1(3, 80), T1(4, 49.9)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[0]), 2.0);
}

TEST(AggregateOpTest, CountEmitsZeroWhenAllFiltered) {
  AggregateOp op(AggregateKind::kCount, 0, WindowSpec::TumblingTime(kSecond),
                 [](const Tuple&) { return false; });
  op.Ingest({T1(1, 10)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[0]), 0.0);
  // The count-0 result still carries the pane's SIC (tuples were processed).
  EXPECT_NEAR(out[0].sic, 0.1, 1e-12);
}

TEST(AggregateOpTest, EmptyPaneEmitsNothing) {
  AggregateOp op(AggregateKind::kAvg, 0, WindowSpec::TumblingTime(kSecond));
  EXPECT_TRUE(Advance(op, 5 * kSecond).empty());
}

TEST(FilterOpTest, PassesMatchingAndRedistributesSic) {
  FilterOp op([](const Tuple& t) { return AsDouble(t.values[0]) > 10.0; },
              WindowSpec::TumblingTime(kSecond));
  op.Ingest({T1(1, 5, 0.2), T1(2, 15, 0.2), T1(3, 25, 0.2)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 2u);
  // Eq. (3): the whole 0.6 pane mass spreads over the 2 passing tuples.
  EXPECT_DOUBLE_EQ(out[0].sic, 0.3);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[0]), 15.0);
}

TEST(FilterOpTest, NothingPassesLosesPaneSic) {
  FilterOp op([](const Tuple&) { return false; },
              WindowSpec::TumblingTime(kSecond));
  op.Ingest({T1(1, 5, 0.2)}, 0);
  EXPECT_TRUE(Advance(op, kSecond).empty());
}

TEST(MapOpTest, TransformsPayload) {
  MapOp op(
      [](const Tuple& t) -> ValueList {
        return {Value(AsDouble(t.values[0]) * 2.0)};
      },
      WindowSpec::TumblingTime(kSecond));
  op.Ingest({T1(1, 21, 0.4)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[0]), 42.0);
  EXPECT_DOUBLE_EQ(out[0].sic, 0.4);
}

TEST(HashJoinOpTest, JoinsOnKey) {
  HashJoinOp op(0, 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T2(1, 1, 10.0), T2(2, 2, 20.0)}, 0);
  op.Ingest({T2(3, 2, 200.0), T2(4, 3, 300.0)}, 1);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 1u);  // only id 2 matches
  EXPECT_EQ(AsInt(out[0].values[0]), 2);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[1]), 20.0);   // left value
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[2]), 200.0);  // right value
  // Union of both panes' SIC (4 x 0.1) on the single output.
  EXPECT_NEAR(out[0].sic, 0.4, 1e-12);
}

TEST(HashJoinOpTest, MultiMatchProducesCrossPairs) {
  HashJoinOp op(0, 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T2(1, 7, 1.0), T2(2, 7, 2.0)}, 0);
  op.Ingest({T2(3, 7, 3.0)}, 1);
  auto out = Advance(op, kSecond);
  EXPECT_EQ(out.size(), 2u);
}

TEST(HashJoinOpTest, DisjointKeysProduceNothing) {
  HashJoinOp op(0, 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T2(1, 1, 1.0)}, 0);
  op.Ingest({T2(2, 2, 2.0)}, 1);
  EXPECT_TRUE(Advance(op, kSecond).empty());
}

TEST(TopKOpTest, SelectsDescendingByValue) {
  TopKOp op(2, /*value_field=*/1, /*key_field=*/0,
            WindowSpec::TumblingTime(kSecond));
  op.Ingest({T2(1, 1, 30), T2(2, 2, 10), T2(3, 3, 50), T2(4, 4, 20)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(AsInt(out[0].values[0]), 3);
  EXPECT_EQ(AsInt(out[1].values[0]), 1);
  // Total pane SIC (0.4) split across the k outputs.
  EXPECT_NEAR(out[0].sic + out[1].sic, 0.4, 1e-12);
}

TEST(TopKOpTest, TiesBreakOnSmallerId) {
  TopKOp op(2, 1, 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T2(1, 9, 10), T2(2, 4, 10), T2(3, 6, 10)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(AsInt(out[0].values[0]), 4);
  EXPECT_EQ(AsInt(out[1].values[0]), 6);
}

TEST(TopKOpTest, FewerThanKInputs) {
  TopKOp op(5, 1, 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T2(1, 1, 10)}, 0);
  EXPECT_EQ(Advance(op, kSecond).size(), 1u);
}

TEST(TopKOpTest, SkipsTupleWithoutKeyField) {
  // The tuple has the value field but not the key field, so it cannot be
  // ranked and is skipped like a tuple without a value.
  TopKOp op(5, /*value_field=*/0, /*key_field=*/1,
            WindowSpec::TumblingTime(kSecond));
  op.Ingest({T1(1, 10)}, 0);
  EXPECT_TRUE(Advance(op, kSecond).empty());
}

// Bounded selection picks the same ranks as a full sort with the same
// comparator. Values and keys come from small sets, so ties on the value and
// on (value, key) are common; some tuples lack the key; field 2 is the input
// position, so every output can be traced back to one distinct input.
TEST(TopKOpTest, MatchesFullSortReference) {
  Rng rng(7);
  for (int round = 0; round < 60; ++round) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
    std::vector<Tuple> pane;
    for (size_t i = 0; i < n; ++i) {
      Tuple t(1, 0.01, {Value(static_cast<double>(rng.UniformInt(0, 6)))});
      if (!rng.Bernoulli(0.1)) {
        t.values.push_back(Value(rng.UniformInt(0, 4)));
        t.values.push_back(Value(static_cast<int64_t>(i)));
      }
      pane.push_back(t);
    }
    std::vector<Tuple> ref;
    for (const Tuple& t : pane) {
      if (t.values.size() > 1) ref.push_back(t);
    }
    std::sort(ref.begin(), ref.end(), [](const Tuple& a, const Tuple& b) {
      double va = AsDouble(a.values[0]);
      double vb = AsDouble(b.values[0]);
      if (va != vb) return va > vb;
      return AsInt(a.values[1]) < AsInt(b.values[1]);
    });
    for (size_t k : {size_t{1}, size_t{5}, n, n + 3}) {
      TopKOp op(k, /*value_field=*/0, /*key_field=*/1,
                WindowSpec::TumblingTime(kSecond));
      op.Ingest(pane, 0);
      auto out = Advance(op, kSecond);
      SCOPED_TRACE(testing::Message() << "round " << round << " k " << k);
      ASSERT_EQ(out.size(), std::min(k, ref.size()));
      std::vector<bool> used(n, false);
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(AsDouble(out[i].values[0]), AsDouble(ref[i].values[0]));
        EXPECT_EQ(AsInt(out[i].values[1]), AsInt(ref[i].values[1]));
        const size_t pos = static_cast<size_t>(AsInt(out[i].values[2]));
        ASSERT_LT(pos, n);
        EXPECT_FALSE(used[pos]) << "input " << pos << " emitted twice";
        used[pos] = true;
        EXPECT_TRUE(out[i].values == pane[pos].values);
      }
    }
  }
}

TEST(CovarianceOpTest, ComputesSampleCovariance) {
  CovarianceOp op(0, 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T1(1, 1), T1(2, 2), T1(3, 3), T1(4, 4)}, 0);
  op.Ingest({T1(1, 2), T1(2, 4), T1(3, 6), T1(4, 8)}, 1);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(AsDouble(out[0].values[0]), 2.0 * 5.0 / 3.0, 1e-9);
}

TEST(CovarianceOpTest, SingleSampleEmitsNothing) {
  CovarianceOp op(0, 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T1(1, 1)}, 0);
  op.Ingest({T1(1, 2)}, 1);
  EXPECT_TRUE(Advance(op, kSecond).empty());
}

TEST(GroupByAggregateOpTest, PerGroupAverage) {
  GroupByAggregateOp op(AggregateKind::kAvg, 0, 1,
                        WindowSpec::TumblingTime(kSecond));
  op.Ingest({T2(1, 1, 10), T2(2, 1, 20), T2(3, 2, 100)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(AsInt(out[0].values[0]), 1);
  EXPECT_DOUBLE_EQ(AsDouble(out[0].values[1]), 15.0);
  EXPECT_EQ(AsInt(out[1].values[0]), 2);
  EXPECT_DOUBLE_EQ(AsDouble(out[1].values[1]), 100.0);
}

// The flat group table reproduces a per-pane std::map bit for bit. Keys
// arrive in descending order, so every new key goes to the front; a second
// sweep revisits them all; each key accumulates in pane order and the output
// is in ascending key order.
TEST(GroupByAggregateOpTest, DescendingKeysMatchMapReference) {
  Rng rng(3);
  std::vector<Tuple> pane;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int64_t key = 40; key >= -5; --key) {
      for (int rep = 0; rep < 3; ++rep) {
        pane.push_back(T2(1, key, rng.Uniform(-1e3, 1e3)));
      }
    }
  }
  pane.push_back(T1(1, 7.0));  // no value field: skipped
  for (AggregateKind kind :
       {AggregateKind::kAvg, AggregateKind::kMax, AggregateKind::kMin,
        AggregateKind::kSum, AggregateKind::kCount}) {
    SCOPED_TRACE(AggregateKindName(kind));
    struct Ref {
      double sum = 0.0;
      double mx = std::numeric_limits<double>::lowest();
      double mn = std::numeric_limits<double>::max();
      size_t n = 0;
    };
    std::map<int64_t, Ref> groups;
    for (const Tuple& t : pane) {
      if (t.values.size() < 2) continue;
      Ref& g = groups[AsInt(t.values[0])];
      double v = AsDouble(t.values[1]);
      g.sum += v;
      g.mx = std::max(g.mx, v);
      g.mn = std::min(g.mn, v);
      ++g.n;
    }
    GroupByAggregateOp op(kind, 0, 1, WindowSpec::TumblingTime(kSecond));
    op.Ingest(pane, 0);
    auto out = Advance(op, kSecond);
    ASSERT_EQ(out.size(), groups.size());
    size_t i = 0;
    for (const auto& [key, g] : groups) {
      double want = 0.0;
      switch (kind) {
        case AggregateKind::kAvg:
          want = g.sum / static_cast<double>(g.n);
          break;
        case AggregateKind::kMax:
          want = g.mx;
          break;
        case AggregateKind::kMin:
          want = g.mn;
          break;
        case AggregateKind::kSum:
          want = g.sum;
          break;
        case AggregateKind::kCount:
          want = static_cast<double>(g.n);
          break;
      }
      const double got = AsDouble(out[i].values[1]);
      EXPECT_EQ(AsInt(out[i].values[0]), key);
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want));
      ++i;
    }
  }
}

// Property sweep: for every aggregate kind, one pane in -> exactly one tuple
// out carrying the full pane SIC (Eq. 2/3 consistency at operator level).
class AggregateSicTest : public ::testing::TestWithParam<AggregateKind> {};

TEST_P(AggregateSicTest, SingleOutputCarriesPaneSic) {
  AggregateOp op(GetParam(), 0, WindowSpec::TumblingTime(kSecond));
  op.Ingest({T1(1, 42, 0.125), T1(2, 7, 0.125), T1(3, 13, 0.25)}, 0);
  auto out = Advance(op, kSecond);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].sic, 0.5, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AggregateSicTest,
                         ::testing::Values(AggregateKind::kAvg,
                                           AggregateKind::kMax,
                                           AggregateKind::kMin,
                                           AggregateKind::kSum,
                                           AggregateKind::kCount));

}  // namespace
}  // namespace themis
