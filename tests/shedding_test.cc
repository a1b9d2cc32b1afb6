// Tests for the shedding module: cost model, overload detector, random
// shedder and the BALANCE-SIC shedder — including the Figure 3 single-node
// scenario of the paper.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "metrics/jain.h"
#include "shedding/balance_sic_shedder.h"
#include "shedding/cost_model.h"
#include "shedding/overload_detector.h"
#include "shedding/random_shedder.h"

namespace themis {
namespace {

// Builds a single-tuple batch for query `q` with the given per-tuple SIC.
Batch B1(QueryId q, double sic) {
  Tuple t(0, sic, {Value(0.0)});
  return MakeBatch(q, /*op=*/0, /*port=*/0, /*created=*/0, {t});
}

// Builds an n-tuple batch with total SIC `sic`.
Batch Bn(QueryId q, size_t n, double sic) {
  std::vector<Tuple> ts;
  for (size_t i = 0; i < n; ++i) ts.push_back(Tuple(0, sic / n, {Value(0.0)}));
  return MakeBatch(q, 0, 0, 0, std::move(ts));
}

size_t KeptTuples(const std::deque<Batch>& ib,
                  const std::vector<size_t>& keep) {
  size_t n = 0;
  for (size_t i : keep) n += ib[i].size();
  return n;
}

std::map<QueryId, double> KeptSicPerQuery(const std::deque<Batch>& ib,
                                          const std::vector<size_t>& keep) {
  std::map<QueryId, double> out;
  for (const Batch& b : ib) out[b.header.query_id];  // ensure all queries
  for (size_t i : keep) out[ib[i].header.query_id] += ib[i].header.sic;
  return out;
}

TEST(CostModelTest, DefaultCapacityBeforeMeasurements) {
  CostModel cm(8, /*default_cost_us=*/50.0);
  EXPECT_FALSE(cm.has_measurements());
  EXPECT_EQ(cm.EstimateCapacity(Millis(250)), 5000u);
}

TEST(CostModelTest, LearnsPerTupleCost) {
  CostModel cm;
  cm.RecordInterval(100, Millis(100));  // 1 ms per tuple
  EXPECT_NEAR(cm.PerTupleUs(), 1000.0, 1e-9);
  EXPECT_EQ(cm.EstimateCapacity(Millis(250)), 250u);
}

TEST(CostModelTest, MovingAverageSmoothsChanges) {
  CostModel cm(4);
  cm.RecordInterval(100, Millis(100));  // 1000 us
  cm.RecordInterval(100, Millis(300));  // 3000 us
  EXPECT_NEAR(cm.PerTupleUs(), 2000.0, 1e-9);
}

TEST(CostModelTest, IgnoresEmptyIntervals) {
  CostModel cm;
  cm.RecordInterval(100, Millis(100));
  cm.RecordInterval(0, Millis(100));
  cm.RecordInterval(50, 0);
  EXPECT_NEAR(cm.PerTupleUs(), 1000.0, 1e-9);
}

TEST(CostModelTest, CapacityNeverBelowOne) {
  CostModel cm;
  cm.RecordInterval(1, Seconds(100));
  EXPECT_EQ(cm.EstimateCapacity(Millis(1)), 1u);
}

TEST(OverloadDetectorTest, ThresholdComparison) {
  // §6: overloaded only once the buffer holds more than c tuples.
  EXPECT_FALSE(IsOverloaded(100, 100));
  EXPECT_TRUE(IsOverloaded(101, 100));
}

TEST(RandomShedderTest, RespectsCapacity) {
  RandomShedder shedder{Rng(1)};
  std::deque<Batch> ib;
  for (int i = 0; i < 20; ++i) ib.push_back(Bn(0, 10, 0.1));
  ShedContext ctx;
  ctx.capacity_tuples = 55;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);
  EXPECT_LE(KeptTuples(ib, keep), 55u);
  EXPECT_EQ(keep.size(), 5u);  // 10-tuple batches, 55 capacity -> 5 batches
}

TEST(RandomShedderTest, KeepsEverythingWhenItFits) {
  RandomShedder shedder{Rng(2)};
  std::deque<Batch> ib;
  for (int i = 0; i < 5; ++i) ib.push_back(Bn(0, 10, 0.1));
  ShedContext ctx;
  ctx.capacity_tuples = 1000;
  EXPECT_EQ(shedder.SelectBatchesToKeep(ib, ctx).size(), 5u);
}

TEST(RandomShedderTest, IndicesSortedAndUnique) {
  RandomShedder shedder{Rng(3)};
  std::deque<Batch> ib;
  for (int i = 0; i < 50; ++i) ib.push_back(B1(i % 5, 0.01));
  ShedContext ctx;
  ctx.capacity_tuples = 20;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);
  std::set<size_t> unique(keep.begin(), keep.end());
  EXPECT_EQ(unique.size(), keep.size());
  EXPECT_TRUE(std::is_sorted(keep.begin(), keep.end()));
}

// ---- BALANCE-SIC: the Figure 3 scenario --------------------------------
//
// Node capacity c = 10 tuples. Four queries with per-tuple SIC values
// 1/20 (q1), 1/30 (q2), 1/10 (q3), and q4 with two sources at 1/20 and
// 1/40. The algorithm must equalise accepted SIC at 0.1 per query, then
// spend the remaining capacity (the paper gives one extra tuple to a
// randomly chosen minimum query).
TEST(BalanceSicShedderTest, Figure3Scenario) {
  std::deque<Batch> ib;
  for (int i = 0; i < 20; ++i) ib.push_back(B1(1, 1.0 / 20));
  for (int i = 0; i < 30; ++i) ib.push_back(B1(2, 1.0 / 30));
  for (int i = 0; i < 10; ++i) ib.push_back(B1(3, 1.0 / 10));
  for (int i = 0; i < 10; ++i) ib.push_back(B1(4, 1.0 / 20));
  for (int i = 0; i < 20; ++i) ib.push_back(B1(4, 1.0 / 40));

  BalanceSicShedder shedder(Rng(42));
  ShedContext ctx;
  ctx.capacity_tuples = 10;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);

  // Full capacity used (enough tuples exist).
  EXPECT_EQ(KeptTuples(ib, keep), 10u);

  auto kept_sic = KeptSicPerQuery(ib, keep);
  ASSERT_EQ(kept_sic.size(), 4u);
  // Every query reaches at least the water level 0.1 and none exceeds it by
  // more than one tuple's worth.
  for (const auto& [q, sic] : kept_sic) {
    EXPECT_GE(sic, 0.1 - 1e-9) << "query " << q;
    EXPECT_LE(sic, 0.1 + 0.1 + 1e-9) << "query " << q;
  }
  // Balance: Jain's index of accepted SIC near 1. The paper's trace ends at
  // {0.1, 0.133, 0.1, 0.1} (J = 0.993); which min-query receives the two
  // leftover-capacity tuples is random, and the worst draw (both to q3,
  // whose tuples are worth 1/10) gives {0.2, 0.1, 0.1, 0.1} with J = 0.893.
  std::vector<double> sics;
  for (const auto& [q, s] : kept_sic) sics.push_back(s);
  EXPECT_GE(JainIndex(sics), 0.89);
  // At least three of the four queries sit exactly at the water level.
  int at_level = 0;
  for (double s : sics) {
    if (s <= 0.1 + 1.0 / 30 + 1e-9) ++at_level;
  }
  EXPECT_GE(at_level, 3);
}

TEST(BalanceSicShedderTest, PrefersHighestSicBatchesWithinQuery) {
  std::deque<Batch> ib;
  ib.push_back(B1(1, 0.01));
  ib.push_back(B1(1, 0.05));
  ib.push_back(B1(1, 0.03));
  BalanceSicShedder shedder(Rng(1));
  ShedContext ctx;
  ctx.capacity_tuples = 1;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 1u);  // the 0.05 batch
}

TEST(BalanceSicShedderTest, FifoAblationKeepsArrivalOrder) {
  std::deque<Batch> ib;
  ib.push_back(B1(1, 0.01));
  ib.push_back(B1(1, 0.05));
  BalanceSicOptions opts;
  opts.prefer_high_sic = false;
  BalanceSicShedder shedder(Rng(1), opts);
  ShedContext ctx;
  ctx.capacity_tuples = 1;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 0u);  // first-arrived, not highest-SIC
}

TEST(BalanceSicShedderTest, FavoursTheMostDegradedQuery) {
  // q1 already has result SIC 0.5; q2 has 0.0. With capacity for only part
  // of the buffer, q2's batches must be preferred.
  std::deque<Batch> ib;
  for (int i = 0; i < 10; ++i) ib.push_back(B1(1, 0.02));
  for (int i = 0; i < 10; ++i) ib.push_back(B1(2, 0.02));
  std::vector<double> qsic = {0.0, 0.5, 0.0};  // indexed by QueryId
  BalanceSicOptions opts;
  opts.project_local_shedding = false;  // use disseminated values directly
  BalanceSicShedder shedder(Rng(1), opts);
  ShedContext ctx;
  ctx.capacity_tuples = 10;
  ctx.query_sic = &qsic;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);
  auto kept = KeptSicPerQuery(ib, keep);
  EXPECT_GT(kept[2], kept[1]);
  EXPECT_NEAR(kept[2], 0.2, 1e-9);  // all of q2 accepted
}

TEST(BalanceSicShedderTest, ProjectionSubtractsBufferedSic) {
  // With projection on, a disseminated value of 0.2 and 0.2 SIC sitting in
  // the buffer gives a baseline of 0 — both queries then look equally
  // degraded and share capacity.
  std::deque<Batch> ib;
  for (int i = 0; i < 10; ++i) ib.push_back(B1(1, 0.02));
  for (int i = 0; i < 10; ++i) ib.push_back(B1(2, 0.02));
  std::vector<double> qsic = {0.0, 0.2, 0.0};  // indexed by QueryId
  BalanceSicShedder shedder(Rng(1));  // projection on by default
  ShedContext ctx;
  ctx.capacity_tuples = 10;
  ctx.query_sic = &qsic;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);
  auto kept = KeptSicPerQuery(ib, keep);
  EXPECT_NEAR(kept[1], kept[2], 0.021);  // within one tuple of each other
}

TEST(BalanceSicShedderTest, EmptyBufferAndZeroCapacity) {
  BalanceSicShedder shedder(Rng(1));
  ShedContext ctx;
  ctx.capacity_tuples = 10;
  EXPECT_TRUE(shedder.SelectBatchesToKeep({}, ctx).empty());
  std::deque<Batch> ib;
  ib.push_back(B1(1, 0.1));
  ctx.capacity_tuples = 0;
  EXPECT_TRUE(shedder.SelectBatchesToKeep(ib, ctx).empty());
}

TEST(BalanceSicShedderTest, KeepsEverythingWhenItFits) {
  std::deque<Batch> ib;
  for (int i = 0; i < 8; ++i) ib.push_back(B1(i % 3, 0.1));
  BalanceSicShedder shedder(Rng(1));
  ShedContext ctx;
  ctx.capacity_tuples = 100;
  EXPECT_EQ(shedder.SelectBatchesToKeep(ib, ctx).size(), 8u);
}

TEST(BalanceSicShedderTest, LargeBatchSkippedWhenItDoesNotFit) {
  std::deque<Batch> ib;
  ib.push_back(Bn(1, 8, 0.8));  // does not fit in capacity 5
  ib.push_back(Bn(1, 4, 0.1));  // fits
  BalanceSicShedder shedder(Rng(1));
  ShedContext ctx;
  ctx.capacity_tuples = 5;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 1u);
}

TEST(BalanceSicShedderTest, IndicesSortedUniqueWithinCapacity) {
  Rng data_rng(99);
  std::deque<Batch> ib;
  for (int i = 0; i < 200; ++i) {
    ib.push_back(Bn(static_cast<QueryId>(data_rng.UniformInt(0, 9)),
                    static_cast<size_t>(data_rng.UniformInt(1, 10)),
                    data_rng.Uniform(0.0, 0.05)));
  }
  BalanceSicShedder shedder(Rng(7));
  ShedContext ctx;
  ctx.capacity_tuples = 300;
  auto keep = shedder.SelectBatchesToKeep(ib, ctx);
  std::set<size_t> unique(keep.begin(), keep.end());
  EXPECT_EQ(unique.size(), keep.size());
  EXPECT_TRUE(std::is_sorted(keep.begin(), keep.end()));
  EXPECT_LE(KeptTuples(ib, keep), 300u);
}

// Property sweep: BALANCE-SIC always yields a fairer (Jain) accepted-SIC
// allocation than random shedding, across seeds and buffer mixes.
class FairnessComparisonTest : public ::testing::TestWithParam<int> {};

TEST_P(FairnessComparisonTest, BalanceSicBeatsRandomOnJain) {
  int seed = GetParam();
  Rng data_rng(seed);
  std::deque<Batch> ib;
  // Skewed per-query SIC values: some queries have cheap (low-SIC) tuples.
  for (QueryId q = 0; q < 8; ++q) {
    double per_tuple = 1.0 / (10.0 * (1 + q % 4));
    int count = 10 + static_cast<int>(data_rng.UniformInt(0, 30));
    for (int i = 0; i < count; ++i) ib.push_back(B1(q, per_tuple));
  }
  ShedContext ctx;
  ctx.capacity_tuples = 40;

  BalanceSicShedder fair{Rng(seed)};
  RandomShedder rnd{Rng(seed)};
  auto fair_keep = fair.SelectBatchesToKeep(ib, ctx);
  auto rnd_keep = rnd.SelectBatchesToKeep(ib, ctx);

  auto jain_of = [&](const std::vector<size_t>& keep) {
    std::vector<double> sics;
    for (const auto& [q, s] : KeptSicPerQuery(ib, keep)) sics.push_back(s);
    return JainIndex(sics);
  };
  EXPECT_GE(jain_of(fair_keep) + 1e-9, jain_of(rnd_keep));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairnessComparisonTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace themis
