// ShedController's efficiency path, pinned with hand-computed values. The
// oracle tests run without disseminated query SIC (the DES twin has no
// coordinator), so the efficiency EWMA, its clamps and the shedder's
// accepted-SIC snapshot are only reached here.
#include "node/shed_controller.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "runtime/batch.h"

namespace themis {
namespace {

constexpr SimDuration kInterval = Millis(250);
constexpr SimTime kNow = Seconds(1);

// Keeps the oldest batches that fit the capacity and records what it saw.
class RecordingShedder : public Shedder {
 public:
  std::vector<size_t> SelectBatchesToKeep(const std::deque<Batch>& ib,
                                          const ShedContext& ctx) override {
    ++calls;
    capacity = ctx.capacity_tuples;
    snapshot = *ctx.local_accepted_sic;
    std::vector<size_t> keep;
    size_t used = 0;
    for (size_t i = 0; i < ib.size() && used + ib[i].size() <= capacity;
         ++i) {
      used += ib[i].size();
      keep.push_back(i);
    }
    return keep;
  }
  const char* name() const override { return "recording"; }

  int calls = 0;
  size_t capacity = 0;
  std::vector<double> snapshot;
};

Batch IbBatch(QueryId q, size_t tuples) {
  std::vector<Tuple> ts(tuples, Tuple(kNow, 0.001, {Value(1.0)}));
  return MakeBatch(q, /*op=*/0, /*port=*/0, kNow, std::move(ts));
}

class ShedControllerTest : public ::testing::Test {
 protected:
  ShedControllerTest()
      : ctl_(kInterval, Seconds(10), MakeShedder(), &stats_) {
    ib_.set_pool(&pool_);
  }

  std::unique_ptr<Shedder> MakeShedder() {
    auto s = std::make_unique<RecordingShedder>();
    shedder_ = s.get();
    return s;
  }

  // 30 admitted tuples over 75 ms busy: 2500 us/tuple, so c = 100.
  void AdmitAndRollOver() {
    ctl_.Admit(0, 0.5, 10, kNow);
    ctl_.Admit(1, 0.5, 10, kNow);
    ctl_.Admit(2, 0.02, 10, kNow);
    ctl_.ChargeBusy(Millis(75));
    ctl_.BeginTick();
  }

  ShedStats stats_;
  RecordingShedder* shedder_ = nullptr;
  ShedController ctl_;
  BatchPool pool_;
  InputBuffer ib_;
};

TEST_F(ShedControllerTest, AdmissionAccountsTotalsAndBusyTime) {
  AdmitAndRollOver();
  EXPECT_EQ(stats_.batches_processed, 3u);
  EXPECT_EQ(stats_.tuples_processed, 30u);
  EXPECT_EQ(stats_.busy_time, Millis(75));
  EXPECT_EQ(stats_.detector_invocations, 1u);
  EXPECT_EQ(ctl_.AcceptedTuplesTotal(0), 10u);
  EXPECT_EQ(ctl_.AcceptedSicTotal(1), 0.5);
  EXPECT_EQ(ctl_.AcceptedSicTotal(7), 0.0);
  EXPECT_EQ(ctl_.cost_model().EstimateCapacity(kInterval), 100u);
}

TEST_F(ShedControllerTest, EfficiencyClampsFloorsAndSkipsSmallMass) {
  AdmitAndRollOver();
  ctl_.UpdateQuerySic(0, 0.9);   // ratio 1.8 clamps to 1.2
  ctl_.UpdateQuerySic(1, 0.01);  // ratio 0.02, floored to 0.05 when read
  ctl_.UpdateQuerySic(2, 0.5);   // accepted mass 0.02 <= 0.02: no update
  ctl_.UpdateQuerySic(3, 0.7);   // nothing admitted for query 3
  for (int i = 0; i < 3; ++i) ib_.Push(IbBatch(0, 50));

  ASSERT_TRUE(ctl_.Decide(kNow, &ib_, pool_, /*query_slots=*/5));
  ASSERT_EQ(shedder_->calls, 1);
  EXPECT_EQ(shedder_->capacity, 100u);
  ASSERT_EQ(shedder_->snapshot.size(), 5u);
  EXPECT_DOUBLE_EQ(shedder_->snapshot[0], 0.5 * 1.2);
  EXPECT_DOUBLE_EQ(shedder_->snapshot[1], 0.5 * 0.05);
  EXPECT_DOUBLE_EQ(shedder_->snapshot[2], 0.02);  // efficiency stays 1
  EXPECT_EQ(shedder_->snapshot[3], 0.0);
  EXPECT_EQ(shedder_->snapshot[4], 0.0);

  // Two batches fit c = 100; the third is shed.
  EXPECT_EQ(ib_.num_tuples(), 100u);
  EXPECT_EQ(stats_.last_capacity, 100u);
  EXPECT_EQ(stats_.shed_invocations, 1u);
  EXPECT_EQ(stats_.tuples_shed, 50u);
  EXPECT_EQ(stats_.batches_shed, 1u);

  // Second tick: EWMA with alpha 0.05 over the previous 1.2.
  ctl_.UpdateQuerySic(0, 0.25);  // ratio 0.5
  ib_.Push(IbBatch(0, 50));
  ctl_.BeginTick();
  ASSERT_TRUE(ctl_.Decide(kNow, &ib_, pool_, /*query_slots=*/5));
  EXPECT_DOUBLE_EQ(shedder_->snapshot[0], 0.5 * (0.05 * 0.5 + 0.95 * 1.2));
}

TEST_F(ShedControllerTest, CalmTickLeavesBufferAndCountersUntouched) {
  AdmitAndRollOver();
  ib_.Push(IbBatch(0, 60));
  ib_.Push(IbBatch(1, 40));  // exactly c: not overloaded

  EXPECT_FALSE(ctl_.Decide(kNow, &ib_, pool_, /*query_slots=*/2));
  EXPECT_EQ(shedder_->calls, 0);
  EXPECT_EQ(ib_.num_batches(), 2u);
  EXPECT_EQ(ib_.num_tuples(), 100u);
  EXPECT_EQ(stats_.last_capacity, 100u);
  EXPECT_EQ(stats_.shed_invocations, 0u);
  EXPECT_EQ(stats_.tuples_shed, 0u);
  EXPECT_EQ(stats_.batches_shed, 0u);
}

TEST_F(ShedControllerTest, RemoveQueryForgetsItsAccounts) {
  AdmitAndRollOver();
  ctl_.UpdateQuerySic(0, 0.9);
  ctl_.RemoveQuery(0);
  EXPECT_EQ(ctl_.AcceptedSicTotal(0), 0.0);
  EXPECT_FALSE(ctl_.query_sic(0).has_value());
  EXPECT_EQ(ctl_.AcceptedSicTotal(1), 0.5);
}

}  // namespace
}  // namespace themis
