// Unit tests for src/common: Status/Result, stats accumulators, RNG.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time_types.h"

namespace themis {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad window");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad window");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
}

Status FailsThenPropagates() {
  THEMIS_RETURN_NOT_OK(Status::NotFound("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(FailsThenPropagates().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).TakeValue();
  EXPECT_EQ(v, "payload");
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);  // classic example
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
  EXPECT_EQ(StdDev({1.0}), 0.0);
}

TEST(StatsTest, CovarianceOfPerfectlyCorrelated) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  // cov(x, 2x) = 2 var(x); sample variance of {1..4} is 5/3.
  EXPECT_NEAR(Covariance(xs, ys), 2.0 * 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, CovarianceSizeMismatchIsZero) {
  EXPECT_EQ(Covariance({1, 2}, {1, 2, 3}), 0.0);
}

TEST(EwmaTest, FirstObservationInitialises) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  EXPECT_DOUBLE_EQ(e.Update(10.0), 10.0);
  EXPECT_DOUBLE_EQ(e.Update(20.0), 15.0);
}

TEST(MovingAverageTest, SlidesOverCapacity) {
  MovingAverage m(3);
  m.Update(1);
  m.Update(2);
  m.Update(3);
  EXPECT_DOUBLE_EQ(m.value(), 2.0);
  m.Update(10);  // evicts 1
  EXPECT_DOUBLE_EQ(m.value(), 5.0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(123), b(123);
  Rng fa = a.Fork(), fb = b.Fork();
  EXPECT_EQ(fa.UniformInt(0, 1 << 30), fb.UniformInt(0, 1 << 30));
}

TEST(RngTest, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double x = r.Uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    int64_t k = r.UniformInt(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

TEST(RngTest, GaussianMeanConverges) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.Gaussian(50.0, 10.0);
  EXPECT_NEAR(sum / n, 50.0, 0.5);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng r(17);
  const int n = 10000;
  int rank0 = 0, rank9 = 0;
  for (int i = 0; i < n; ++i) {
    int64_t k = r.Zipf(10, 1.0);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 10);
    if (k == 0) ++rank0;
    if (k == 9) ++rank9;
  }
  EXPECT_GT(rank0, 5 * rank9);  // heavy head
}

TEST(RngTest, ZipfZeroSkewIsUniformish) {
  Rng r(19);
  const int n = 30000;
  std::vector<int> counts(10, 0);
  for (int i = 0; i < n; ++i) ++counts[r.Zipf(10, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 40);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng r(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(TimeTypesTest, Conversions) {
  EXPECT_EQ(Millis(250), 250000);
  EXPECT_EQ(Seconds(10), 10000000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
}

}  // namespace
}  // namespace themis
