// Checkpoint/restore seam tests (runtime/checkpoint.h): byte-exact
// round-trips of window state (tumbling, sliding, count), binary pending
// panes, pass-through buffers and cross-pane scalars; mid-pane aggregate
// (all five kinds) and filter images restored over operators that hold other
// state; and the store semantics the federation relies on (approximate
// skip-if-clean, restore-or-reset, image hand-over, undeploy erasure,
// truncated-image degradation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/operator.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/filter_map.h"
#include "runtime/operators/join.h"
#include "runtime/operators/statistics.h"
#include "runtime/window.h"

namespace themis {

// Parameterized test names print the aggregate kind ("avg", "max", ...).
void PrintTo(AggregateKind kind, std::ostream* os) {
  *os << AggregateKindName(kind);
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Deterministic but irregular doubles so bitwise comparisons have teeth.
double Wobble(int i) { return std::sin(i * 0.7315) * 1e3 + i * 0.001; }

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

std::vector<uint8_t> Image(const Operator& op) {
  CheckpointWriter w;
  op.Checkpoint(&w);
  return w.Take();
}

void Restore(Operator* op, const std::vector<uint8_t>& image) {
  CheckpointReader r(image);
  op->RestoreFrom(&r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());
}

void ExpectBitIdentical(const std::vector<Tuple>& a,
                        const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << "tuple " << i;
    EXPECT_TRUE(SameBits(a[i].sic, b[i].sic)) << "tuple " << i;
    ASSERT_EQ(a[i].values.size(), b[i].values.size()) << "tuple " << i;
    for (size_t c = 0; c < a[i].values.size(); ++c) {
      EXPECT_EQ(a[i].values[c], b[i].values[c]) << "tuple " << i << " col " << c;
    }
  }
}

// --- window buffer round-trips -------------------------------------------

TEST(WindowCheckpointTest, TumblingMidPaneRoundTripIsBitIdentical) {
  WindowBuffer a(WindowSpec::TumblingTime(kSecond));
  for (int i = 0; i < 50; ++i) a.Add(T1(i * Millis(40), Wobble(i), 0.01 * i));
  a.Advance(kSecond);  // release pane 0, leave pane 1 open mid-fill

  CheckpointWriter w;
  a.Checkpoint(&w);
  std::vector<uint8_t> image = w.Take();

  WindowBuffer b(WindowSpec::TumblingTime(kSecond));
  b.Add(T1(7, 99.0));  // pre-existing state must be fully replaced
  CheckpointReader r(image);
  b.RestoreFrom(&r);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.AtEnd());

  // Identical continuation: same late adds, same watermark, same panes.
  a.Add(T1(2 * kSecond + 5, Wobble(77), 0.5));
  b.Add(T1(2 * kSecond + 5, Wobble(77), 0.5));
  auto pa = a.Advance(3 * kSecond);
  auto pb = b.Advance(3 * kSecond);
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_GE(pa.size(), 1u);
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].start, pb[i].start);
    EXPECT_EQ(pa[i].end, pb[i].end);
    ExpectBitIdentical(pa[i].tuples, pb[i].tuples);
  }
}

TEST(WindowCheckpointTest, RestoreRewindsTheWatermarkAndReEmits) {
  // The documented bounded-duplication semantics: panes released after the
  // capture re-emit on restore (there is no source replay).
  WindowBuffer a(WindowSpec::TumblingTime(kSecond));
  a.Add(T1(100, 1.5, 0.2));
  CheckpointWriter w;
  a.Checkpoint(&w);
  std::vector<uint8_t> image = w.Take();
  ASSERT_EQ(a.Advance(kSecond).size(), 1u);  // released after capture

  CheckpointReader r(image);
  a.RestoreFrom(&r);
  auto panes = a.Advance(kSecond);
  ASSERT_EQ(panes.size(), 1u);  // the same pane, again
  EXPECT_DOUBLE_EQ(panes[0].TotalSic(), 0.2);
}

TEST(WindowCheckpointTest, SlidingRoundTripKeepsSlideAlignment) {
  WindowBuffer a(WindowSpec::SlidingTime(2 * kSecond, kSecond));
  for (int i = 0; i < 40; ++i) a.Add(T1(i * Millis(100), Wobble(i), 0.013));
  a.Advance(2 * kSecond);  // sliding machinery initialised, panes in flight

  CheckpointWriter w;
  a.Checkpoint(&w);
  WindowBuffer b(WindowSpec::SlidingTime(2 * kSecond, kSecond));
  CheckpointReader r(w.bytes());
  b.RestoreFrom(&r);
  ASSERT_TRUE(r.ok());

  a.Add(T1(4 * kSecond + 3, 5.0, 0.4));
  b.Add(T1(4 * kSecond + 3, 5.0, 0.4));
  auto pa = a.Advance(8 * kSecond);
  auto pb = b.Advance(8 * kSecond);
  ASSERT_EQ(pa.size(), pb.size());
  double mass_a = 0.0, mass_b = 0.0;
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].end, pb[i].end);
    ExpectBitIdentical(pa[i].tuples, pb[i].tuples);
    mass_a += pa[i].TotalSic();
    mass_b += pb[i].TotalSic();
  }
  EXPECT_TRUE(SameBits(mass_a, mass_b));
}

TEST(WindowCheckpointTest, CountWindowRoundTripKeepsPartialFill) {
  WindowBuffer a(WindowSpec::Count(3));
  a.Add(T1(1, 1.0));
  a.Add(T1(2, 2.0));  // partial pane: 2 of 3
  CheckpointWriter w;
  a.Checkpoint(&w);
  WindowBuffer b(WindowSpec::Count(3));
  CheckpointReader r(w.bytes());
  b.RestoreFrom(&r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(b.buffered(), 2u);
  b.Add(T1(3, 3.0));
  auto panes = b.Advance(0);
  ASSERT_EQ(panes.size(), 1u);
  EXPECT_EQ(panes[0].tuples.size(), 3u);
}

TEST(WindowCheckpointTest, ResetStateMatchesAFreshBuffer) {
  WindowBuffer a(WindowSpec::TumblingTime(kSecond));
  for (int i = 0; i < 10; ++i) a.Add(T1(i * Millis(300), Wobble(i)));
  a.Advance(2 * kSecond);
  a.ResetState(nullptr);
  EXPECT_EQ(a.buffered(), 0u);
  // The watermark rewound too: pane 0 fills and releases like new.
  a.Add(T1(100, 4.0, 0.3));
  auto panes = a.Advance(kSecond);
  ASSERT_EQ(panes.size(), 1u);
  EXPECT_EQ(panes[0].start, 0);
  EXPECT_DOUBLE_EQ(panes[0].TotalSic(), 0.3);
}

// --- operator round-trips -------------------------------------------------

TEST(OperatorCheckpointTest, BinaryPendingPanesSurviveRestore) {
  HashJoinOp a(0, 0, WindowSpec::TumblingTime(kSecond));
  HashJoinOp b(0, 0, WindowSpec::TumblingTime(kSecond));
  // Asymmetric ingestion: left runs two panes ahead of right, so window
  // state and the matched-pane machinery are both mid-flight at capture.
  a.Ingest({T2(100, 1, 10.0), T2(kSecond + 10, 2, 20.0)}, 0);
  a.Ingest({T2(200, 1, 100.0)}, 1);
  std::vector<Tuple> drained;
  a.Advance(Millis(500), &drained);  // nothing released yet

  Restore(&b, Image(a));
  a.Ingest({T2(kSecond + 20, 2, 200.0)}, 1);
  b.Ingest({T2(kSecond + 20, 2, 200.0)}, 1);
  ExpectBitIdentical(Advance(a, 3 * kSecond), Advance(b, 3 * kSecond));
}

TEST(OperatorCheckpointTest, PassThroughPendingSurvivesRestore) {
  PassThroughOperator a("union");
  PassThroughOperator b("union");
  a.Ingest({T1(1, 1.25, 0.3), T1(2, 2.5, 0.7)}, 0);
  Restore(&b, Image(a));
  ExpectBitIdentical(Advance(a, kSecond), Advance(b, kSecond));
}

TEST(OperatorCheckpointTest, GroupByAggregateRoundTripsMidPane) {
  GroupByAggregateOp a(AggregateKind::kAvg, 0, 1,
                       WindowSpec::TumblingTime(kSecond));
  GroupByAggregateOp b(AggregateKind::kAvg, 0, 1,
                       WindowSpec::TumblingTime(kSecond));
  a.Ingest({T2(1, 1, 10), T2(2, 1, 20), T2(3, 2, Wobble(3))}, 0);
  Restore(&b, Image(a));
  a.Ingest({T2(500, 2, Wobble(9))}, 0);
  b.Ingest({T2(500, 2, Wobble(9))}, 0);
  ExpectBitIdentical(Advance(a, kSecond), Advance(b, kSecond));
}

TEST(OperatorCheckpointTest, EwmaScalarCrossesTheImage) {
  EwmaOp a(0.25, 0, WindowSpec::TumblingTime(kSecond));
  EwmaOp b(0.25, 0, WindowSpec::TumblingTime(kSecond));
  a.Ingest({T1(1, 10.0), T1(2, 30.0)}, 0);
  ASSERT_EQ(Advance(a, kSecond).size(), 1u);  // EWMA initialised
  a.Ingest({T1(kSecond + 1, Wobble(4))}, 0);

  Restore(&b, Image(a));
  // Without the cross-pane scalar the restored twin would re-initialise its
  // EWMA from the next pane mean and diverge bit-wise.
  ExpectBitIdentical(Advance(a, 2 * kSecond), Advance(b, 2 * kSecond));
}

TEST(OperatorCheckpointTest, DeltaPreviousMeanCrossesTheImage) {
  DeltaOp a(0, WindowSpec::TumblingTime(kSecond));
  DeltaOp b(0, WindowSpec::TumblingTime(kSecond));
  a.Ingest({T1(1, Wobble(1))}, 0);
  ASSERT_TRUE(Advance(a, kSecond).empty());  // first pane has no predecessor
  a.Ingest({T1(kSecond + 1, Wobble(2))}, 0);

  Restore(&b, Image(a));
  auto out_a = Advance(a, 2 * kSecond);
  auto out_b = Advance(b, 2 * kSecond);
  ASSERT_EQ(out_a.size(), 1u);  // has a predecessor: the restored scalar
  ExpectBitIdentical(out_a, out_b);
}

// --- mid-pane images restored over other state ----------------------------

std::vector<Tuple> MakeRows(int lo, int hi) {
  std::vector<Tuple> rows;
  for (int i = lo; i < hi; ++i) {
    rows.push_back(T1(i * Millis(25), Wobble(i), 0.001 * (i % 13 + 1)));
  }
  return rows;
}

// Captures `source` mid-pane (pane [0 s, 1 s) released, [1 s, 2 s) open)
// and restores the image over `other`, which holds rows of a later pane. The
// restore must replace that state completely: `other` re-captures the same
// bytes, and fed the same rows (late ones included, which the restored
// release watermark folds forward) both release bit-identical panes, with
// nothing left of `other`'s own rows.
void ExpectMidPaneImageReplacesOtherState(Operator& source, Operator& other) {
  source.Ingest(MakeRows(0, 60), 0);
  ASSERT_FALSE(Advance(source, kSecond).empty());
  std::vector<uint8_t> image = Image(source);

  other.Ingest(MakeRows(200, 230), 0);  // pane [5 s, 6 s)
  Restore(&other, image);
  EXPECT_EQ(Image(other), image);

  std::vector<Tuple> more = MakeRows(30, 35);  // late: before 1 s
  std::vector<Tuple> tail = MakeRows(60, 100);
  more.insert(more.end(), tail.begin(), tail.end());
  source.Ingest(more, 0);
  other.Ingest(more, 0);
  std::vector<Tuple> out = Advance(source, 6 * kSecond);
  ASSERT_FALSE(out.empty());
  ExpectBitIdentical(out, Advance(other, 6 * kSecond));
}

class AggregateCheckpointTest
    : public ::testing::TestWithParam<AggregateKind> {};

TEST_P(AggregateCheckpointTest, MidPaneImageRestoresOverOtherState) {
  WindowSpec spec = WindowSpec::TumblingTime(kSecond);
  AggregateOp source(GetParam(), 0, spec);
  AggregateOp other(GetParam(), 0, spec);
  ExpectMidPaneImageReplacesOtherState(source, other);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AggregateCheckpointTest,
                         ::testing::Values(AggregateKind::kAvg,
                                           AggregateKind::kMax,
                                           AggregateKind::kMin,
                                           AggregateKind::kSum,
                                           AggregateKind::kCount));

TEST(FilterCheckpointTest, MidPaneImageRestoresOverOtherState) {
  auto non_negative = [](const Tuple& t) {
    return AsDouble(t.values[0]) >= 0.0;
  };
  WindowSpec spec = WindowSpec::TumblingTime(kSecond);
  FilterOp source(non_negative, spec);
  FilterOp other(non_negative, spec);
  ExpectMidPaneImageReplacesOtherState(source, other);
}

// --- store semantics ------------------------------------------------------

TEST(CheckpointStoreTest, ApproximateModeSkipsCleanOperators) {
  CheckpointStore store;
  AggregateOp op(AggregateKind::kSum, 0, WindowSpec::TumblingTime(kSecond));
  op.set_id(3);

  // First capture always lands, even on a clean operator.
  EXPECT_TRUE(MaybeCheckpointOperator(&op, 7, Millis(10), 1.0, &store));
  EXPECT_EQ(store.stats().taken, 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(op.checkpoint_dirt(), 0.0);

  // Dirt below the bound: the old image stays.
  op.Ingest({T1(1, 1.0, 0.4)}, 0);
  EXPECT_DOUBLE_EQ(op.checkpoint_dirt(), 0.4);
  EXPECT_FALSE(MaybeCheckpointOperator(&op, 7, Millis(20), 1.0, &store));
  EXPECT_EQ(store.stats().skipped_clean, 1u);
  EXPECT_DOUBLE_EQ(op.checkpoint_dirt(), 0.4);  // still pending

  // Dirt accumulates past the bound: re-capture, dirt clears.
  op.Ingest({T1(2, 2.0, 0.7)}, 0);
  EXPECT_TRUE(MaybeCheckpointOperator(&op, 7, Millis(30), 1.0, &store));
  EXPECT_EQ(store.stats().taken, 2u);
  EXPECT_DOUBLE_EQ(op.checkpoint_dirt(), 0.0);
  EXPECT_EQ(store.Find(7, 3)->taken_at, Millis(30));
  EXPECT_GT(store.resident_bytes(), 0u);
}

TEST(CheckpointStoreTest, RestoreOrResetFallsBackToReset) {
  CheckpointStore store;
  AggregateOp op(AggregateKind::kSum, 0, WindowSpec::TumblingTime(kSecond));
  op.set_id(0);
  op.Ingest({T1(1, 5.0, 0.2)}, 0);
  // No image: the operator must come back empty, not with live state.
  EXPECT_FALSE(RestoreOrResetOperator(&op, 9, &store));
  EXPECT_EQ(store.stats().missed, 1u);
  EXPECT_TRUE(Advance(op, kSecond).empty());

  // With an image: restore wins and counts.
  op.Ingest({T1(kSecond + 1, 5.0, 0.2)}, 0);
  ASSERT_TRUE(MaybeCheckpointOperator(&op, 9, Millis(5), 0.0, &store));
  op.ResetState(nullptr);
  EXPECT_TRUE(RestoreOrResetOperator(&op, 9, &store));
  EXPECT_EQ(store.stats().restores, 1u);
  ASSERT_EQ(Advance(op, 2 * kSecond).size(), 1u);
}

TEST(CheckpointStoreTest, MoveEntryAndEraseQuery) {
  CheckpointStore src, dst;
  src.Put(1, 0, {1, 2, 3}, Millis(1));
  src.Put(1, 4, {4}, Millis(1));
  src.Put(2, 0, {5, 6}, Millis(1));

  src.MoveEntry(1, 0, &dst);
  src.MoveEntry(1, 99, &dst);  // no such image: no-op
  EXPECT_EQ(src.size(), 2u);
  ASSERT_NE(dst.Find(1, 0), nullptr);
  EXPECT_EQ(dst.Find(1, 0)->bytes.size(), 3u);

  src.EraseQuery(1);
  EXPECT_EQ(src.size(), 1u);
  EXPECT_EQ(src.Find(1, 4), nullptr);
  EXPECT_NE(src.Find(2, 0), nullptr);
  EXPECT_EQ(src.resident_bytes(), 2u);
}

TEST(CheckpointStoreTest, TruncatedImageDegradesToEmptyState) {
  AggregateOp a(AggregateKind::kAvg, 0, WindowSpec::TumblingTime(kSecond));
  a.Ingest(MakeRows(0, 20), 0);
  std::vector<uint8_t> image = Image(a);
  ASSERT_GT(image.size(), 8u);
  image.resize(image.size() / 2);  // simulate a torn write

  AggregateOp b(AggregateKind::kAvg, 0, WindowSpec::TumblingTime(kSecond));
  CheckpointReader r(image);
  b.RestoreFrom(&r);  // must not crash or read past the end
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace themis
