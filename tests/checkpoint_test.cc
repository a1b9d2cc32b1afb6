// Checkpoint/restore seam tests (runtime/checkpoint.h): byte-exact
// round-trips of window state (tumbling, sliding, count), binary pending
// panes, pass-through buffers and cross-pane scalars; mid-pane aggregate
// (all five kinds) and filter images restored over operators that hold other
// state; the store semantics the federation relies on (approximate
// skip-if-clean, restore-or-reset, image hand-over, undeploy erasure,
// truncated-image degradation, torn-image reset) and its allocation-free
// re-capture; the tuple image format against a field-by-field reference
// encoder; and the reader against corrupted count fields and seeded image
// mutations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
#include "common/rng.h"
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

TEST(CheckpointStoreTest, TornImageInTheStoreResets) {
  // A torn image parses only part-way: restoring that part would resume
  // half the buffered tuples. The store counts it as missed and resets.
  PassThroughOperator a("union");
  a.Ingest(MakeRows(0, 10), 0);
  std::vector<uint8_t> image = Image(a);
  image.resize(image.size() / 2);
  CheckpointStore store;
  store.Put(4, 2, std::move(image), Millis(1));

  PassThroughOperator b("union");
  b.set_id(2);
  b.Ingest(MakeRows(20, 23), 0);  // live state the reset must clear
  EXPECT_FALSE(RestoreOrResetOperator(&b, 4, &store));
  EXPECT_EQ(store.stats().restores, 0u);
  EXPECT_EQ(store.stats().missed, 1u);
  EXPECT_TRUE(Advance(b, kSecond).empty());
}

TEST(CheckpointStoreTest, DenseTableFindsOnlyTakenImages) {
  CheckpointStore store, other;
  store.Put(300, 7, {1, 2}, Millis(1));
  store.Put(2, 0, {}, Millis(2));  // an empty image is still an image
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.Find(300, 7), nullptr);
  EXPECT_EQ(store.Find(300, 6), nullptr);  // slot grown, never taken
  EXPECT_EQ(store.Find(299, 7), nullptr);
  EXPECT_EQ(store.Find(301, 0), nullptr);
  ASSERT_NE(store.Find(2, 0), nullptr);
  EXPECT_EQ(store.Find(2, 0)->taken_at, Millis(2));

  // Re-putting an image replaces it without counting a second one.
  store.Put(300, 7, {9}, Millis(3));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.resident_bytes(), 1u);

  // Moving onto an image the destination already holds replaces that one.
  other.Put(300, 7, {4, 4, 4}, Millis(1));
  store.MoveEntry(300, 7, &other);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find(300, 7), nullptr);
  EXPECT_EQ(other.size(), 1u);
  EXPECT_EQ(other.Find(300, 7)->taken_at, Millis(3));
  EXPECT_EQ(other.resident_bytes(), 1u);

  store.EraseQuery(2);
  store.EraseQuery(5000);  // beyond the table: no-op
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().taken, 3u);
}

// Same rows, one pane later, so every image after the first has the same
// size: the capture rewrites the slot's buffer and allocates nothing.
TEST(CheckpointStoreTest, RecaptureOfUngrownStateAllocatesNothing) {
  ForceLinkAllocCounter();
  ASSERT_TRUE(AllocCounter::active());
  CheckpointStore store;
  AggregateOp op(AggregateKind::kAvg, 0, WindowSpec::TumblingTime(kSecond));
  op.set_id(2);
  for (int pane = 0; pane < 4; ++pane) {
    std::vector<Tuple> rows;
    for (int i = 0; i < 30; ++i) {
      rows.push_back(T1(pane * kSecond + i * Millis(30), Wobble(i), 0.01));
    }
    op.Ingest(rows, 0);
    const uint64_t before = AllocCounter::allocations();
    ASSERT_TRUE(MaybeCheckpointOperator(&op, 5, pane * kSecond, 0.0, &store));
    const uint64_t allocs = AllocCounter::allocations() - before;
    const std::vector<uint8_t>& bytes = store.Find(5, 2)->bytes;
    if (pane == 0) {
      // The buffer grew by half again what the tuple run needed, so the
      // window's trailing fields fit without doubling it.
      EXPECT_LE(2 * bytes.capacity(), 3 * bytes.size());
    } else {
      EXPECT_EQ(allocs, 0u) << "capture " << pane;
    }
    EXPECT_EQ(bytes, Image(op)) << "capture " << pane;
    Advance(op, (pane + 1) * kSecond);  // release the pane
  }
  EXPECT_EQ(store.stats().taken, 4u);
}

TEST(CheckpointStoreTest, SlotBufferKeepsAtMostTwiceItsImage) {
  CheckpointStore store;
  PassThroughOperator op("union");
  op.set_id(0);
  auto capture = [&](int lo, int hi) -> const std::vector<uint8_t>& {
    std::vector<Tuple> drained;
    op.Advance(0, &drained);  // pass-through state empties on Advance
    op.Ingest(MakeRows(lo, hi), 0);
    EXPECT_TRUE(MaybeCheckpointOperator(&op, 1, 0, 0.0, &store));
    const std::vector<uint8_t>& bytes = store.Find(1, 0)->bytes;
    EXPECT_EQ(bytes, Image(op));
    return bytes;
  };
  const std::vector<uint8_t>& big = capture(0, 200);
  const uint8_t* buffer = big.data();
  const size_t capacity = big.capacity();
  // Four fifths of the image: rewritten in the same buffer.
  const std::vector<uint8_t>& four_fifths = capture(0, 160);
  EXPECT_EQ(four_fifths.data(), buffer);
  EXPECT_EQ(four_fifths.capacity(), capacity);
  // A twentieth: the slack beyond twice the image is given back.
  const std::vector<uint8_t>& small = capture(0, 10);
  EXPECT_LE(small.capacity(), 2 * small.size());
  EXPECT_EQ(store.stats().taken, 3u);
}

// --- image format ---------------------------------------------------------

// Field-by-field reference for the tuple image format: a u32 count, then per
// tuple its i64 timestamp, f64 sic, u32 value count and, per value, a u8 kind
// tag followed by the active member (i64, f64 or u32 string id).
struct ReferenceEncoder {
  template <typename T>
  void Put(T v) {
    uint8_t b[sizeof(T)] = {};
    std::memcpy(b, &v, sizeof(T));
    for (uint8_t byte : b) bytes.push_back(byte);
  }
  void PutTuple(const Tuple& t) {
    Put<int64_t>(t.timestamp);
    Put<double>(t.sic);
    Put<uint32_t>(static_cast<uint32_t>(t.values.size()));
    for (const Value& v : t.values) {
      Put<uint8_t>(static_cast<uint8_t>(v.kind()));
      if (v.is_int()) Put<int64_t>(v.int_value());
      if (v.is_double()) Put<double>(v.double_value());
      if (v.is_string()) Put<uint32_t>(v.string_id());
    }
  }
  void PutTuples(const std::vector<Tuple>& tuples) {
    Put<uint32_t>(static_cast<uint32_t>(tuples.size()));
    for (const Tuple& t : tuples) PutTuple(t);
  }
  std::vector<uint8_t> bytes;
};

Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return Value(rng->UniformInt(INT64_MIN, INT64_MAX));
    case 1:
      return Value(Wobble(static_cast<int>(rng->UniformInt(0, 1000))));
    default:
      return Value("key-" + std::to_string(rng->UniformInt(0, 50)));
  }
}

// Up to 9 values: payloads past the 4-value inline capacity spill.
std::vector<Tuple> RandomTuples(Rng* rng, int n) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.timestamp = rng->UniformInt(-kSecond, 100 * kSecond);
    t.sic = rng->NextDouble();
    for (int64_t k = rng->UniformInt(0, 9); k > 0; --k) {
      t.values.push_back(RandomValue(rng));
    }
    tuples.push_back(std::move(t));
  }
  return tuples;
}

TEST(CheckpointWriterTest, TupleRunsMatchAFieldByFieldEncoder) {
  Rng rng(4242);
  bool spilled = false;
  for (int run = 0; run < 50; ++run) {
    std::vector<Tuple> tuples =
        RandomTuples(&rng, static_cast<int>(rng.UniformInt(0, 40)));
    for (const Tuple& t : tuples) spilled |= t.values.spilled();
    ReferenceEncoder ref;
    ref.PutTuples(tuples);

    CheckpointWriter bulk;
    bulk.PutTuples(tuples);
    EXPECT_EQ(bulk.bytes(), ref.bytes) << "run " << run;

    // One tuple at a time, after a count, into a reused buffer with junk.
    std::vector<uint8_t> reused(3 * ref.bytes.size() + 1, 0xAB);
    const size_t capacity = reused.capacity();
    {
      CheckpointWriter w(&reused);
      w.PutU32(static_cast<uint32_t>(tuples.size()));
      for (const Tuple& t : tuples) w.PutTuple(t);
    }
    EXPECT_EQ(reused, ref.bytes) << "run " << run;
    EXPECT_EQ(reused.capacity(), capacity);

    // And back: the reader returns the same tuples, bit for bit.
    CheckpointReader r(ref.bytes);
    std::vector<Tuple> back;
    r.GetTuples(&back);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
    ExpectBitIdentical(back, tuples);
  }
  EXPECT_TRUE(spilled);
}

// --- corrupted images -----------------------------------------------------

uint32_t U32At(const std::vector<uint8_t>& image, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, image.data() + at, sizeof(v));
  return v;
}

void StampU32(std::vector<uint8_t>* image, size_t at, uint32_t v) {
  std::memcpy(image->data() + at, &v, sizeof(v));
}

// An AggregateOp image starts with its format tag (u8), the window's
// release watermark (i64) and open-pane count (u32); the first open pane
// follows as index, start, end (i64 each) and its tuple run, whose first
// tuple's value count sits after that tuple's timestamp and sic.
constexpr size_t kFirstPaneTupleCount = 1 + 8 + 4 + 3 * 8;
constexpr size_t kFirstTupleValueCount = kFirstPaneTupleCount + 4 + 8 + 8;

// Restores `image` into a fresh AVG operator; the read must fail cleanly,
// and the allocation must stay proportional to the image, not to the count.
void ExpectCorruptImageFailsCheaply(const std::vector<uint8_t>& image) {
  ForceLinkAllocCounter();
  ASSERT_TRUE(AllocCounter::active());
  AggregateOp b(AggregateKind::kAvg, 0, WindowSpec::TumblingTime(kSecond));
  CheckpointReader r(image);
  const uint64_t before = AllocCounter::bytes_allocated();
  EXPECT_NO_THROW(b.RestoreFrom(&r));
  const uint64_t allocated = AllocCounter::bytes_allocated() - before;
  EXPECT_FALSE(r.ok());
  EXPECT_LT(allocated, 64 * image.size());
}

class CorruptCountTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  std::vector<uint8_t> MidPaneImage() {
    AggregateOp a(AggregateKind::kAvg, 0, WindowSpec::TumblingTime(kSecond));
    a.Ingest(MakeRows(0, 20), 0);  // one open pane of 20 one-value tuples
    std::vector<uint8_t> image = Image(a);
    EXPECT_EQ(U32At(image, kFirstPaneTupleCount), 20u);
    EXPECT_EQ(U32At(image, kFirstTupleValueCount), 1u);
    return image;
  }
};

TEST_P(CorruptCountTest, TupleCountIsClampedToTheImage) {
  std::vector<uint8_t> image = MidPaneImage();
  StampU32(&image, kFirstPaneTupleCount, GetParam());
  ExpectCorruptImageFailsCheaply(image);
}

TEST_P(CorruptCountTest, ValueCountIsClampedToTheImage) {
  std::vector<uint8_t> image = MidPaneImage();
  StampU32(&image, kFirstTupleValueCount, GetParam());
  ExpectCorruptImageFailsCheaply(image);
}

INSTANTIATE_TEST_SUITE_P(HugeCounts, CorruptCountTest,
                         ::testing::Values(0xFFFFFFFFu, 1u << 28, 1u << 24));

// --- seeded mutations of every stateful operator kind ---------------------

// Rows of int key, double value and string label; every fifth row carries
// three more values, past the 4-value inline payload.
std::vector<Tuple> MixedRows(int lo, int hi) {
  std::vector<Tuple> rows;
  for (int i = lo; i < hi; ++i) {
    Tuple t;
    t.timestamp = i * Millis(90);
    t.sic = 0.01 * (i % 7 + 1);
    t.values.push_back(Value(int64_t{i % 3}));
    t.values.push_back(Value(Wobble(i)));
    t.values.push_back(Value("label-" + std::to_string(i % 4)));
    if (i % 5 == 0) {
      for (int k = 0; k < 3; ++k) t.values.push_back(Value(int64_t{i * k}));
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

// Tumbling, sliding and count windows, binary pending panes, pass-through,
// group-by, and the EWMA and delta scalars.
constexpr int kStatefulKinds = 8;

std::unique_ptr<Operator> MakeStateful(int kind) {
  const AggregateKind avg = AggregateKind::kAvg;
  const WindowSpec tumbling = WindowSpec::TumblingTime(kSecond);
  const WindowSpec sliding = WindowSpec::SlidingTime(2 * kSecond, Millis(500));
  const WindowSpec count = WindowSpec::Count(7);
  switch (kind) {
    case 0:
      return std::make_unique<AggregateOp>(avg, 1, tumbling);
    case 1:
      return std::make_unique<AggregateOp>(AggregateKind::kSum, 1, sliding);
    case 2:
      return std::make_unique<AggregateOp>(AggregateKind::kMax, 1, count);
    case 3:
      return std::make_unique<HashJoinOp>(0, 0, tumbling);
    case 4:
      return std::make_unique<PassThroughOperator>("union");
    case 5:
      return std::make_unique<GroupByAggregateOp>(avg, 0, 1, tumbling);
    case 6:
      return std::make_unique<EwmaOp>(0.25, 1, tumbling);
    default:
      return std::make_unique<DeltaOp>(1, tumbling);
  }
}

// Mid-flight state: a pane released (scalars initialised, sliding panes
// aligned), rows left in open panes and, for binary operators, the left
// side a pane ahead of the right.
std::vector<uint8_t> MidFlightImage(Operator* op) {
  op->Ingest(MixedRows(0, 14), 0);
  if (op->num_ports() > 1) op->Ingest(MixedRows(3, 8), 1);
  Advance(*op, kSecond);
  op->Ingest(MixedRows(14, 20), 0);
  return Image(*op);
}

// One edit: a byte replaced, inserted or deleted, a u32 stamped with a huge
// or random count, or the image cut short.
void MutateImage(std::vector<uint8_t>* image, Rng* rng) {
  auto pick = [rng](size_t n) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  const int64_t kind = rng->UniformInt(0, 4);
  if (image->empty()) return;
  const size_t at = pick(image->size());
  const auto byte = static_cast<uint8_t>(rng->UniformInt(0, 255));
  switch (kind) {
    case 0:
      (*image)[at] = byte;
      break;
    case 1:
      image->insert(image->begin() + at, byte);
      break;
    case 2:
      image->erase(image->begin() + at);
      break;
    case 3: {
      const uint32_t huge[] = {0xFFFFFFFFu, 1u << 28, 1u << 24};
      uint32_t count = static_cast<uint32_t>(rng->UniformInt(0, UINT32_MAX));
      if (rng->Bernoulli(0.75)) count = huge[pick(3)];
      if (image->size() >= at + 4) StampU32(image, at, count);
      break;
    }
    default:
      image->resize(at);
      break;
  }
}

// Seeded byte edits and truncations of images of every stateful operator
// kind: RestoreFrom must return without throwing and without reading past
// the end (the reader sees an exactly sized heap copy, so ASan catches an
// overrun), and the restored operator must capture and reset cleanly.
TEST(CheckpointReaderMutationTest, SeededEditsAlwaysRestoreSafely) {
  const int kPerKind = 1000;
  const int kMaxEdits = 3;  // stacked edits per mutation
  Rng rng(20160626);
  int mutations = 0, overruns = 0, exact = 0;
  for (int kind = 0; kind < kStatefulKinds; ++kind) {
    std::unique_ptr<Operator> source = MakeStateful(kind);
    const std::vector<uint8_t> image = MidFlightImage(source.get());
    ASSERT_GT(image.size(), 100u) << source->name();
    for (int i = 0; i < kPerKind; ++i) {
      std::vector<uint8_t> mutated = image;
      for (int edits = static_cast<int>(rng.UniformInt(1, kMaxEdits));
           edits > 0; --edits) {
        MutateImage(&mutated, &rng);
      }
      const std::vector<uint8_t> exact_copy(mutated.begin(), mutated.end());
      std::unique_ptr<Operator> op = MakeStateful(kind);
      op->Ingest(MixedRows(40, 45), 0);  // state the restore must replace
      CheckpointReader r(exact_copy);
      ++mutations;
      EXPECT_NO_THROW(op->RestoreFrom(&r)) << op->name() << " mutation " << i;
      overruns += r.ok() ? 0 : 1;
      exact += r.ok() && r.AtEnd() ? 1 : 0;
      CheckpointWriter w;
      op->Checkpoint(&w);
      op->ResetState(nullptr);
    }
  }
  EXPECT_EQ(mutations, 8000);
  // The edits must reach both ends: reads cut short, and images that still
  // parse to the end (a value or scalar changed in place).
  EXPECT_GT(overruns, 1000);
  EXPECT_GT(exact, 100);
}

}  // namespace
}  // namespace themis
