// Unit tests for the window model (runtime/window.h): tumbling, sliding and
// count windows, SIC mass conservation across panes, late-data policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "runtime/checkpoint.h"
#include "runtime/window.h"

namespace themis {
namespace {

Tuple MakeTuple(SimTime ts, double sic, double v = 0.0) {
  return Tuple(ts, sic, {Value(v)});
}

TEST(TumblingWindowTest, PanesCloseAtWatermark) {
  WindowBuffer w(WindowSpec::TumblingTime(kSecond));
  w.Add(MakeTuple(100, 0.1));
  w.Add(MakeTuple(900000, 0.1));          // same pane [0, 1s)
  w.Add(MakeTuple(kSecond + 1, 0.1));     // pane [1s, 2s)

  auto panes = w.Advance(kSecond);
  ASSERT_EQ(panes.size(), 1u);
  EXPECT_EQ(panes[0].start, 0);
  EXPECT_EQ(panes[0].end, kSecond);
  EXPECT_EQ(panes[0].tuples.size(), 2u);
  EXPECT_DOUBLE_EQ(panes[0].TotalSic(), 0.2);

  panes = w.Advance(2 * kSecond);
  ASSERT_EQ(panes.size(), 1u);
  EXPECT_EQ(panes[0].tuples.size(), 1u);
}

TEST(TumblingWindowTest, NoPaneBeforeWatermark) {
  WindowBuffer w(WindowSpec::TumblingTime(kSecond));
  w.Add(MakeTuple(100, 0.5));
  EXPECT_TRUE(w.Advance(kSecond - 1).empty());
  EXPECT_EQ(w.buffered(), 1u);
}

TEST(TumblingWindowTest, LateTupleFoldsIntoOpenPane) {
  WindowBuffer w(WindowSpec::TumblingTime(kSecond));
  w.Add(MakeTuple(500, 0.1));
  auto panes = w.Advance(kSecond);
  ASSERT_EQ(panes.size(), 1u);
  // A tuple whose timestamp is in the already-released window must not be
  // lost: it lands in the earliest still-open pane.
  w.Add(MakeTuple(600, 0.7));
  panes = w.Advance(2 * kSecond);
  ASSERT_EQ(panes.size(), 1u);
  EXPECT_DOUBLE_EQ(panes[0].TotalSic(), 0.7);
}

TEST(TumblingWindowTest, MultiplePanesReleasedInOrder) {
  WindowBuffer w(WindowSpec::TumblingTime(kSecond));
  for (int s = 0; s < 5; ++s) w.Add(MakeTuple(s * kSecond + 10, 0.1));
  auto panes = w.Advance(5 * kSecond);
  ASSERT_EQ(panes.size(), 5u);
  for (size_t i = 1; i < panes.size(); ++i) {
    EXPECT_LT(panes[i - 1].end, panes[i].end);
  }
}

TEST(SlidingWindowTest, OverlapDividesSic) {
  // range 2s, slide 1s: each tuple appears in 2 panes with half its SIC.
  WindowBuffer w(WindowSpec::SlidingTime(2 * kSecond, kSecond));
  w.Add(MakeTuple(kSecond / 2, 1.0));
  auto panes = w.Advance(3 * kSecond);
  double total = 0.0;
  size_t appearances = 0;
  for (const Pane& p : panes) {
    total += p.TotalSic();
    appearances += p.tuples.size();
  }
  EXPECT_EQ(appearances, 2u);
  EXPECT_DOUBLE_EQ(total, 1.0);  // SIC mass conserved across panes
}

TEST(SlidingWindowTest, PaneEndsAtSlideBoundaries) {
  WindowBuffer w(WindowSpec::SlidingTime(2 * kSecond, kSecond));
  w.Add(MakeTuple(100, 0.3));
  auto panes = w.Advance(2 * kSecond + 1);
  ASSERT_GE(panes.size(), 1u);
  for (const Pane& p : panes) {
    EXPECT_EQ(p.end % kSecond, 0);
    EXPECT_EQ(p.end - p.start, 2 * kSecond);
  }
}

TEST(SlidingWindowTest, LateTupleKeepsItsSic) {
  // The t = 0.6 s tuple arrives after the sliding panes ending at 1 s and
  // 2 s were released. It folds to 2 s, the end of the last released pane,
  // and lands in the panes ending at 3 s and 4 s, so all 2.0 of the SIC
  // ingested leaves the window, as it does from a tumbling window.
  auto sic_out = [](WindowSpec spec) {
    WindowBuffer w(spec);
    w.Add(MakeTuple(Millis(500), 1.0));
    double total = 0.0;
    for (const Pane& p : w.Advance(2 * kSecond)) total += p.TotalSic();
    w.Add(MakeTuple(Millis(600), 1.0));
    for (const Pane& p : w.Advance(10 * kSecond)) total += p.TotalSic();
    return total;
  };
  EXPECT_DOUBLE_EQ(sic_out(WindowSpec::SlidingTime(2 * kSecond, kSecond)), 2.0);
  EXPECT_DOUBLE_EQ(sic_out(WindowSpec::TumblingTime(kSecond)), 2.0);
}

TEST(CountWindowTest, EmitsWhenFull) {
  WindowBuffer w(WindowSpec::Count(3));
  w.Add(MakeTuple(1, 0.1));
  w.Add(MakeTuple(2, 0.1));
  EXPECT_TRUE(w.Advance(kSecond).empty());
  w.Add(MakeTuple(3, 0.1));
  auto panes = w.Advance(kSecond);
  ASSERT_EQ(panes.size(), 1u);
  EXPECT_EQ(panes[0].tuples.size(), 3u);
  EXPECT_EQ(w.buffered(), 0u);
}

TEST(CountWindowTest, MultipleFullPanes) {
  WindowBuffer w(WindowSpec::Count(2));
  for (int i = 0; i < 7; ++i) w.Add(MakeTuple(i, 1.0));
  auto panes = w.Advance(0);
  EXPECT_EQ(panes.size(), 3u);
  EXPECT_EQ(w.buffered(), 1u);
}

// Property sweep: SIC mass entering a window equals SIC mass leaving it once
// all panes are released, for any (range, slide) combination.
class SlidingConservationTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SlidingConservationTest, SicMassConserved) {
  auto [range_ms, slide_ms] = GetParam();
  WindowBuffer w(WindowSpec::SlidingTime(Millis(range_ms), Millis(slide_ms)));
  double in_mass = 0.0;
  for (int i = 0; i < 200; ++i) {
    double sic = 0.01 + (i % 7) * 0.001;
    w.Add(MakeTuple(Millis(10) * i, sic));
    in_mass += sic;
  }
  // Push the watermark far enough that every tuple has left every pane.
  auto panes = w.Advance(Millis(10) * 200 + Millis(range_ms) * 2);
  double out_mass = 0.0;
  for (const Pane& p : panes) out_mass += p.TotalSic();
  EXPECT_NEAR(out_mass, in_mass, 1e-9);
}

// Late tuples, some older than every released pane, keep their SIC too.
TEST_P(SlidingConservationTest, LateTuplesConserveSic) {
  auto [range_ms, slide_ms] = GetParam();
  WindowBuffer w(WindowSpec::SlidingTime(Millis(range_ms), Millis(slide_ms)));
  double in_mass = 0.0;
  double out_mass = 0.0;
  for (int i = 0; i < 200; ++i) {
    double sic = 0.01 + (i % 7) * 0.001;
    w.Add(MakeTuple(Millis(10) * i, sic));
    in_mass += sic;
  }
  for (const Pane& p : w.Advance(Millis(1500))) out_mass += p.TotalSic();
  for (int i = 0; i < 50; ++i) {
    double sic = 0.02 + (i % 5) * 0.001;
    w.Add(MakeTuple(Millis(30) * i, sic));
    in_mass += sic;
  }
  for (const Pane& p : w.Advance(Millis(10) * 200 + Millis(range_ms) * 2)) {
    out_mass += p.TotalSic();
  }
  EXPECT_NEAR(out_mass, in_mass, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RangeSlideCombos, SlidingConservationTest,
    ::testing::Values(std::make_pair(1000, 250), std::make_pair(1000, 500),
                      std::make_pair(2000, 1000), std::make_pair(500, 100),
                      std::make_pair(250, 250)));

// A sliding window by definition: every ingested tuple is kept (a late one
// folded to the end of the last released pane) and each pane is cut by a
// scan over all of them, in arrival order.
class ScanReference {
 public:
  explicit ScanReference(WindowSpec spec) : spec_(spec) {}

  void Add(Tuple t) {
    if (next_end_ >= 0 && t.timestamp < next_end_ - spec_.slide) {
      t.timestamp = next_end_ - spec_.slide;
    }
    all_.push_back(t);
  }

  std::vector<Pane> Advance(SimTime watermark) {
    std::vector<Pane> out;
    if (next_end_ < 0) {
      if (all_.empty()) return out;
      SimTime first = all_.front().timestamp;
      for (const Tuple& t : all_) first = std::min(first, t.timestamp);
      next_end_ = (first / spec_.slide + 1) * spec_.slide;
    }
    const double slides = static_cast<double>(spec_.range) / spec_.slide;
    const double overlap = std::max(1.0, slides);
    for (; next_end_ <= watermark; next_end_ += spec_.slide) {
      Pane p;
      p.start = next_end_ - spec_.range;
      p.end = next_end_;
      for (const Tuple& t : all_) {
        if (t.timestamp >= p.start && t.timestamp < p.end) {
          p.tuples.push_back(t);
          p.tuples.back().sic = t.sic / overlap;
        }
      }
      out.push_back(std::move(p));
    }
    return out;
  }

 private:
  WindowSpec spec_;
  std::vector<Tuple> all_;
  SimTime next_end_ = -1;
};

void ExpectSamePanes(const std::vector<Pane>& got,
                     const std::vector<Pane>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].end, want[i].end);
    SCOPED_TRACE(testing::Message() << "pane ending " << got[i].end);
    ASSERT_EQ(got[i].tuples.size(), want[i].tuples.size());
    for (size_t j = 0; j < got[i].tuples.size(); ++j) {
      const Tuple& a = got[i].tuples[j];
      const Tuple& b = want[i].tuples[j];
      EXPECT_EQ(a.timestamp, b.timestamp);
      EXPECT_EQ(std::bit_cast<uint64_t>(a.sic), std::bit_cast<uint64_t>(b.sic));
      EXPECT_TRUE(a.values == b.values);
    }
  }
}

// One step of an input schedule: add a tuple, or advance to a watermark.
struct Step {
  bool advance = false;
  SimTime watermark = 0;
  Tuple tuple;
};

// Parameter: the largest arrival delay in ms (0 = in order). Two tuples per
// millisecond into 100 ms panes sliding by 10 ms keep ~250 tuples buffered,
// so 6000 tuples wrap the ring (512 slots) about a dozen times. Advances
// lag arrivals by the 20 ms grace plus up to 9 ms, so with delays up to 60 ms
// some tuples arrive after their first panes were released and fold.
class SlidingReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SlidingReferenceTest, PanesMatchScanAndSurviveCheckpoint) {
  const WindowSpec spec = WindowSpec::SlidingTime(Millis(100), Millis(10));
  Rng rng(static_cast<uint64_t>(GetParam()) + 1);
  std::vector<Step> steps;
  for (int ms = 0; ms < 3000; ++ms) {
    for (int k = 0; k < 2; ++k) {
      const SimTime delay = Millis(rng.UniformInt(0, GetParam()));
      const SimTime ts = std::max<SimTime>(0, Millis(ms) - delay);
      const double sic = 0.001 * static_cast<double>(1 + rng.UniformInt(0, 9));
      Step s;
      s.tuple = Tuple(ts, sic, {Value(static_cast<int64_t>(2 * ms + k))});
      steps.push_back(s);
    }
    if (ms % 10 == 9) {
      Step s;
      s.advance = true;
      s.watermark = Millis(ms) - Millis(20);
      steps.push_back(s);
    }
  }

  // Replays steps [from, end) on `w`, returning the panes of each advance.
  auto replay = [&](WindowBuffer* w, size_t from) {
    std::vector<std::vector<Pane>> panes;
    for (size_t i = from; i < steps.size(); ++i) {
      if (steps[i].advance) {
        panes.push_back(w->Advance(steps[i].watermark));
      } else {
        w->Add(steps[i].tuple);
      }
    }
    return panes;
  };

  ScanReference ref(spec);
  WindowBuffer w(spec);
  size_t released = 0;
  std::vector<std::vector<uint8_t>> images;
  std::vector<size_t> image_steps;
  std::vector<std::vector<Pane>> want;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (!steps[i].advance) {
      ref.Add(steps[i].tuple);
      w.Add(steps[i].tuple);
      continue;
    }
    want.push_back(ref.Advance(steps[i].watermark));
    std::vector<Pane> got = w.Advance(steps[i].watermark);
    ExpectSamePanes(got, want.back());
    for (const Pane& p : got) released += p.tuples.size();
    // Images at many ring phases, wrapped ones among them.
    if (want.size() % 7 == 0) {
      CheckpointWriter cw;
      w.Checkpoint(&cw);
      images.push_back(cw.bytes());
      image_steps.push_back(i + 1);
    }
  }
  EXPECT_GT(released, 50000u);

  for (size_t n = 0; n < images.size(); ++n) {
    WindowBuffer restored(spec);
    CheckpointReader r(images[n]);
    restored.RestoreFrom(&r);
    ASSERT_TRUE(r.ok());
    CheckpointWriter again;
    restored.Checkpoint(&again);
    EXPECT_EQ(again.bytes(), images[n]) << "image " << n;
    std::vector<std::vector<Pane>> later = replay(&restored, image_steps[n]);
    const size_t offset = want.size() - later.size();
    for (size_t a = 0; a < later.size(); ++a) {
      ExpectSamePanes(later[a], want[offset + a]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ArrivalDelay, SlidingReferenceTest,
                         ::testing::Values(0, 60));

}  // namespace
}  // namespace themis
