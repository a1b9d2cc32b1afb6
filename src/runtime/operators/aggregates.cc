#include "runtime/operators/aggregates.h"

#include <algorithm>
#include <limits>

#include "runtime/checkpoint.h"
#include "runtime/columnar.h"
#include "runtime/tumbling_panes.h"

namespace themis {

namespace {

struct Accumulator {
  double sum = 0.0;
  double mx = std::numeric_limits<double>::lowest();
  double mn = std::numeric_limits<double>::max();
  size_t n = 0;

  void Add(double v) {
    sum += v;
    mx = std::max(mx, v);
    mn = std::min(mn, v);
    ++n;
  }

  double Finish(AggregateKind kind) const {
    switch (kind) {
      case AggregateKind::kAvg:
        return n ? sum / static_cast<double>(n) : 0.0;
      case AggregateKind::kMax:
        return n ? mx : 0.0;
      case AggregateKind::kMin:
        return n ? mn : 0.0;
      case AggregateKind::kSum:
        return sum;
      case AggregateKind::kCount:
        return static_cast<double>(n);
    }
    return 0.0;
  }
};

}  // namespace

std::string AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kAvg:
      return "avg";
    case AggregateKind::kMax:
      return "max";
    case AggregateKind::kMin:
      return "min";
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kCount:
      return "count";
  }
  return "?";
}

// Incremental per-pane state used once the operator switches to columnar
// mode. `sic_sum` accumulates tuple SIC in arrival order — the same addition
// sequence Pane::TotalSic() performs at release time — so Eq. (3) shares stay
// bit-identical to the row path.
struct AggregateOp::Columnar {
  struct PaneAcc {
    Accumulator acc;
    double sic_sum = 0.0;
  };
  explicit Columnar(SimDuration range) : panes(range) {}
  TumblingPanes<PaneAcc> panes;
};

AggregateOp::AggregateOp(AggregateKind kind, int field, WindowSpec spec,
                         std::function<bool(const Tuple&)> having,
                         double cost_us_per_tuple)
    : WindowedOperator(AggregateKindName(kind), spec, cost_us_per_tuple),
      kind_(kind),
      field_(field),
      having_(std::move(having)) {}

AggregateOp::~AggregateOp() = default;

bool AggregateOp::FastEligible() const {
  return window().spec().kind == WindowKind::kTumblingTime && !having_;
}

bool AggregateOp::AcceptsColumnar(int port) const {
  (void)port;
  return col_ != nullptr || FastEligible();
}

void AggregateOp::AccumulateRow(const Tuple& t) {
  Columnar::PaneAcc* pa = col_->panes.At(t.timestamp);
  pa->sic_sum += t.sic;
  if (having_ && !having_(t)) return;
  if (static_cast<size_t>(field_) < t.values.size()) {
    pa->acc.Add(AsDouble(t.values[field_]));
  }
}

void AggregateOp::EnsureColumnarMode() {
  if (col_) return;
  col_ = std::make_unique<Columnar>(window().spec().range);
  // Adopt the row buffer's release watermark, then migrate its open panes in
  // ascending order (tuples keep their within-pane arrival order, which is
  // the only order the per-pane sums observe).
  col_->panes.SeedReleasedUpTo(window().released_up_to());
  for (Pane& pane : window().DrainOpenTumbling()) {
    for (const Tuple& t : pane.tuples) AccumulateRow(t);
    window().Recycle(std::move(pane.tuples));
  }
}

void AggregateOp::Ingest(const std::vector<Tuple>& tuples, int port) {
  if (col_) {
    for (const Tuple& t : tuples) {
      AddDirt(t.sic);
      AccumulateRow(t);
    }
    return;
  }
  WindowedOperator::Ingest(tuples, port);
}

void AggregateOp::IngestColumnar(const ColumnarBlock& block, int port) {
  if (!col_ && !FastEligible()) {
    Operator::IngestColumnar(block, port);
    return;
  }
  EnsureColumnarMode();
  const size_t n = block.rows();
  if (n == 0) return;
  const SimTime* ts = block.timestamps().data();
  const double* sics = block.sics().data();
  double block_sic = 0.0;
  for (size_t i = 0; i < n; ++i) block_sic += sics[i];
  AddDirt(block_sic);
  const bool in_range = static_cast<size_t>(field_) < block.width();
  if (in_range) {
    const ColumnarBlock::Column& c = block.col(field_);
    if (c.kind == Value::Kind::kDouble && c.dense) {
      // Hot kernel: dense double column, contiguous reads, one pane lookup
      // per timestamp change. The fold is specialized per aggregate kind —
      // Finish() only reads the fields each kind maintains, so skipping the
      // others changes no emitted bit.
      const double* x = c.f64.data();
      auto run = [&](auto&& fold) {
        Columnar::PaneAcc* pa = col_->panes.At(ts[0]);
        SimTime prev = ts[0];
        for (size_t i = 0; i < n; ++i) {
          if (ts[i] != prev) {
            pa = col_->panes.At(ts[i]);
            prev = ts[i];
          }
          pa->sic_sum += sics[i];
          fold(pa->acc, x[i]);
        }
      };
      switch (kind_) {
        case AggregateKind::kAvg:
        case AggregateKind::kSum:
          run([](Accumulator& a, double v) {
            a.sum += v;
            ++a.n;
          });
          break;
        case AggregateKind::kCount:
          run([](Accumulator& a, double) { ++a.n; });
          break;
        case AggregateKind::kMax:
          run([](Accumulator& a, double v) {
            a.mx = std::max(a.mx, v);
            ++a.n;
          });
          break;
        case AggregateKind::kMin:
          run([](Accumulator& a, double v) {
            a.mn = std::min(a.mn, v);
            ++a.n;
          });
          break;
      }
      return;
    }
  }
  // Generic path: per-row validity + kind dispatch, same skip rule as the
  // row loop (`field out of range` == column missing for that row).
  Columnar::PaneAcc* pa = col_->panes.At(ts[0]);
  SimTime prev = ts[0];
  for (size_t i = 0; i < n; ++i) {
    if (ts[i] != prev) {
      pa = col_->panes.At(ts[i]);
      prev = ts[i];
    }
    pa->sic_sum += sics[i];
    if (in_range && block.col(field_).IsValid(i)) {
      pa->acc.Add(block.col(field_).DoubleAt(i));
    }
  }
}

void AggregateOp::Advance(SimTime watermark, std::vector<Tuple>* out) {
  if (!col_) {
    WindowedOperator::Advance(watermark, out);
    return;
  }
  col_->panes.Release(watermark, [&](SimTime end, Columnar::PaneAcc& pa) {
    // Panes exist only if at least one tuple arrived, so the row path's
    // ProcessPane always emits exactly one tuple per released pane; Eq. (3)
    // then assigns it the full pane SIC mass and the pane-end timestamp.
    Tuple result;
    result.values.push_back(pa.acc.Finish(kind_));
    result.sic = pa.sic_sum;
    result.timestamp = end;
    out->push_back(std::move(result));
  });
}

void AggregateOp::Checkpoint(CheckpointWriter* w) const {
  if (!col_) {
    w->PutU8(0);
    WindowedOperator::Checkpoint(w);
    return;
  }
  w->PutU8(1);
  w->PutI64(col_->panes.released_up_to());
  w->PutU32(static_cast<uint32_t>(col_->panes.size()));
  const Columnar& col = *col_;
  col.panes.ForEach([&](int64_t idx, const Columnar::PaneAcc& pa) {
    w->PutI64(idx);
    w->PutDouble(pa.acc.sum);
    w->PutDouble(pa.acc.mx);
    w->PutDouble(pa.acc.mn);
    w->PutU64(static_cast<uint64_t>(pa.acc.n));
    w->PutDouble(pa.sic_sum);
  });
}

void AggregateOp::RestoreFrom(CheckpointReader* r) {
  ResetState();
  if (r->GetU8() == 0) {
    WindowedOperator::RestoreFrom(r);
    return;
  }
  col_ = std::make_unique<Columnar>(window().spec().range);
  col_->panes.SeedReleasedUpTo(r->GetI64());
  uint32_t n = r->GetU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    int64_t idx = r->GetI64();
    Columnar::PaneAcc* pa = col_->panes.Insert(idx);
    pa->acc.sum = r->GetDouble();
    pa->acc.mx = r->GetDouble();
    pa->acc.mn = r->GetDouble();
    pa->acc.n = static_cast<size_t>(r->GetU64());
    pa->sic_sum = r->GetDouble();
  }
}

void AggregateOp::ResetState() {
  col_.reset();
  WindowedOperator::ResetState();
}

void AggregateOp::ReleaseState(BatchPool* pool) {
  col_.reset();  // accumulators only, no tuple buffers to return
  WindowedOperator::ReleaseState(pool);
}

void AggregateOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  Accumulator acc;
  for (const Tuple& t : pane.tuples) {
    if (having_ && !having_(t)) continue;
    if (static_cast<size_t>(field_) >= t.values.size()) continue;
    acc.Add(AsDouble(t.values[field_]));
  }
  // COUNT emits even for an all-filtered pane (count 0 is a valid result);
  // other aggregates emit only when at least one tuple was aggregated.
  if (acc.n == 0 && kind_ != AggregateKind::kCount) {
    if (pane.tuples.empty()) return;
  }
  Tuple result;
  result.values.push_back(acc.Finish(kind_));
  out->push_back(std::move(result));
}

struct GroupByAggregateOp::Group {
  Accumulator acc;
};

GroupByAggregateOp::GroupByAggregateOp(AggregateKind kind, int key_field,
                                       int value_field, WindowSpec spec,
                                       double cost_us_per_tuple)
    : WindowedOperator("groupby-" + AggregateKindName(kind), spec,
                       cost_us_per_tuple),
      kind_(kind),
      key_field_(key_field),
      value_field_(value_field) {}

GroupByAggregateOp::~GroupByAggregateOp() = default;

void GroupByAggregateOp::ProcessPane(const Pane& pane,
                                     std::vector<Tuple>* out) {
  // A flat key-sorted table: each key accumulates in pane order and the
  // output is in ascending key order, as with a per-pane ordered map.
  keys_.clear();
  groups_.clear();
  for (const Tuple& t : pane.tuples) {
    if (static_cast<size_t>(key_field_) >= t.values.size() ||
        static_cast<size_t>(value_field_) >= t.values.size()) {
      continue;
    }
    const int64_t key = AsInt(t.values[key_field_]);
    const size_t i =
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin();
    if (i == keys_.size() || keys_[i] != key) {
      keys_.insert(keys_.begin() + i, key);
      groups_.insert(groups_.begin() + i, Group());
    }
    groups_[i].acc.Add(AsDouble(t.values[value_field_]));
  }
  for (size_t i = 0; i < keys_.size(); ++i) {
    Tuple result;
    result.values.push_back(keys_[i]);
    result.values.push_back(groups_[i].acc.Finish(kind_));
    out->push_back(std::move(result));
  }
}

}  // namespace themis
