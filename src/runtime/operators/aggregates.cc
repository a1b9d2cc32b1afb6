#include "runtime/operators/aggregates.h"

#include <algorithm>
#include <limits>

#include "runtime/checkpoint.h"

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

AggregateOp::AggregateOp(AggregateKind kind, int field, WindowSpec spec,
                         std::function<bool(const Tuple&)> having,
                         double cost_us_per_tuple)
    : WindowedOperator(AggregateKindName(kind), spec, cost_us_per_tuple),
      kind_(kind),
      field_(field),
      having_(std::move(having)) {}

void AggregateOp::Checkpoint(CheckpointWriter* w) const {
  w->PutU8(0);
  WindowedOperator::Checkpoint(w);
}

void AggregateOp::RestoreFrom(CheckpointReader* r) {
  r->GetU8();  // format tag
  WindowedOperator::RestoreFrom(r);
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
