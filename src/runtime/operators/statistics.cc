#include "runtime/operators/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "runtime/checkpoint.h"

namespace themis {

namespace {

// Collects the numeric values of `field` over a pane into `*xs`, the
// operator's scratch (cleared first, capacity kept); skips short payloads.
std::vector<double>& FieldValues(const Pane& pane, int field,
                                 std::vector<double>* xs) {
  xs->clear();
  for (const Tuple& t : pane.tuples) {
    if (static_cast<size_t>(field) < t.values.size()) {
      xs->push_back(AsDouble(t.values[field]));
    }
  }
  return *xs;
}

// Builds the operator name ("q50", "q99", ...) via append rather than
// `const char* + std::string&&`, whose libstdc++ insert path trips a GCC 12
// -Wrestrict false positive at -O2 (GCC PR 105329).
std::string QuantileOpName(double q) {
  std::string name = "q";
  name += std::to_string(static_cast<int>(q * 100));
  return name;
}

}  // namespace

VarianceOp::VarianceOp(int field, WindowSpec spec, double cost_us_per_tuple)
    : WindowedOperator("variance", spec, cost_us_per_tuple), field_(field) {}

void VarianceOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  const std::vector<double>& xs = FieldValues(pane, field_, &scratch_);
  if (xs.empty()) return;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  Tuple result;
  result.values.push_back(var);
  out->push_back(std::move(result));
}

QuantileOp::QuantileOp(double q, int field, WindowSpec spec,
                       double cost_us_per_tuple)
    : WindowedOperator(QuantileOpName(q), spec, cost_us_per_tuple),
      q_(q),
      field_(field) {}

void QuantileOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  std::vector<double>& xs = FieldValues(pane, field_, &scratch_);
  if (xs.empty()) return;
  // Nearest-rank definition: the ceil(q*n)-th smallest value.
  size_t rank = static_cast<size_t>(
      std::ceil(q_ * static_cast<double>(xs.size())));
  rank = std::clamp<size_t>(rank, 1, xs.size());
  std::nth_element(xs.begin(), xs.begin() + (rank - 1), xs.end());
  Tuple result;
  result.values.push_back(xs[rank - 1]);
  out->push_back(std::move(result));
}

DistinctCountOp::DistinctCountOp(int key_field, WindowSpec spec,
                                 double cost_us_per_tuple)
    : WindowedOperator("distinct", spec, cost_us_per_tuple),
      key_field_(key_field) {}

void DistinctCountOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  if (pane.tuples.empty()) return;
  std::unordered_set<int64_t> keys;
  for (const Tuple& t : pane.tuples) {
    if (static_cast<size_t>(key_field_) < t.values.size()) {
      keys.insert(AsInt(t.values[key_field_]));
    }
  }
  Tuple result;
  result.values.push_back(static_cast<int64_t>(keys.size()));
  out->push_back(std::move(result));
}

EwmaOp::EwmaOp(double alpha, int field, WindowSpec spec,
               double cost_us_per_tuple)
    : WindowedOperator("ewma", spec, cost_us_per_tuple),
      alpha_(alpha),
      field_(field) {}

void EwmaOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  const std::vector<double>& xs = FieldValues(pane, field_, &scratch_);
  if (xs.empty()) return;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  if (!initialised_) {
    state_ = mean;
    initialised_ = true;
  } else {
    state_ = alpha_ * mean + (1.0 - alpha_) * state_;
  }
  Tuple result;
  result.values.push_back(state_);
  out->push_back(std::move(result));
}

void EwmaOp::Checkpoint(CheckpointWriter* w) const {
  WindowedOperator::Checkpoint(w);
  w->PutDouble(state_);
  w->PutU8(initialised_ ? 1 : 0);
}

void EwmaOp::RestoreFrom(CheckpointReader* r) {
  WindowedOperator::RestoreFrom(r);
  state_ = r->GetDouble();
  initialised_ = r->GetU8() != 0;
}

void EwmaOp::ResetState(BatchPool* pool) {
  WindowedOperator::ResetState(pool);
  state_ = 0.0;
  initialised_ = false;
}

DeltaOp::DeltaOp(int field, WindowSpec spec, double cost_us_per_tuple)
    : WindowedOperator("delta", spec, cost_us_per_tuple), field_(field) {}

void DeltaOp::Checkpoint(CheckpointWriter* w) const {
  WindowedOperator::Checkpoint(w);
  w->PutDouble(previous_);
  w->PutU8(has_previous_ ? 1 : 0);
}

void DeltaOp::RestoreFrom(CheckpointReader* r) {
  WindowedOperator::RestoreFrom(r);
  previous_ = r->GetDouble();
  has_previous_ = r->GetU8() != 0;
}

void DeltaOp::ResetState(BatchPool* pool) {
  WindowedOperator::ResetState(pool);
  previous_ = 0.0;
  has_previous_ = false;
}

void DeltaOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  const std::vector<double>& xs = FieldValues(pane, field_, &scratch_);
  if (xs.empty()) return;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  if (has_previous_) {
    Tuple result;
    result.values.push_back(mean - previous_);
    out->push_back(std::move(result));
  }
  previous_ = mean;
  has_previous_ = true;
}

}  // namespace themis
