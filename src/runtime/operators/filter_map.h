// Tuple-level selection and transformation operators.
#ifndef THEMIS_RUNTIME_OPERATORS_FILTER_MAP_H_
#define THEMIS_RUNTIME_OPERATORS_FILTER_MAP_H_

#include <functional>

#include "runtime/operator.h"

namespace themis {

/// \brief Windowed selection: passes the pane tuples matching a predicate.
///
/// Per Eq. (3) the SIC mass of the whole pane is redistributed over the
/// passing tuples — a semantic drop is not a shed, the dropped tuples *were*
/// processed. If nothing passes, the pane's SIC mass is lost to the result
/// (qSIC < 1 even without shedding), which is inherent to the metric.
class FilterOp : public WindowedOperator {
 public:
  FilterOp(std::function<bool(const Tuple&)> predicate, WindowSpec spec,
           double cost_us_per_tuple = 0.6);

  // Checkpoint seam, with AggregateOp's format tag byte (see aggregates.h).
  void Checkpoint(CheckpointWriter* w) const override;
  void RestoreFrom(CheckpointReader* r) override;

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  std::function<bool(const Tuple&)> predicate_;
};

/// \brief Per-tuple payload transformation (projection, arithmetic, rename).
class MapOp : public WindowedOperator {
 public:
  /// \param fn transformation applied to each pane tuple's payload; the
  ///        returned payload replaces the tuple's values.
  MapOp(std::function<ValueList(const Tuple&)> fn, WindowSpec spec,
        double cost_us_per_tuple = 0.6);

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  std::function<ValueList(const Tuple&)> fn_;
};

}  // namespace themis

#endif  // THEMIS_RUNTIME_OPERATORS_FILTER_MAP_H_
