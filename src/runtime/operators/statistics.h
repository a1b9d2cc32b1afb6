// Statistical operators beyond the basic aggregates: variance, quantiles,
// distinct counts, EWMA smoothing and deltas. These extend the black-box
// operator library the fairness machinery is exercised against (the paper's
// motivation explicitly includes "customised, user-defined" operators).
#ifndef THEMIS_RUNTIME_OPERATORS_STATISTICS_H_
#define THEMIS_RUNTIME_OPERATORS_STATISTICS_H_

#include <vector>

#include "runtime/operator.h"

namespace themis {

/// \brief Per-pane population variance of one field; emits a single tuple.
class VarianceOp : public WindowedOperator {
 public:
  VarianceOp(int field, WindowSpec spec, double cost_us_per_tuple = 1.2);

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  int field_;
  std::vector<double> scratch_;  // FieldValues() buffer, reused per pane
};

/// \brief Per-pane quantile (nearest-rank) of one field.
class QuantileOp : public WindowedOperator {
 public:
  /// \param q quantile in [0, 1]; 0.5 = median
  QuantileOp(double q, int field, WindowSpec spec,
             double cost_us_per_tuple = 1.8);

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  double q_;
  int field_;
  std::vector<double> scratch_;  // FieldValues() buffer, reused per pane
};

/// \brief Per-pane count of distinct integer keys.
class DistinctCountOp : public WindowedOperator {
 public:
  DistinctCountOp(int key_field, WindowSpec spec,
                  double cost_us_per_tuple = 1.2);

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  int key_field_;
};

/// \brief Exponentially weighted moving average of per-pane means.
///
/// Stateful across panes: emits one tuple per pane carrying the updated
/// EWMA. A pane with no tuples emits nothing and leaves the state untouched.
class EwmaOp : public WindowedOperator {
 public:
  EwmaOp(double alpha, int field, WindowSpec spec,
         double cost_us_per_tuple = 0.8);

  // Checkpoint seam: the EWMA scalar crosses panes, so it rides the image
  // after the base window state.
  void Checkpoint(CheckpointWriter* w) const override;
  void RestoreFrom(CheckpointReader* r) override;
  void ResetState(BatchPool* pool) override;

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  double alpha_;
  int field_;
  double state_ = 0.0;
  bool initialised_ = false;
  std::vector<double> scratch_;  // FieldValues() buffer, reused per pane
};

/// \brief Difference between consecutive pane means (discrete derivative).
///
/// Emits nothing for the first non-empty pane (no predecessor).
class DeltaOp : public WindowedOperator {
 public:
  DeltaOp(int field, WindowSpec spec, double cost_us_per_tuple = 0.8);

  // Checkpoint seam: the previous-pane mean crosses panes (see EwmaOp).
  void Checkpoint(CheckpointWriter* w) const override;
  void RestoreFrom(CheckpointReader* r) override;
  void ResetState(BatchPool* pool) override;

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  int field_;
  double previous_ = 0.0;
  bool has_previous_ = false;
  std::vector<double> scratch_;  // FieldValues() buffer, reused per pane
};

}  // namespace themis

#endif  // THEMIS_RUNTIME_OPERATORS_STATISTICS_H_
