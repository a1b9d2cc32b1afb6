// Windowed aggregate operators: AVG, MAX, MIN, SUM, COUNT (with optional
// HAVING predicate) and GROUP-BY aggregation — the operator set of the
// Table 1 workloads.
#ifndef THEMIS_RUNTIME_OPERATORS_AGGREGATES_H_
#define THEMIS_RUNTIME_OPERATORS_AGGREGATES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/operator.h"

namespace themis {

/// Aggregate function selector shared by AggregateOp and GroupByAggregateOp.
enum class AggregateKind { kAvg, kMax, kMin, kSum, kCount };

/// \brief Single-field windowed aggregate producing one tuple per pane.
///
/// Output payload: a single double (the aggregate). Per Eq. (3) the output
/// tuple carries the full SIC mass of the pane.
class AggregateOp : public WindowedOperator {
 public:
  /// \param kind aggregate function
  /// \param field index of the aggregated field in the input payload
  /// \param spec window specification
  /// \param having optional predicate applied to input tuples before
  ///        aggregation (the paper's `Having t.v >= 50` COUNT query)
  AggregateOp(AggregateKind kind, int field, WindowSpec spec,
              std::function<bool(const Tuple&)> having = nullptr,
              double cost_us_per_tuple = 1.0);

  AggregateKind kind() const { return kind_; }

  // Checkpoint seam: the window's image behind a leading format tag byte,
  // always 0, so image bytes stay stable.
  void Checkpoint(CheckpointWriter* w) const override;
  void RestoreFrom(CheckpointReader* r) override;

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  AggregateKind kind_;
  int field_;
  std::function<bool(const Tuple&)> having_;
};

/// \brief Per-group windowed aggregate producing one tuple per group.
///
/// Output payload: (group key, aggregate value). Used inside the TOP-5
/// fragments to compute per-node CPU/memory averages.
class GroupByAggregateOp : public WindowedOperator {
 public:
  /// \param key_field index of the grouping key (int64) in the input payload
  /// \param value_field index of the aggregated field
  GroupByAggregateOp(AggregateKind kind, int key_field, int value_field,
                     WindowSpec spec, double cost_us_per_tuple = 1.5);
  ~GroupByAggregateOp() override;

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  struct Group;  // one key's accumulator (defined in the .cc)

  AggregateKind kind_;
  int key_field_;
  int value_field_;
  // The pane's group keys in ascending order and their groups, reused
  // across panes so ProcessPane does not allocate in steady state. The
  // keys are a separate dense array to keep the binary search cheap.
  std::vector<int64_t> keys_;
  std::vector<Group> groups_;
};

/// Human-readable name ("avg", "max", ...) for diagnostics.
std::string AggregateKindName(AggregateKind kind);

}  // namespace themis

#endif  // THEMIS_RUNTIME_OPERATORS_AGGREGATES_H_
