// Top-k selection (the TOP-5 query of Table 1).
#ifndef THEMIS_RUNTIME_OPERATORS_TOPK_H_
#define THEMIS_RUNTIME_OPERATORS_TOPK_H_

#include <vector>

#include "runtime/operator.h"

namespace themis {

/// \brief Emits the k pane tuples with the largest value field, descending.
///
/// Ties break on the smaller key to keep output deterministic. Tuples that
/// lack the value or the key field are skipped. Output payloads are copies
/// of the selected input payloads; an output rank field is not added (result
/// comparisons use Kendall's distance over the id order, matching §7.1).
class TopKOp : public WindowedOperator {
 public:
  /// \param k number of tuples to keep
  /// \param value_field index of the ranking value in input payloads
  /// \param key_field index of the id used for deterministic tie-breaks
  TopKOp(size_t k, int value_field, int key_field, WindowSpec spec,
         double cost_us_per_tuple = 1.5);

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override;

 private:
  size_t k_;
  int value_field_;
  int key_field_;
  // Per-pane ranking scratch, reused so ProcessPane does not allocate in
  // steady state.
  std::vector<const Tuple*> ranked_;
};

}  // namespace themis

#endif  // THEMIS_RUNTIME_OPERATORS_TOPK_H_
