#include "runtime/operators/topk.h"

#include <algorithm>

namespace themis {

TopKOp::TopKOp(size_t k, int value_field, int key_field, WindowSpec spec,
               double cost_us_per_tuple)
    : WindowedOperator("top" + std::to_string(k), spec, cost_us_per_tuple),
      k_(k),
      value_field_(value_field),
      key_field_(key_field) {}

void TopKOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  ranked_.clear();
  for (const Tuple& t : pane.tuples) {
    if (static_cast<size_t>(value_field_) >= t.values.size() ||
        static_cast<size_t>(key_field_) >= t.values.size()) {
      continue;
    }
    ranked_.push_back(&t);
  }
  // Bounded selection: only the first k positions are ordered, O(n log k).
  const size_t take = std::min(k_, ranked_.size());
  std::partial_sort(ranked_.begin(), ranked_.begin() + take, ranked_.end(),
                    [this](const Tuple* a, const Tuple* b) {
                      double va = AsDouble(a->values[value_field_]);
                      double vb = AsDouble(b->values[value_field_]);
                      if (va != vb) return va > vb;
                      return AsInt(a->values[key_field_]) <
                             AsInt(b->values[key_field_]);
                    });
  for (size_t i = 0; i < take; ++i) {
    Tuple copy = *ranked_[i];
    copy.timestamp = 0;
    out->push_back(std::move(copy));
  }
}

}  // namespace themis
