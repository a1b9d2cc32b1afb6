#include "runtime/operators/filter_map.h"

#include "runtime/checkpoint.h"

namespace themis {

FilterOp::FilterOp(std::function<bool(const Tuple&)> predicate, WindowSpec spec,
                   double cost_us_per_tuple)
    : WindowedOperator("filter", spec, cost_us_per_tuple),
      predicate_(std::move(predicate)) {}

void FilterOp::Checkpoint(CheckpointWriter* w) const {
  w->PutU8(0);
  WindowedOperator::Checkpoint(w);
}

void FilterOp::RestoreFrom(CheckpointReader* r) {
  r->GetU8();  // format tag
  WindowedOperator::RestoreFrom(r);
}

void FilterOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  for (const Tuple& t : pane.tuples) {
    if (predicate_(t)) {
      Tuple copy = t;
      copy.timestamp = 0;  // base assigns pane end + Eq. (3) SIC share
      out->push_back(std::move(copy));
    }
  }
}

MapOp::MapOp(std::function<ValueList(const Tuple&)> fn, WindowSpec spec,
             double cost_us_per_tuple)
    : WindowedOperator("map", spec, cost_us_per_tuple), fn_(std::move(fn)) {}

void MapOp::ProcessPane(const Pane& pane, std::vector<Tuple>* out) {
  for (const Tuple& t : pane.tuples) {
    Tuple derived;
    derived.values = fn_(t);
    out->push_back(std::move(derived));
  }
}

}  // namespace themis
