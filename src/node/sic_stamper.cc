#include "node/sic_stamper.h"

#include <algorithm>

#include "sic/sic.h"

namespace themis {

void SicStamper::StampSourceBatch(Batch* batch, SimTime now,
                                  size_t num_sources) {
  if (batch->header.source == kInvalidId) return;
  SourceId src = batch->header.source;
  if (static_cast<size_t>(src) >= estimators_.size()) {
    estimators_.resize(src + 1);
  }
  auto& slot = estimators_[src];
  RateEstimator* est = nullptr;
  for (auto& [q, e] : slot) {
    if (q == batch->header.query_id) {
      est = &e;
      break;
    }
  }
  if (est == nullptr) {
    slot.emplace_back(batch->header.query_id, RateEstimator(stw_));
    est = &slot.back().second;
  }
  est->Observe(now, batch->size());
  double per_stw = est->TuplesPerStw(now);
  double sic = SourceTupleSic(per_stw, num_sources);
  // Stamp and refresh the header in one pass. The sum loop (rather than
  // sic * n) reproduces RefreshHeaderSic()'s exact rounding so shedding
  // decisions — and therefore figure outputs — stay bit-identical.
  double sum = 0.0;
  for (Tuple& t : batch->tuples) {
    t.sic = sic;
    sum += sic;
  }
  batch->header.sic = sum;
}

void SicStamper::RemoveQuery(QueryId q) {
  for (auto& slot : estimators_) {
    std::erase_if(slot, [q](const auto& entry) { return entry.first == q; });
  }
}

}  // namespace themis
