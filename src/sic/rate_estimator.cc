#include "sic/rate_estimator.h"

#include <algorithm>

namespace themis {

void RateEstimator::Observe(SimTime now, size_t count) {
  if (first_observation_ < 0 ||
      (last_observation_ >= 0 && now - last_observation_ >= stw_)) {
    // Cold start, or an idle gap at least one window wide (every prior
    // sample is stale): restart the observation epoch so the warm-up
    // extrapolation applies to the post-gap rate.
    first_observation_ = now;
  }
  last_observation_ = now;
  ring_.push_back({now, count});
  in_window_ += count;
  Prune(now);
}

void RateEstimator::Prune(SimTime now) {
  SimTime horizon = now - stw_;
  while (!ring_.empty() && ring_.front().time <= horizon) {
    in_window_ -= ring_.front().count;
    ring_.pop_front();
  }
}

double RateEstimator::TuplesPerStw(SimTime now) const {
  if (ring_.empty() || first_observation_ < 0) return 0.0;
  SimTime elapsed = now - first_observation_;
  // Count arrivals currently inside (now - stw, now]. The common caller
  // (node ingress) asks at the same `now` it just observed at, so the whole
  // ring is in-window and the maintained sum answers in O(1); the scan only
  // runs when `now` moved past stale samples. Counts are small integers, so
  // the integer sum and the double sum are bit-identical.
  SimTime horizon = now - stw_;
  double count;
  if (ring_.front().time > horizon) {
    count = static_cast<double>(in_window_);
  } else {
    count = 0.0;
    for (size_t i = ring_.size(); i > 0; --i) {
      const Sample& s = ring_[i - 1];
      if (s.time <= horizon) break;
      count += static_cast<double>(s.count);
    }
  }
  if (elapsed <= 0) {
    // Single instantaneous observation: the best available estimate is the
    // batch itself scaled to a full window, which we cannot compute without a
    // rate; report the raw count (first slide will correct it).
    return count;
  }
  if (elapsed < stw_) {
    // Clamped warm-up extrapolation: real inter-batch spacings (>= 100 ms in
    // every workload model) are far above the floor, so steady operation is
    // untouched; only pathological near-coincident samples are bounded.
    SimTime span = std::max(elapsed, kMinExtrapolationElapsed);
    return count * static_cast<double>(stw_) / static_cast<double>(span);
  }
  return count;
}

}  // namespace themis
