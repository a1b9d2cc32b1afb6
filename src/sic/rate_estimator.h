// Online estimation of |T_s^S|, the number of tuples a source generates per
// source time window. Relaxes Assumption 2 of §5.1: rates are unknown and
// time-varying, so THEMIS counts arrivals over the sliding STW (§6, "SIC
// maintenance").
#ifndef THEMIS_SIC_RATE_ESTIMATOR_H_
#define THEMIS_SIC_RATE_ESTIMATOR_H_

#include <cstddef>

#include "common/ring_buffer.h"
#include "common/time_types.h"

namespace themis {

/// \brief Sliding-window arrival counter for one source.
///
/// Samples live in a power-of-two ring buffer: one estimator runs per
/// (query, source) pair and is fed on every batch arrival, so the window
/// maintenance must neither allocate nor chase deque blocks in steady
/// state.
class RateEstimator {
 public:
  /// \param stw source time window duration the estimate is expressed in
  explicit RateEstimator(SimDuration stw) : stw_(stw) {}

  /// Records `count` tuples arriving at simulated time `now`.
  void Observe(SimTime now, size_t count);

  /// Estimated tuples per STW as of `now`.
  ///
  /// While fewer than one full STW of history exists, the observed count is
  /// extrapolated linearly so early estimates are unbiased for constant-rate
  /// sources. The extrapolation denominator is clamped to
  /// `kMinExtrapolationElapsed` so two near-coincident samples cannot blow
  /// the estimate up by orders of magnitude.
  double TuplesPerStw(SimTime now) const;

  /// Extrapolation floor: an observation span shorter than this is treated
  /// as this long (1 ms), bounding the cold-start scale factor at
  /// stw / 1 ms instead of stw / 1 us.
  static constexpr SimDuration kMinExtrapolationElapsed = Millis(1);

  SimDuration stw() const { return stw_; }

 private:
  struct Sample {
    SimTime time;
    size_t count;
  };

  void Prune(SimTime now);

  SimDuration stw_;
  RingBuffer<Sample> ring_;
  size_t in_window_ = 0;
  // Start of the current observation epoch. Reset after an idle gap of at
  // least one STW (a source pausing and rejoining, a node recovering): the
  // stale epoch start would otherwise pin `elapsed >= stw` and disable the
  // warm-up extrapolation forever, so the first estimates after the gap
  // would be one raw batch per window — skewing the first overload
  // decision after a rejoin.
  SimTime first_observation_ = -1;
  SimTime last_observation_ = -1;
};

}  // namespace themis

#endif  // THEMIS_SIC_RATE_ESTIMATOR_H_
