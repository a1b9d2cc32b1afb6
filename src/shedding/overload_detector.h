// Overload detector of §6: a node is overloaded when the number of tuples
// waiting in its input buffer exceeds the threshold c given by the cost
// model.
#ifndef THEMIS_SHEDDING_OVERLOAD_DETECTOR_H_
#define THEMIS_SHEDDING_OVERLOAD_DETECTOR_H_

#include <cstddef>

namespace themis {

/// True when `ib_tuples` exceeds the capacity `capacity` (tuples per
/// shedding interval).
inline bool IsOverloaded(size_t ib_tuples, size_t capacity) {
  return ib_tuples > capacity;
}

}  // namespace themis

#endif  // THEMIS_SHEDDING_OVERLOAD_DETECTOR_H_
