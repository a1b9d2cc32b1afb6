// Free-list of batch buffers. Batches are the unit of transfer on the
// data plane: a node receives, processes, drops (sheds) and re-emits
// thousands of batches per simulated second, and without recycling every one
// of them costs an allocation. BatchPool keeps the tuple buffers of retired
// batches and hands their capacity to the next Acquire(), so batch churn is
// allocation-free in steady state.
#ifndef THEMIS_RUNTIME_BATCH_POOL_H_
#define THEMIS_RUNTIME_BATCH_POOL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/batch.h"

namespace themis {

/// \brief Recycles Batch buffers. Single-threaded, like the simulator.
class BatchPool {
 public:
  /// Free-list occupancy and recycle counters, exported as `infra.pool.*`
  /// telemetry (see PoolTelemetry in node/telemetry_hooks.h). `*_hits` /
  /// `*_misses` count Acquire calls served from / past the free list;
  /// `*_released` buffers returned; `*_evicted` returns dropped because the
  /// list was full; `*_pooled` / `*_peak` current and high-water occupancy.
  /// The `row_` prefix is part of the exported metric names.
  struct Stats {
    uint64_t row_hits = 0;
    uint64_t row_misses = 0;
    uint64_t row_released = 0;
    uint64_t row_evicted = 0;
    size_t row_pooled = 0;
    size_t row_peak = 0;
  };

  /// \param max_pooled retired buffers kept at most (excess ones are freed)
  explicit BatchPool(size_t max_pooled = 4096) : max_pooled_(max_pooled) {}

  BatchPool(const BatchPool&) = delete;
  BatchPool& operator=(const BatchPool&) = delete;

  /// Returns an empty batch with a default header. Its tuple buffer reuses
  /// the capacity of a previously released batch when one is available.
  Batch Acquire() {
    Batch b;
    if (!free_.empty()) {
      b.tuples = std::move(free_.back());
      free_.pop_back();
      ++stats_.row_hits;
    } else {
      ++stats_.row_misses;
    }
    return b;
  }

  /// Retires `b`, keeping its tuple buffer for future Acquire calls. The
  /// buffer is cleared but keeps its capacity.
  void Release(Batch&& b) { ReleaseTuples(std::move(b.tuples)); }

  /// Same, for a bare tuple buffer.
  void ReleaseTuples(std::vector<Tuple>&& tuples) {
    if (tuples.capacity() == 0) return;
    if (free_.size() >= max_pooled_) {
      ++stats_.row_evicted;
      return;
    }
    tuples.clear();
    free_.push_back(std::move(tuples));
    ++stats_.row_released;
    if (free_.size() > stats_.row_peak) stats_.row_peak = free_.size();
  }

  /// Snapshot of the recycle counters with current occupancy filled in.
  Stats stats() const {
    Stats s = stats_;
    s.row_pooled = free_.size();
    return s;
  }

  size_t pooled() const { return free_.size(); }
  /// Acquire() calls served from the free list / from the allocator.
  uint64_t hits() const { return stats_.row_hits; }
  uint64_t misses() const { return stats_.row_misses; }

 private:
  std::vector<std::vector<Tuple>> free_;
  size_t max_pooled_;
  Stats stats_;
};

}  // namespace themis

#endif  // THEMIS_RUNTIME_BATCH_POOL_H_
