// Growable FIFO queue over a power-of-two ring of reusable slots. Once the
// ring has grown to its peak, pushes and pops make no allocation and chase
// no deque blocks; the capacity stays below twice the peak number of live
// elements. Used for per-source arrival samples (RateEstimator) and for
// sliding-window tuple buffers (WindowBuffer).
#ifndef THEMIS_COMMON_RING_BUFFER_H_
#define THEMIS_COMMON_RING_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace themis {

/// \brief FIFO queue in a power-of-two ring.
///
/// A popped slot keeps its element until a later push assigns over it, so
/// `T` must be default-constructible and copy-assignable.
template <typename T>
class RingBuffer {
 public:
  void push_back(const T& v) {
    if (size_ == slots_.size()) Grow();
    slots_[(head_ + size_) & mask()] = v;
    ++size_;
  }
  /// Requires !empty().
  void pop_front() {
    head_ = (head_ + 1) & mask();
    --size_;
  }
  const T& front() const { return slots_[head_]; }
  T& back() { return slots_[(head_ + size_ - 1) & mask()]; }
  /// The `i`-th oldest element.
  const T& operator[](size_t i) const { return slots_[(head_ + i) & mask()]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Calls `fn(element)` on every element, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t first = std::min(size_, slots_.size() - head_);
    for (size_t i = 0; i < first; ++i) fn(slots_[head_ + i]);
    for (size_t i = 0; i < size_ - first; ++i) fn(slots_[i]);
  }

  /// Drops every element; the slots are kept for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }
  /// Drops every element and frees the slots.
  void Release() {
    clear();
    slots_ = {};
  }

 private:
  static constexpr size_t kMinCapacity = 64;

  size_t mask() const { return slots_.size() - 1; }

  void Grow() {
    std::vector<T> next(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask()]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two capacity
  size_t head_ = 0;       // index of the oldest element
  size_t size_ = 0;       // live elements
};

}  // namespace themis

#endif  // THEMIS_COMMON_RING_BUFFER_H_
