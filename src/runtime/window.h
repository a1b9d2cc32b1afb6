// Window model of §3: every operator processes input atomically through a
// time or count window. WindowBuffer assembles input tuples into panes and
// releases a pane once the watermark passes its end (time windows) or once it
// is full (count windows).
#ifndef THEMIS_RUNTIME_WINDOW_H_
#define THEMIS_RUNTIME_WINDOW_H_

#include <map>
#include <vector>

#include "common/ring_buffer.h"
#include "common/time_types.h"
#include "runtime/tuple.h"

namespace themis {

class BatchPool;
class CheckpointReader;
class CheckpointWriter;

enum class WindowKind { kTumblingTime, kSlidingTime, kCount };

/// \brief Declarative window description attached to an operator.
struct WindowSpec {
  WindowKind kind = WindowKind::kTumblingTime;
  SimDuration range = kSecond;
  SimDuration slide = kSecond;  ///< only for kSlidingTime
  size_t count = 0;             ///< only for kCount

  /// `[k*range, (k+1)*range)` panes, e.g. the paper's `[Range 1 sec]`.
  static WindowSpec TumblingTime(SimDuration range);
  /// Overlapping panes of length `range`, one per `slide`.
  static WindowSpec SlidingTime(SimDuration range, SimDuration slide);
  /// Atomic emission every `n` tuples.
  static WindowSpec Count(size_t n);
};

/// \brief One closed window pane: the atomic input set T_in of an operator.
struct Pane {
  SimTime start = 0;
  SimTime end = 0;
  std::vector<Tuple> tuples;

  /// Sum of tuple SIC values, i.e. the numerator of Eq. (3).
  double TotalSic() const;
};

/// \brief Assembles tuples into panes according to a WindowSpec.
///
/// For sliding windows, a tuple logically belongs to `range/slide` panes; per
/// §6 ("SIC maintenance") its SIC value is divided across those panes so that
/// SIC mass is conserved. A late sliding tuple (older than the end of the
/// last released pane) is folded to that end, so it still lands in
/// `range/slide` unreleased panes and its SIC is not lost.
class WindowBuffer {
 public:
  explicit WindowBuffer(WindowSpec spec);

  /// Adds a tuple. Tuples older than the last released watermark are folded
  /// into the earliest still-open pane (late-data policy).
  void Add(const Tuple& t);

  /// Releases every pane whose end is <= `watermark` (time windows) or that
  /// became full (count windows), in order.
  std::vector<Pane> Advance(SimTime watermark);

  /// Hands a consumed pane's tuple buffer back for reuse by future panes,
  /// keeping pane assembly allocation-free in steady state. Callers pass the
  /// buffers of panes they got from Advance() once done with them.
  void Recycle(std::vector<Tuple>&& tuples);

  const WindowSpec& spec() const { return spec_; }
  /// Number of buffered (not yet released) tuples.
  size_t buffered() const;

  /// Serializes the complete buffer state — open/ready panes, sliding and
  /// count buffers, the release watermark — into `w` (checkpoint seam).
  void Checkpoint(CheckpointWriter* w) const;
  /// Replaces the buffer state with an image written by Checkpoint().
  /// Fully resets first; the release watermark rewinds to the image's, so
  /// panes released after capture are re-assembled and re-emitted.
  void RestoreFrom(CheckpointReader* r);
  /// Drops every buffered tuple and rewinds the release watermark, as a
  /// freshly constructed buffer would start. A null `pool` keeps the tuple
  /// buffers as spares (with their capacity); a pool receives all of them
  /// (open/ready panes, the count fill, recycled spares).
  void ResetState(BatchPool* pool);

 private:
  static constexpr size_t kMaxRecycled = 8;

  std::vector<Pane> AdvanceTumbling(SimTime watermark);
  std::vector<Pane> AdvanceSliding(SimTime watermark);
  /// A cleared tuple buffer, recycled when one is available.
  std::vector<Tuple> TakeBuffer();

  WindowSpec spec_;
  std::vector<std::vector<Tuple>> recycled_;
  // Tumbling: open panes keyed by pane index (timestamp / range).
  std::map<int64_t, Pane> open_;
  // Most batches land in the pane of the previous tuple; cache it to skip
  // the map lookup (map nodes are stable, Advance invalidates the cache).
  int64_t cached_idx_ = -1;
  Pane* cached_pane_ = nullptr;
  SimTime released_up_to_ = 0;
  // Sliding: tuples in arrival order; panes are cut at slide boundaries.
  RingBuffer<Tuple> sliding_buf_;
  SimTime next_slide_end_ = 0;
  bool slide_initialized_ = false;
  // Count: current fill + panes completed during Add().
  std::vector<Tuple> count_buf_;
  std::vector<Pane> ready_;
};

}  // namespace themis

#endif  // THEMIS_RUNTIME_WINDOW_H_
