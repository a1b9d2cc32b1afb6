// Operator-state checkpointing: the serialization seam behind
// Operator::Checkpoint()/RestoreFrom() plus the per-node image store the
// federation restores re-placed fragments from (ROADMAP item 4, after
// Cheng, Huang & Lee's approximate fault tolerance).
//
// Semantics: a checkpoint is a byte-exact image of an operator's mutable
// state (window panes, incremental accumulators, cross-pane scalars) at
// capture time. Restoring an image taken at time T after panes in
// (T, crash] were already released re-emits those panes — there is no
// source replay — so the duplication/loss divergence is bounded by the
// checkpoint cadence plus the window range. The approximate mode shrinks
// capture cost further: an operator whose accumulated ingested SIC mass
// since its last image ("dirt") is at or below `error_bound` keeps the old
// image, bounding the extra divergence by that mass.
//
// Images are in-process byte buffers (Value is 16 bytes and trivially
// copyable, and interned string ids stay valid for the process lifetime),
// standing in for a durable backup store: Node keeps its CheckpointStore
// across Crash()/Restore(), which is exactly the upstream-backup model.
// Capture does zero *simulated* work, like telemetry, so enabling
// checkpoints never perturbs the event schedule: a capture-only run is
// bit-identical to a checkpoint-off run, and run-to-run bit-identity holds
// with the feature on.
#ifndef THEMIS_RUNTIME_CHECKPOINT_H_
#define THEMIS_RUNTIME_CHECKPOINT_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/time_types.h"
#include "runtime/ids.h"
#include "runtime/tuple.h"

namespace themis {

class Operator;

/// \brief Append-only byte sink an operator serializes its state into.
///
/// All scalars are written by memcpy of their in-memory representation
/// (doubles bit-exact); Tuples write timestamp, sic and each Value in a
/// canonical kind-tagged form (copies need not preserve a Value's padding
/// bytes, so raw 16-byte images would not survive a restore + re-capture
/// byte-identically). Images never leave the process, so no endianness or
/// versioning concerns apply.
///
/// A writer either fills its own buffer (Take() hands it out) or rewrites a
/// caller's buffer in place, keeping its capacity: re-capturing an image no
/// larger than the last one allocates nothing. A run of tuples is sized once
/// and encoded with memcpy into one extension of the buffer.
class CheckpointWriter {
 public:
  CheckpointWriter() : buf_(&own_) {}
  /// Clears `*out` and appends to it; `out` must outlive the writer.
  explicit CheckpointWriter(std::vector<uint8_t>* out) : buf_(out) {
    buf_->clear();
  }
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  void PutU8(uint8_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutRaw(const void* p, size_t n) { std::memcpy(Extend(n), p, n); }
  void PutTuple(const Tuple& t);
  /// A u32 count, then each tuple as PutTuple writes it.
  void PutTuples(const std::vector<Tuple>& tuples);

  const std::vector<uint8_t>& bytes() const { return *buf_; }
  std::vector<uint8_t> Take() { return std::move(*buf_); }

 private:
  /// Grows the buffer by `n` bytes and returns where they start. A buffer
  /// that must grow gets half again what is needed: a tuple run is sized
  /// exactly, and doubling on the small write after it would leave the
  /// image's buffer at twice the image.
  uint8_t* Extend(size_t n) {
    size_t at = buf_->size();
    if (at + n > buf_->capacity()) buf_->reserve((at + n) * 3 / 2);
    buf_->resize(at + n);
    return buf_->data() + at;
  }

  std::vector<uint8_t> own_;
  std::vector<uint8_t>* buf_;
};

/// \brief Cursor over a checkpoint image. Overruns set ok() to false and
/// return zero values instead of reading past the end, so a malformed
/// image degrades to empty state rather than undefined behaviour. Counts
/// read from the image are never trusted for allocation: a reserve is
/// clamped to what the remaining bytes can encode.
class CheckpointReader {
 public:
  explicit CheckpointReader(const std::vector<uint8_t>& bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  uint8_t GetU8() { return Get<uint8_t>(); }
  uint32_t GetU32() { return Get<uint32_t>(); }
  uint64_t GetU64() { return Get<uint64_t>(); }
  int64_t GetI64() { return Get<int64_t>(); }
  double GetDouble() { return Get<double>(); }
  Tuple GetTuple();
  void GetTuples(std::vector<Tuple>* out);

  bool AtEnd() const { return p_ == end_; }
  bool ok() const { return ok_; }

 private:
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  template <typename T>
  T Get() {
    T v{};
    if (remaining() < sizeof(T)) {
      ok_ = false;
      p_ = end_;
      return v;
    }
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

/// Checkpointing knobs, shared by the DES Node and the realtime
/// ServerPipeline. Off by default: zero captures, zero stored bytes, every
/// pre-existing figure byte-identical.
struct CheckpointConfig {
  bool enabled = false;
  /// Minimum time between capture sweeps of a node's hosted operators.
  /// Captures ride the shed tick (they run right after the window pump, when
  /// state is freshest), so the effective cadence is this rounded up to the
  /// next tick.
  SimDuration cadence = Millis(500);
  /// Approximate mode (> 0): an operator whose ingested SIC mass since its
  /// last image is <= this keeps the old image instead of re-serializing.
  /// 0 re-captures on any new input (exact-at-cadence).
  double error_bound = 0.0;
};

/// \brief Per-node table of the latest image per (query, operator).
///
/// Dense: indexed by QueryId, then OperatorId (both count up from 0 within
/// their scope), so the capture sweep reaches an operator's image with one
/// index per level. A slot keeps its byte buffer between captures.
class CheckpointStore {
 public:
  struct Entry {
    std::vector<uint8_t> bytes;
    SimTime taken_at = 0;
    bool present = false;  ///< holds an image (else never taken, moved away)
  };
  /// Capture/restore counters, exported as `infra.ckpt.*` telemetry.
  struct Stats {
    uint64_t taken = 0;          ///< images (re)written
    uint64_t skipped_clean = 0;  ///< capture skipped: dirt <= error_bound
    uint64_t restores = 0;       ///< operators restored from an image
    uint64_t missed = 0;         ///< no usable image (none or torn): reset
    uint64_t bytes_written = 0;  ///< cumulative serialized bytes
  };

  void Put(QueryId q, OperatorId op, std::vector<uint8_t> bytes, SimTime now) {
    Entry& e = Slot(q, op);
    e.bytes = std::move(bytes);
    Commit(&e, now);
  }

  const Entry* Find(QueryId q, OperatorId op) const {
    if (static_cast<size_t>(q) >= table_.size()) return nullptr;
    const std::vector<Entry>& row = table_[q];
    if (static_cast<size_t>(op) >= row.size()) return nullptr;
    return row[op].present ? &row[op] : nullptr;
  }

  /// The slot of (q, op), grown into the table on first use (absent until
  /// Commit). A capture rewrites `bytes` in place, then commits.
  Entry& Slot(QueryId q, OperatorId op) {
    if (static_cast<size_t>(q) >= table_.size()) {
      table_.resize(static_cast<size_t>(q) + 1);
    }
    std::vector<Entry>& row = table_[q];
    if (static_cast<size_t>(op) >= row.size()) {
      row.resize(static_cast<size_t>(op) + 1);
    }
    return row[op];
  }
  /// Marks `e` (a Slot) as holding the image in its `bytes`, taken at `now`.
  void Commit(Entry* e, SimTime now) {
    e->present = true;
    e->taken_at = now;
    stats_.bytes_written += e->bytes.size();
    stats_.taken += 1;
  }

  /// Hands operator `op`'s image over to `dst` (fragment re-placement moves
  /// the backup with the fragment). No-op when there is none.
  void MoveEntry(QueryId q, OperatorId op, CheckpointStore* dst) {
    if (Find(q, op) == nullptr) return;
    dst->Slot(q, op) = std::move(table_[q][op]);
    table_[q][op] = Entry{};
  }

  /// Drops every image of query `q` (undeploy).
  void EraseQuery(QueryId q) {
    if (static_cast<size_t>(q) < table_.size()) {
      table_[q] = std::vector<Entry>();
    }
  }

  /// Images currently held.
  size_t size() const {
    size_t n = 0;
    for (const std::vector<Entry>& row : table_) {
      for (const Entry& e : row) n += e.present ? 1 : 0;
    }
    return n;
  }
  /// Bytes currently resident across all images.
  size_t resident_bytes() const {
    size_t n = 0;
    for (const std::vector<Entry>& row : table_) {
      for (const Entry& e : row) n += e.present ? e.bytes.size() : 0;
    }
    return n;
  }

  const Stats& stats() const { return stats_; }
  Stats* mutable_stats() { return &stats_; }

 private:
  std::vector<std::vector<Entry>> table_;  // [QueryId][OperatorId]
  Stats stats_;
};

/// Captures `op` into `store` unless its dirt is within `error_bound` of
/// the existing image (approximate mode; a first image is always taken).
/// The image is rewritten into the slot's own buffer, which keeps its
/// capacity unless that exceeds twice the new image. Returns true when an
/// image was (re)written. Does zero simulated work.
bool MaybeCheckpointOperator(Operator* op, QueryId q, SimTime now,
                             double error_bound, CheckpointStore* store);

/// Restores `op` from its image in `store`, or resets it when there is no
/// usable image — none, or one the reader fails on (torn or malformed) —
/// counted as `missed`. Returns true when the image restored.
bool RestoreOrResetOperator(Operator* op, QueryId q, CheckpointStore* store);

}  // namespace themis

#endif  // THEMIS_RUNTIME_CHECKPOINT_H_
