#include "runtime/checkpoint.h"

#include <algorithm>

#include "runtime/operator.h"

namespace themis {

namespace {

// Values serialize canonically per kind — kind tag plus the active union
// member only. Copying a Value need not preserve its 7 padding bytes (or
// the union bytes beyond a 4-byte string id), so a raw 16-byte memcpy
// image would differ after a restore + re-capture round trip even though
// the value is identical; the canonical form makes images byte-stable.
//
// Encoded sizes: a tuple is timestamp, sic and a u32 value count; a value
// its kind tag and its active member.
constexpr size_t kTupleHeaderBytes = 8 + 8 + 4;
constexpr size_t kStringValueBytes = 1 + 4;
constexpr size_t kScalarValueBytes = 1 + 8;

size_t EncodedSize(const Tuple& t) {
  size_t n = kTupleHeaderBytes;
  for (const Value& v : t.values) {
    n += v.is_string() ? kStringValueBytes : kScalarValueBytes;
  }
  return n;
}

template <typename T>
uint8_t* PutAt(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

// Writes `t` at `p`, which must have EncodedSize(t) bytes; returns the end.
uint8_t* Encode(uint8_t* p, const Tuple& t) {
  p = PutAt<int64_t>(p, t.timestamp);
  p = PutAt<double>(p, t.sic);
  p = PutAt<uint32_t>(p, static_cast<uint32_t>(t.values.size()));
  for (const Value& v : t.values) {
    p = PutAt<uint8_t>(p, static_cast<uint8_t>(v.kind()));
    switch (v.kind()) {
      case Value::Kind::kInt64:
        p = PutAt<int64_t>(p, v.int_value());
        break;
      case Value::Kind::kDouble:
        p = PutAt<double>(p, v.double_value());
        break;
      case Value::Kind::kString:
        p = PutAt<uint32_t>(p, v.string_id());
        break;
    }
  }
  return p;
}

Value GetValue(CheckpointReader* r) {
  switch (static_cast<Value::Kind>(r->GetU8())) {
    case Value::Kind::kInt64:
      return Value(r->GetI64());
    case Value::Kind::kDouble:
      return Value(r->GetDouble());
    case Value::Kind::kString:
      return Value::FromInterned(r->GetU32());
  }
  return Value(int64_t{0});  // unreachable on well-formed images
}

}  // namespace

void CheckpointWriter::PutTuple(const Tuple& t) {
  Encode(Extend(EncodedSize(t)), t);
}

void CheckpointWriter::PutTuples(const std::vector<Tuple>& tuples) {
  size_t n = sizeof(uint32_t);
  for (const Tuple& t : tuples) n += EncodedSize(t);
  uint8_t* p = PutAt<uint32_t>(Extend(n), static_cast<uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) p = Encode(p, t);
}

Tuple CheckpointReader::GetTuple() {
  Tuple t;
  t.timestamp = GetI64();
  t.sic = GetDouble();
  uint32_t n = GetU32();
  t.values.reserve(std::min<size_t>(n, remaining() / kStringValueBytes));
  for (uint32_t i = 0; i < n && ok_; ++i) {
    t.values.push_back(GetValue(this));
  }
  return t;
}

void CheckpointReader::GetTuples(std::vector<Tuple>* out) {
  uint32_t n = GetU32();
  out->clear();
  out->reserve(std::min<size_t>(n, remaining() / kTupleHeaderBytes));
  for (uint32_t i = 0; i < n && ok_; ++i) {
    out->push_back(GetTuple());
  }
}

bool MaybeCheckpointOperator(Operator* op, QueryId q, SimTime now,
                             double error_bound, CheckpointStore* store) {
  CheckpointStore::Entry& e = store->Slot(q, op->id());
  // An existing image within the divergence bound stays; the extra state
  // lost on restore is at most the un-captured dirt. A first image is
  // always taken so a restore never has to guess at initial state.
  if (op->checkpoint_dirt() <= error_bound && e.present) {
    store->mutable_stats()->skipped_clean += 1;
    return false;
  }
  {
    CheckpointWriter w(&e.bytes);
    op->Checkpoint(&w);
  }
  // A buffer that held a much larger image gives the slack back.
  if (e.bytes.capacity() > 2 * e.bytes.size()) e.bytes.shrink_to_fit();
  store->Commit(&e, now);
  op->clear_checkpoint_dirt();
  return true;
}

bool RestoreOrResetOperator(Operator* op, QueryId q, CheckpointStore* store) {
  const CheckpointStore::Entry* e = store->Find(q, op->id());
  if (e != nullptr) {
    CheckpointReader r(e->bytes);
    op->RestoreFrom(&r);
    if (r.ok()) {
      store->mutable_stats()->restores += 1;
      return true;
    }
  }
  // No image, or a torn or malformed one: whatever part of it parsed is no
  // usable state, so the operator comes back empty.
  op->ResetState(nullptr);
  store->mutable_stats()->missed += 1;
  return false;
}

}  // namespace themis
