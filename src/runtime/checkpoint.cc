#include "runtime/checkpoint.h"

#include "runtime/operator.h"

namespace themis {

namespace {

// Values serialize canonically per kind — kind tag plus the active union
// member only. Copying a Value need not preserve its 7 padding bytes (or
// the union bytes beyond a 4-byte string id), so a raw 16-byte memcpy
// image would differ after a restore + re-capture round trip even though
// the value is identical; the canonical form makes images byte-stable.
void PutValue(CheckpointWriter* w, const Value& v) {
  w->PutU8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kInt64:
      w->PutI64(v.int_value());
      break;
    case Value::Kind::kDouble:
      w->PutDouble(v.double_value());
      break;
    case Value::Kind::kString:
      w->PutU32(v.string_id());
      break;
  }
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
  PutI64(t.timestamp);
  PutDouble(t.sic);
  PutU32(static_cast<uint32_t>(t.values.size()));
  for (size_t i = 0; i < t.values.size(); ++i) PutValue(this, t.values[i]);
}

void CheckpointWriter::PutTuples(const std::vector<Tuple>& tuples) {
  PutU32(static_cast<uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) PutTuple(t);
}

Tuple CheckpointReader::GetTuple() {
  Tuple t;
  t.timestamp = GetI64();
  t.sic = GetDouble();
  uint32_t n = GetU32();
  t.values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    t.values.push_back(GetValue(this));
  }
  return t;
}

void CheckpointReader::GetTuples(std::vector<Tuple>* out) {
  uint32_t n = GetU32();
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n && ok_; ++i) {
    out->push_back(GetTuple());
  }
}

bool MaybeCheckpointOperator(Operator* op, QueryId q, SimTime now,
                             double error_bound, CheckpointStore* store) {
  // An existing image within the divergence bound stays; the extra state
  // lost on restore is at most the un-captured dirt. A first image is
  // always taken so a restore never has to guess at initial state.
  if (op->checkpoint_dirt() <= error_bound &&
      store->Find(q, op->id()) != nullptr) {
    store->mutable_stats()->skipped_clean += 1;
    return false;
  }
  CheckpointWriter w;
  op->Checkpoint(&w);
  store->Put(q, op->id(), w.Take(), now);
  op->clear_checkpoint_dirt();
  return true;
}

bool RestoreOrResetOperator(Operator* op, QueryId q, CheckpointStore* store) {
  const CheckpointStore::Entry* e = store->Find(q, op->id());
  if (e == nullptr) {
    op->ResetState(nullptr);
    store->mutable_stats()->missed += 1;
    return false;
  }
  CheckpointReader r(e->bytes);
  op->RestoreFrom(&r);
  store->mutable_stats()->restores += 1;
  return true;
}

}  // namespace themis
