#include "runtime/operator.h"

#include "runtime/batch_pool.h"
#include "runtime/checkpoint.h"

namespace themis {

namespace {

double TotalSicOf(const std::vector<Tuple>& tuples) {
  double sum = 0.0;
  for (const Tuple& t : tuples) sum += t.sic;
  return sum;
}

// Applies Eq. (3): every derived tuple receives an equal share of the SIC
// mass of its atomic input set. Produced tuples with no timestamp inherit the
// pane end (the emission time).
void FinalizeOutputs(double input_sic, SimTime pane_end, size_t first,
                     std::vector<Tuple>* out) {
  size_t produced = out->size() - first;
  if (produced == 0) return;
  double share = input_sic / static_cast<double>(produced);
  for (size_t i = first; i < out->size(); ++i) {
    (*out)[i].sic = share;
    if ((*out)[i].timestamp == 0) (*out)[i].timestamp = pane_end;
  }
}

}  // namespace

void WindowedOperator::Ingest(const std::vector<Tuple>& tuples, int port) {
  (void)port;
  AddDirt(TotalSicOf(tuples));
  for (const Tuple& t : tuples) window_.Add(t);
}

void WindowedOperator::Checkpoint(CheckpointWriter* w) const {
  window_.Checkpoint(w);
}

void WindowedOperator::RestoreFrom(CheckpointReader* r) {
  window_.RestoreFrom(r);
  clear_checkpoint_dirt();
}

void WindowedOperator::ResetState(BatchPool* pool) {
  window_.ResetState(pool);
  clear_checkpoint_dirt();
}

void WindowedOperator::Advance(SimTime watermark, std::vector<Tuple>* out) {
  for (Pane& pane : window_.Advance(watermark)) {
    size_t first = out->size();
    ProcessPane(pane, out);
    FinalizeOutputs(pane.TotalSic(), pane.end, first, out);
    window_.Recycle(std::move(pane.tuples));
  }
}

void BinaryWindowedOperator::Ingest(const std::vector<Tuple>& tuples,
                                    int port) {
  AddDirt(TotalSicOf(tuples));
  WindowBuffer& w = (port == 0) ? left_ : right_;
  for (const Tuple& t : tuples) w.Add(t);
}

void BinaryWindowedOperator::Checkpoint(CheckpointWriter* w) const {
  left_.Checkpoint(w);
  right_.Checkpoint(w);
  for (const auto* pending : {&pending_left_, &pending_right_}) {
    w->PutU32(static_cast<uint32_t>(pending->size()));
    for (const auto& [end, pane] : *pending) {
      w->PutI64(end);
      w->PutI64(pane.start);
      w->PutI64(pane.end);
      w->PutTuples(pane.tuples);
    }
  }
}

void BinaryWindowedOperator::RestoreFrom(CheckpointReader* r) {
  left_.RestoreFrom(r);
  right_.RestoreFrom(r);
  for (auto* pending : {&pending_left_, &pending_right_}) {
    pending->clear();
    uint32_t n = r->GetU32();
    for (uint32_t i = 0; i < n && r->ok(); ++i) {
      SimTime end = r->GetI64();
      Pane& pane = (*pending)[end];
      pane.start = r->GetI64();
      pane.end = r->GetI64();
      r->GetTuples(&pane.tuples);
    }
  }
  clear_checkpoint_dirt();
}

void BinaryWindowedOperator::ResetState(BatchPool* pool) {
  left_.ResetState(pool);
  right_.ResetState(pool);
  for (auto* pending : {&pending_left_, &pending_right_}) {
    if (pool != nullptr) {
      for (auto& [end, pane] : *pending) {
        pool->ReleaseTuples(std::move(pane.tuples));
      }
    }
    pending->clear();
  }
  clear_checkpoint_dirt();
}

void BinaryWindowedOperator::Advance(SimTime watermark,
                                     std::vector<Tuple>* out) {
  for (Pane& p : left_.Advance(watermark)) pending_left_[p.end] = std::move(p);
  for (Pane& p : right_.Advance(watermark)) {
    pending_right_[p.end] = std::move(p);
  }

  // Process every window end that the watermark has passed, pairing panes and
  // substituting an empty pane when one side is silent.
  while (!pending_left_.empty() || !pending_right_.empty()) {
    SimTime end;
    if (pending_left_.empty()) {
      end = pending_right_.begin()->first;
    } else if (pending_right_.empty()) {
      end = pending_left_.begin()->first;
    } else {
      end = std::min(pending_left_.begin()->first,
                     pending_right_.begin()->first);
    }
    if (end > watermark) break;

    Pane left, right;
    left.end = right.end = end;
    if (auto it = pending_left_.find(end); it != pending_left_.end()) {
      left = std::move(it->second);
      pending_left_.erase(it);
    }
    if (auto it = pending_right_.find(end); it != pending_right_.end()) {
      right = std::move(it->second);
      pending_right_.erase(it);
    }

    size_t first = out->size();
    ProcessPanes(left, right, out);
    FinalizeOutputs(left.TotalSic() + right.TotalSic(), end, first, out);
    left_.Recycle(std::move(left.tuples));
    right_.Recycle(std::move(right.tuples));
  }
}

void PassThroughOperator::Ingest(const std::vector<Tuple>& tuples, int port) {
  (void)port;
  AddDirt(TotalSicOf(tuples));
  pending_.insert(pending_.end(), tuples.begin(), tuples.end());
}

void PassThroughOperator::Checkpoint(CheckpointWriter* w) const {
  w->PutTuples(pending_);
}

void PassThroughOperator::RestoreFrom(CheckpointReader* r) {
  r->GetTuples(&pending_);
  clear_checkpoint_dirt();
}

void PassThroughOperator::ResetState(BatchPool* pool) {
  if (pool != nullptr) pool->ReleaseTuples(std::move(pending_));
  pending_.clear();
  clear_checkpoint_dirt();
}

void PassThroughOperator::Advance(SimTime watermark, std::vector<Tuple>* out) {
  (void)watermark;
  out->insert(out->end(), pending_.begin(), pending_.end());
  pending_.clear();
}

}  // namespace themis
