#include "runtime/window.h"

#include <algorithm>
#include <utility>

#include "runtime/batch_pool.h"
#include "runtime/checkpoint.h"

namespace themis {

WindowSpec WindowSpec::TumblingTime(SimDuration range) {
  WindowSpec s;
  s.kind = WindowKind::kTumblingTime;
  s.range = range;
  s.slide = range;
  return s;
}

WindowSpec WindowSpec::SlidingTime(SimDuration range, SimDuration slide) {
  WindowSpec s;
  s.kind = WindowKind::kSlidingTime;
  s.range = range;
  s.slide = slide;
  return s;
}

WindowSpec WindowSpec::Count(size_t n) {
  WindowSpec s;
  s.kind = WindowKind::kCount;
  s.count = n;
  return s;
}

double Pane::TotalSic() const {
  double sum = 0.0;
  for (const Tuple& t : tuples) sum += t.sic;
  return sum;
}

WindowBuffer::WindowBuffer(WindowSpec spec) : spec_(spec) {}

void WindowBuffer::Recycle(std::vector<Tuple>&& tuples) {
  if (tuples.capacity() == 0 || recycled_.size() >= kMaxRecycled) return;
  tuples.clear();
  recycled_.push_back(std::move(tuples));
}

std::vector<Tuple> WindowBuffer::TakeBuffer() {
  if (recycled_.empty()) return {};
  std::vector<Tuple> buf = std::move(recycled_.back());
  recycled_.pop_back();
  return buf;
}

void WindowBuffer::Add(const Tuple& t) {
  switch (spec_.kind) {
    case WindowKind::kTumblingTime: {
      SimTime ts = std::max(t.timestamp, released_up_to_);
      int64_t idx = ts / spec_.range;
      Pane* p = cached_pane_;
      if (idx != cached_idx_ || p == nullptr) {
        auto [it, inserted] = open_.try_emplace(idx);
        p = &it->second;
        if (inserted) {
          p->start = idx * spec_.range;
          p->end = p->start + spec_.range;
          p->tuples = TakeBuffer();
        }
        cached_idx_ = idx;
        cached_pane_ = p;
      }
      p->tuples.push_back(t);
      if (p->tuples.back().timestamp < released_up_to_) {
        p->tuples.back().timestamp = released_up_to_;
      }
      break;
    }
    case WindowKind::kSlidingTime: {
      sliding_buf_.push_back(t);
      // Fold a late tuple to the end of the last released pane, where it
      // lands in as many unreleased panes as an on-time tuple.
      if (slide_initialized_) {
        const SimTime released = next_slide_end_ - spec_.slide;
        Tuple& added = sliding_buf_.back();
        if (added.timestamp < released) added.timestamp = released;
      }
      break;
    }
    case WindowKind::kCount: {
      count_buf_.push_back(t);
      if (count_buf_.size() >= spec_.count && spec_.count > 0) {
        Pane p;
        p.start = count_buf_.front().timestamp;
        p.end = count_buf_.back().timestamp;
        p.tuples = std::move(count_buf_);
        count_buf_ = TakeBuffer();
        ready_.push_back(std::move(p));
      }
      break;
    }
  }
}

std::vector<Pane> WindowBuffer::Advance(SimTime watermark) {
  switch (spec_.kind) {
    case WindowKind::kTumblingTime:
      return AdvanceTumbling(watermark);
    case WindowKind::kSlidingTime:
      return AdvanceSliding(watermark);
    case WindowKind::kCount: {
      std::vector<Pane> out = std::move(ready_);
      ready_.clear();
      return out;
    }
  }
  return {};
}

std::vector<Pane> WindowBuffer::AdvanceTumbling(SimTime watermark) {
  std::vector<Pane> out;
  auto it = open_.begin();
  if (it != open_.end() && it->second.end <= watermark) {
    cached_idx_ = -1;
    cached_pane_ = nullptr;
  }
  while (it != open_.end() && it->second.end <= watermark) {
    out.push_back(std::move(it->second));
    it = open_.erase(it);
  }
  if (!out.empty()) released_up_to_ = std::max(released_up_to_, out.back().end);
  return out;
}

std::vector<Pane> WindowBuffer::AdvanceSliding(SimTime watermark) {
  std::vector<Pane> out;
  if (!slide_initialized_) {
    if (sliding_buf_.empty()) return out;
    // Align the first pane end on a slide boundary past the earliest tuple.
    SimTime first = sliding_buf_.front().timestamp;
    for (size_t i = 1; i < sliding_buf_.size(); ++i) {
      first = std::min(first, sliding_buf_[i].timestamp);
    }
    next_slide_end_ = ((first / spec_.slide) + 1) * spec_.slide;
    slide_initialized_ = true;
  }
  // A tuple participates in `overlap` consecutive panes; divide its SIC so
  // that the total SIC mass emitted over time equals the mass ingested (§6).
  const double overlap =
      std::max<double>(1.0, static_cast<double>(spec_.range) /
                                static_cast<double>(spec_.slide));
  while (next_slide_end_ <= watermark) {
    SimTime end = next_slide_end_;
    SimTime start = end - spec_.range;
    Pane p;
    p.start = start;
    p.end = end;
    p.tuples = TakeBuffer();
    sliding_buf_.ForEach([&](const Tuple& t) {
      if (t.timestamp >= start && t.timestamp < end) {
        p.tuples.push_back(t);
        p.tuples.back().sic /= overlap;
      }
    });
    // Tuples that will never appear in a future pane can be dropped.
    SimTime horizon = end + spec_.slide - spec_.range;
    while (!sliding_buf_.empty() && sliding_buf_.front().timestamp < horizon) {
      sliding_buf_.pop_front();
    }
    out.push_back(std::move(p));
    next_slide_end_ += spec_.slide;
  }
  return out;
}

void WindowBuffer::Checkpoint(CheckpointWriter* w) const {
  w->PutI64(released_up_to_);
  w->PutU32(static_cast<uint32_t>(open_.size()));
  for (const auto& [idx, pane] : open_) {
    w->PutI64(idx);
    w->PutI64(pane.start);
    w->PutI64(pane.end);
    w->PutTuples(pane.tuples);
  }
  w->PutU32(static_cast<uint32_t>(sliding_buf_.size()));
  sliding_buf_.ForEach([w](const Tuple& t) { w->PutTuple(t); });
  w->PutI64(next_slide_end_);
  w->PutU8(slide_initialized_ ? 1 : 0);
  w->PutTuples(count_buf_);
  w->PutU32(static_cast<uint32_t>(ready_.size()));
  for (const Pane& pane : ready_) {
    w->PutI64(pane.start);
    w->PutI64(pane.end);
    w->PutTuples(pane.tuples);
  }
}

void WindowBuffer::RestoreFrom(CheckpointReader* r) {
  ResetState(nullptr);
  released_up_to_ = r->GetI64();
  uint32_t n_open = r->GetU32();
  for (uint32_t i = 0; i < n_open && r->ok(); ++i) {
    int64_t idx = r->GetI64();
    Pane& pane = open_[idx];
    pane.start = r->GetI64();
    pane.end = r->GetI64();
    pane.tuples = TakeBuffer();
    r->GetTuples(&pane.tuples);
  }
  uint32_t n_sliding = r->GetU32();
  for (uint32_t i = 0; i < n_sliding && r->ok(); ++i) {
    sliding_buf_.push_back(r->GetTuple());
  }
  next_slide_end_ = r->GetI64();
  slide_initialized_ = r->GetU8() != 0;
  r->GetTuples(&count_buf_);
  uint32_t n_ready = r->GetU32();
  for (uint32_t i = 0; i < n_ready && r->ok(); ++i) {
    Pane pane;
    pane.start = r->GetI64();
    pane.end = r->GetI64();
    pane.tuples = TakeBuffer();
    r->GetTuples(&pane.tuples);
    ready_.push_back(std::move(pane));
  }
}

void WindowBuffer::ResetState(BatchPool* pool) {
  // Hand-back order (open panes, count fill, ready panes, spares) fixes
  // which buffers the pool hands out next.
  auto give = [this, pool](std::vector<Tuple>&& buf) {
    if (pool != nullptr) {
      pool->ReleaseTuples(std::move(buf));
    } else {
      Recycle(std::move(buf));
    }
  };
  for (auto& [idx, pane] : open_) give(std::move(pane.tuples));
  open_.clear();
  cached_idx_ = -1;
  cached_pane_ = nullptr;
  released_up_to_ = 0;
  if (pool != nullptr) {
    sliding_buf_.Release();
  } else {
    sliding_buf_.clear();
  }
  next_slide_end_ = 0;
  slide_initialized_ = false;
  give(std::move(count_buf_));
  count_buf_.clear();
  for (Pane& pane : ready_) give(std::move(pane.tuples));
  ready_.clear();
  if (pool == nullptr) return;
  for (std::vector<Tuple>& buf : recycled_) pool->ReleaseTuples(std::move(buf));
  recycled_.clear();
  recycled_.shrink_to_fit();
}

size_t WindowBuffer::buffered() const {
  switch (spec_.kind) {
    case WindowKind::kTumblingTime: {
      size_t n = 0;
      for (const auto& [idx, pane] : open_) n += pane.tuples.size();
      return n;
    }
    case WindowKind::kSlidingTime:
      return sliding_buf_.size();
    case WindowKind::kCount:
      return count_buf_.size();
  }
  return 0;
}

}  // namespace themis
