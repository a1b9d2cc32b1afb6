#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace themis {

void EventQueue::Schedule(SimTime t, Callback cb, int32_t tag) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  }
  heap_.push_back({std::max(t, now_), next_seq_++, slot, tag});
  std::push_heap(heap_.begin(), heap_.end(), Later());
}

void EventQueue::ScheduleAfter(SimDuration delay, Callback cb) {
  Schedule(now_ + std::max<SimDuration>(delay, 0), std::move(cb));
}

bool EventQueue::RunNext() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  Event ev = heap_.back();
  heap_.pop_back();
  now_ = ev.time;
  ++executed_;
  // Move the callback out before running: the callback may schedule new
  // events, which may reuse the freed slot.
  Callback cb = std::move(slots_[ev.slot]);
  free_slots_.push_back(ev.slot);
  cb();
  return true;
}

void EventQueue::RunUntil(SimTime t) {
  while (!heap_.empty() && heap_.front().time <= t) RunNext();
  now_ = std::max(now_, t);
}

void EventQueue::RunAll() {
  while (RunNext()) {
  }
}

}  // namespace themis
