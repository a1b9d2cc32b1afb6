// Discrete-event simulation core. Single-threaded, deterministic: events at
// the same simulated time run in scheduling (FIFO) order.
//
// This is the substitute for the paper's Emulab/local test-beds (DESIGN.md
// §2): nodes, sources, coordinators and the network schedule callbacks here
// instead of running on real machines.
#ifndef THEMIS_SIM_EVENT_QUEUE_H_
#define THEMIS_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/function.h"
#include "common/time_types.h"

namespace themis {

/// \brief Priority queue of timed callbacks with a simulated clock.
///
/// Callbacks are move-only UniqueFunctions: events can own their payload
/// (e.g. an in-flight Batch) and small callables are stored inline, so
/// scheduling does not allocate in steady state.
class EventQueue {
 public:
  using Callback = UniqueFunction;

  /// Schedules `cb` at absolute simulated time `t` (clamped to now()).
  /// `tag` names the node a network delivery is addressed to (-1 for every
  /// other event), so a re-balance can take the node's deliveries out with
  /// TakeIf and re-schedule them on the node's new shard.
  void Schedule(SimTime t, Callback cb, int32_t tag = -1);
  /// Schedules `cb` after `delay` from now.
  void ScheduleAfter(SimDuration delay, Callback cb);

  /// An event taken out of the queue: its deadline, tag and callback.
  struct Taken {
    SimTime time;
    int32_t tag;
    Callback cb;
  };
  /// Removes every tagged event whose tag satisfies `pred(tag)` (untagged
  /// events never match) and appends them to `out` in the (time, seq) order
  /// they would have run in. The events left behind keep their order.
  template <typename Pred>
  void TakeIf(Pred pred, std::vector<Taken>* out);

  /// Runs the earliest event; returns false when the queue is empty.
  bool RunNext();
  /// Runs all events with time <= t, then advances the clock to t.
  void RunUntil(SimTime t);
  /// Runs until the queue drains (use with care: sources self-reschedule).
  void RunAll();

  SimTime now() const { return now_; }
  size_t pending() const { return heap_.size(); }
  /// Total events executed (diagnostics).
  uint64_t executed() const { return executed_; }

 private:
  // Heap entries are 24-byte PODs; the callbacks live in a slab of stable
  // slots on the side. Heap sifts therefore memcpy small entries instead of
  // vtable-relocating UniqueFunctions, and retired slots recycle so
  // scheduling is allocation-free in steady state.
  struct Event {
    SimTime time;
    uint64_t seq;   // tie-break: FIFO among equal-time events
    uint32_t slot;  // index into slots_
    int32_t tag;    // delivery's destination node, or -1
  };
  static_assert(sizeof(Event) == 24, "the tag must fit the entry's padding");
  // Max-heap order under std::push_heap/pop_heap: the earliest (time, seq)
  // is on top. seq is unique, so the pop order does not depend on the
  // heap's layout.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

template <typename Pred>
void EventQueue::TakeIf(Pred pred, std::vector<Taken>* out) {
  // The kept events are re-heaped below, so an unstable partition will do.
  auto taken = std::partition(
      heap_.begin(), heap_.end(),
      [&pred](const Event& ev) { return ev.tag < 0 || !pred(ev.tag); });
  if (taken == heap_.end()) return;
  std::sort(taken, heap_.end(),
            [](const Event& a, const Event& b) { return Later()(b, a); });
  for (auto it = taken; it != heap_.end(); ++it) {
    out->push_back({it->time, it->tag, std::move(slots_[it->slot])});
    free_slots_.push_back(it->slot);
  }
  heap_.erase(taken, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later());
}

}  // namespace themis

#endif  // THEMIS_SIM_EVENT_QUEUE_H_
