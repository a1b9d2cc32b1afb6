#include "server/oracle_driver.h"

#include <utility>

namespace themis {

void DriveDeterministic(ServerPipeline* pipeline, ManualClock* clock,
                        std::vector<TimedBatch>* arrivals, SimTime until) {
  size_t next_arrival = 0;
  for (;;) {
    constexpr SimTime kNever = ServerPipeline::kNever;
    SimTime t_arr = next_arrival < arrivals->size()
                        ? (*arrivals)[next_arrival].at
                        : kNever;
    SimTime t_adm = pipeline->NextAdmissionTime();
    SimTime t_tick = pipeline->NextTickTime();

    SimTime next = kNever;
    if (t_arr != kNever) next = t_arr;
    if (t_adm != kNever && (next == kNever || t_adm < next)) next = t_adm;
    if (next == kNever) {
      // Nothing queued and no arrivals left: only ticks remain (they still
      // close windows and flush late panes until the horizon).
      next = t_tick;
    }
    if (t_tick <= next) next = t_tick;  // ticks win ties, like the DES
    if (next > until) break;

    clock->AdvanceTo(next);
    if (next == t_tick) {
      pipeline->DriveTick();
      continue;  // same-time arrivals/admissions run on the next pass
    }
    while (next_arrival < arrivals->size() &&
           (*arrivals)[next_arrival].at == next) {
      pipeline->Push(std::move((*arrivals)[next_arrival].batch));
      ++next_arrival;
    }
    pipeline->NotifyIngress();
    pipeline->Quiesce();
  }
}

}  // namespace themis
