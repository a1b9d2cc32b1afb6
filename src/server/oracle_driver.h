// Deterministic driver for oracle runs: advances a ManualClock through the
// merged timeline of arrivals, paced admissions and shed ticks, quiescing
// the pipeline at every instant — reproducing the discrete-event schedule on
// the server machinery (0 workers: caller-driven; >=1 workers: real threads
// synchronized at each instant).
#ifndef THEMIS_SERVER_ORACLE_DRIVER_H_
#define THEMIS_SERVER_ORACLE_DRIVER_H_

#include <vector>

#include "runtime/clock.h"
#include "server/server_pipeline.h"

namespace themis {

/// A source batch to Push at an absolute time.
struct TimedBatch {
  SimTime at = 0;
  Batch batch;
};

/// Drives `pipeline` (started, kModeled accounting, on `clock`) through
/// `arrivals` (sorted ascending by `at`; same-time order is the injection
/// order) until simulated time `until` inclusive. Ticks win ties against
/// arrivals and admissions, like the event queue schedules them. Consumes
/// the arrival batches.
void DriveDeterministic(ServerPipeline* pipeline, ManualClock* clock,
                        std::vector<TimedBatch>* arrivals, SimTime until);

}  // namespace themis

#endif  // THEMIS_SERVER_ORACLE_DRIVER_H_
