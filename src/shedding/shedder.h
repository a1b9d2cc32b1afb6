// Tuple shedder interface. A shedder looks at a node's input buffer and
// selects which batches to KEEP within the capacity c; everything else is
// discarded (Algorithm 1, shedTuples()).
#ifndef THEMIS_SHEDDING_SHEDDER_H_
#define THEMIS_SHEDDING_SHEDDER_H_

#include <deque>
#include <vector>

#include "common/time_types.h"
#include "runtime/batch.h"

namespace themis {

/// Per-invocation inputs to a shedder.
struct ShedContext {
  /// Capacity c: number of tuples the node can process this interval.
  size_t capacity_tuples = 0;
  /// Current simulated time.
  SimTime now = 0;
  /// Latest disseminated result SIC value per query hosted on this node
  /// (from the query coordinators, §5.2 updateSIC), indexed by QueryId (0.0
  /// for queries without a disseminated value). May be null.
  const std::vector<double>* query_sic = nullptr;
  /// SIC mass this node accepted for processing per query over the trailing
  /// STW, indexed by QueryId (0.0 for queries without accepted mass).
  /// Lag-free local counterpart of `query_sic`: disseminated values trail
  /// reality by the end-to-end window-cascade latency, and balancing on
  /// them alone over-corrects (§6 projection heuristic). May be null.
  const std::vector<double>* local_accepted_sic = nullptr;
};

/// \brief Strategy deciding which input-buffer batches survive an overload.
class Shedder {
 public:
  virtual ~Shedder() = default;

  /// Returns the indices (into `ib`, ascending) of batches to keep. The total
  /// tuple count of kept batches must not exceed `ctx.capacity_tuples`.
  virtual std::vector<size_t> SelectBatchesToKeep(const std::deque<Batch>& ib,
                                                  const ShedContext& ctx) = 0;

  virtual const char* name() const = 0;
};

}  // namespace themis

#endif  // THEMIS_SHEDDING_SHEDDER_H_
