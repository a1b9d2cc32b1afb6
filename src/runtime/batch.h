// Batch model of §6 ("SIC maintenance"): operators emit tuples grouped into
// batches; a batch carries a single header with the SIC value, the query id
// and a creation timestamp. Batches are also the unit of shedding.
#ifndef THEMIS_RUNTIME_BATCH_H_
#define THEMIS_RUNTIME_BATCH_H_

#include <vector>

#include "common/time_types.h"
#include "runtime/ids.h"
#include "runtime/tuple.h"

namespace themis {

/// \brief Batch header (the paper's 10-byte per-batch meta-data).
struct BatchHeader {
  /// Query these tuples belong to.
  QueryId query_id = kInvalidId;
  /// Operator that must process this batch at the destination node.
  OperatorId dest_op = kInvalidId;
  /// Input port at the destination operator (joins have two ports).
  int dest_port = 0;
  /// For source batches: the originating source; kInvalidId for derived
  /// batches. Source batches get Eq. (1) SIC stamping at node ingress.
  SourceId source = kInvalidId;
  /// Creation time: source time for source batches, emission time otherwise.
  SimTime created = 0;
  /// Aggregate SIC value of the contained tuples.
  double sic = 0.0;
};

/// \brief A batch of tuples plus its SIC header.
///
/// Move-only, so no code path can silently deep-copy a batch. The move is
/// noexcept, which lets a network hop's closure hold a batch inline.
struct Batch {
  Batch() = default;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;
  Batch(Batch&&) = default;
  Batch& operator=(Batch&&) = default;

  BatchHeader header;
  std::vector<Tuple> tuples;

  /// Number of tuples; this is what counts against node capacity `c`.
  size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty(); }

  /// Recomputes the header SIC as the sum of tuple SIC values.
  void RefreshHeaderSic();

  /// Sum of tuple SIC values (does not touch the header).
  double TotalSic() const;
};

/// Builds a batch addressed to `(query, op, port)` from the given tuples,
/// refreshing the header SIC.
Batch MakeBatch(QueryId query, OperatorId op, int port, SimTime created,
                std::vector<Tuple> tuples);

}  // namespace themis

#endif  // THEMIS_RUNTIME_BATCH_H_
