// Fragment-to-node placement policies. In an FSPS the placement is chosen by
// the query user and fixed for the query's lifetime (§3); experiments use
// these policies to generate realistic deployments, including the skewed
// Zipf placement of the scalability experiments (§7.3).
#ifndef THEMIS_FEDERATION_PLACEMENT_H_
#define THEMIS_FEDERATION_PLACEMENT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/ids.h"
#include "runtime/query_graph.h"

namespace themis {

enum class PlacementPolicy {
  kRoundRobin,      ///< spread fragments evenly, deterministic
  kUniformRandom,   ///< uniform random node per fragment
  kZipf,            ///< skewed load: low-rank nodes attract more fragments (C1)
};

/// \brief Maps each fragment of `graph` to a node.
///
/// Fragments of the same query land on distinct nodes (the paper deploys
/// each fragment of a query on a different FSPS node) as long as enough
/// nodes exist; otherwise assignment wraps around in rounds that stay
/// maximally spread (no node takes a k+1-th fragment while another still
/// has k-1). `nodes` should be the *live* node set — on a dynamic
/// federation, pass Fsps::live_node_ids() rather than node_ids(), or the
/// distinct-node guarantee silently weakens to "distinct including crashed
/// nodes".
///
/// \param zipf_s skew parameter for kZipf (1.0 is a typical skew; 0 = uniform)
std::map<FragmentId, NodeId> PlaceFragments(const QueryGraph& graph,
                                            const std::vector<NodeId>& nodes,
                                            PlacementPolicy policy,
                                            double zipf_s, Rng* rng);

/// How a TopologyPlan::Crash re-places the crashed node's orphaned fragments
/// onto the live candidate set.
enum class ReplacementPolicy {
  /// PR 4 behaviour, byte-for-byte: a round-robin cursor spreads orphans
  /// evenly over the candidates, blind to how loaded each one is.
  kRoundRobin,
  /// Move each orphan to the least-overloaded live candidate, judged by the
  /// node's live SIC readings (the SIC mass it currently admits over the
  /// trailing STW; its offered load on an elastic federation, see
  /// FspsOptions::elastic); deterministic tie-break by ascending node id.
  /// Recovers post-crash fairness faster than the blind cursor because
  /// orphans land where spare capacity actually is.
  kSicAware,
};

/// Policy name as printed in reports ("round-robin", "sic-aware").
std::string ReplacementPolicyName(ReplacementPolicy policy);

/// What happens to a re-placed fragment's operator state at crash time.
///
/// Windows live in the shared QueryGraph, so a re-placed fragment could
/// technically resume with the crashed node's live state; no federation of
/// autonomous sites can do that, so every mode discards it and the knob
/// only picks what replaces it.
enum class CrashStateMode {
  /// The default: a re-placed fragment starts from empty operator state,
  /// like a fresh deployment on the new host would.
  kReset,
  /// Bounded-error recovery: the fragment restores from its last image in
  /// the crashed node's CheckpointStore (which models a durable backup and
  /// survives the crash); operators without an image reset. Requires
  /// checkpointing to be enabled for images to exist.
  kCheckpoint,
};

/// One re-placement candidate: a live node and its overload signal
/// (smaller = less loaded; the federation layer feeds accepted-SIC mass, or
/// offered load on an elastic federation).
struct ReplacementCandidate {
  NodeId id = kInvalidId;
  double load = 0.0;
};

/// \brief The kSicAware chooser: least-loaded candidate, distinct-node
/// guarantee first.
///
/// Picks the candidate with the smallest load among those not in
/// `occupied` (nodes already hosting a fragment of the query being
/// re-placed); when every candidate is occupied, co-location is the last
/// resort and the least-loaded candidate overall wins. Ties break by
/// ascending node id, so the choice is a pure function of its inputs.
/// Returns kInvalidId on an empty candidate set.
NodeId ChooseLeastLoaded(const std::vector<ReplacementCandidate>& candidates,
                         const std::set<NodeId>& occupied);

}  // namespace themis

#endif  // THEMIS_FEDERATION_PLACEMENT_H_
