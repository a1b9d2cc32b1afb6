#include "federation/placement.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace themis {

namespace {

// Round-robin cursor shared across calls via the rng (deterministic but not
// aligned across queries, so load still spreads).
//
// Distinct-node guarantee: picks proceed in rounds of `pool` — within one
// round every pick lands on a different node (draw, then linear-probe to
// the next free one). The first round alone covers count <= pool, the
// common case; when the query has more fragments than the (live) node set
// has nodes, the used-mask resets and another distinct round begins, so no
// node hosts a second fragment until every node hosts one, a third until
// every node hosts two, and so on. The previous raw-draw wrap-around could
// co-locate fragments while other nodes sat idle — visible once a
// mid-run crash shrinks the live node list callers pass in.
std::vector<size_t> PickDistinct(size_t count, size_t pool,
                                 const std::function<size_t()>& draw) {
  std::vector<size_t> picked;
  std::vector<bool> used(pool, false);
  size_t used_in_round = 0;
  while (picked.size() < count) {
    if (used_in_round == pool) {
      std::fill(used.begin(), used.end(), false);
      used_in_round = 0;
    }
    size_t idx = draw() % pool;
    if (used[idx]) {
      // Linear-probe to the next free node to bound the loop.
      for (size_t step = 0; step < pool; ++step) {
        size_t probe = (idx + step) % pool;
        if (!used[probe]) {
          idx = probe;
          break;
        }
      }
    }
    used[idx] = true;
    ++used_in_round;
    picked.push_back(idx);
  }
  return picked;
}

}  // namespace

std::map<FragmentId, NodeId> PlaceFragments(const QueryGraph& graph,
                                            const std::vector<NodeId>& nodes,
                                            PlacementPolicy policy,
                                            double zipf_s, Rng* rng) {
  std::map<FragmentId, NodeId> placement;
  std::vector<FragmentId> frags = graph.fragment_ids();
  if (nodes.empty() || frags.empty()) return placement;

  std::function<size_t()> draw;
  size_t rr_cursor = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(nodes.size()) - 1));
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      draw = [&rr_cursor, &nodes]() mutable {
        return rr_cursor++ % nodes.size();
      };
      break;
    case PlacementPolicy::kUniformRandom:
      draw = [rng, &nodes] {
        return static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(nodes.size()) - 1));
      };
      break;
    case PlacementPolicy::kZipf:
      draw = [rng, &nodes, zipf_s] {
        return static_cast<size_t>(
            rng->Zipf(static_cast<int64_t>(nodes.size()), zipf_s));
      };
      break;
  }

  std::vector<size_t> idx = PickDistinct(frags.size(), nodes.size(), draw);
  for (size_t i = 0; i < frags.size(); ++i) {
    placement[frags[i]] = nodes[idx[i]];
  }
  return placement;
}

std::string ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kRoundRobin:
      return "round-robin";
    case ReplacementPolicy::kSicAware:
      return "sic-aware";
  }
  return "?";
}

NodeId ChooseLeastLoaded(const std::vector<ReplacementCandidate>& candidates,
                         const std::set<NodeId>& occupied) {
  NodeId best = kInvalidId, best_any = kInvalidId;
  double best_load = 0.0, best_any_load = 0.0;
  for (const ReplacementCandidate& c : candidates) {
    // Strict < with candidates scanned in input order and ids ascending in
    // practice; ties therefore resolve to the smallest id seen first. Feed
    // id-sorted candidates for the documented tie-break.
    if (best_any == kInvalidId || c.load < best_any_load ||
        (c.load == best_any_load && c.id < best_any)) {
      best_any = c.id;
      best_any_load = c.load;
    }
    if (occupied.count(c.id) != 0) continue;
    if (best == kInvalidId || c.load < best_load ||
        (c.load == best_load && c.id < best)) {
      best = c.id;
      best_load = c.load;
    }
  }
  return best != kInvalidId ? best : best_any;
}

}  // namespace themis
