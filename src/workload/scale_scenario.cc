#include "workload/scale_scenario.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace themis {

int ScaleSourcesPerFragment(ComplexKind kind, int sources_per_fragment) {
  switch (kind) {
    case ComplexKind::kCov:
      return 2;
    case ComplexKind::kTop5:
      return 2 * sources_per_fragment;
    default:
      return sources_per_fragment;
  }
}

ScaleScenario MakeScaleScenario(const ScaleScenarioOptions& options) {
  THEMIS_CHECK(options.nodes >= 1);
  THEMIS_CHECK(options.clusters >= 1 && options.clusters <= options.nodes);
  THEMIS_CHECK(options.queries >= 1 && options.arrival_wave >= 1);
  THEMIS_CHECK(options.fragments_min >= 1 &&
               options.fragments_max >= options.fragments_min);
  THEMIS_CHECK(options.burst_prob >= 0.0 && options.burst_prob <= 1.0);
  THEMIS_CHECK(options.burst_multiplier >= 1.0);

  ScaleScenario scenario;
  scenario.options = options;

  // Contiguous node blocks per cluster: nodes of one LAN stay adjacent, so
  // cluster -> shard maps cleanly onto contiguous id ranges.
  scenario.cluster_of_node.resize(options.nodes);
  for (int n = 0; n < options.nodes; ++n) {
    scenario.cluster_of_node[n] =
        static_cast<int>(static_cast<int64_t>(n) * options.clusters /
                         options.nodes);
  }

  Rng rng(options.seed);
  scenario.queries.reserve(options.queries);
  for (int q = 0; q < options.queries; ++q) {
    ScaleQuerySpec spec;
    spec.id = q;
    spec.kind = static_cast<ComplexKind>(rng.UniformInt(0, 2));
    spec.fragments = static_cast<int>(
        rng.UniformInt(options.fragments_min, options.fragments_max));
    spec.arrival = (q / options.arrival_wave) * options.arrival_interval;
    // Round-robin home clusters keep per-cluster load (and therefore
    // per-shard work) balanced.
    spec.home_cluster = q % options.clusters;
    if (options.clusters > 1 && spec.fragments > 1 &&
        rng.NextDouble() < options.wan_query_ratio) {
      spec.peer_cluster =
          static_cast<int>((spec.home_cluster + 1 +
                            rng.UniformInt(0, options.clusters - 2)) %
                           options.clusters);
    }
    scenario.queries.push_back(spec);

    scenario.total_source_rate +=
        static_cast<double>(
            ScaleSourcesPerFragment(spec.kind, options.sources_per_fragment)) *
        spec.fragments * options.source_rate;
  }
  return scenario;
}

}  // namespace themis
