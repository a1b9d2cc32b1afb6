#include "federation/elastic_federation.h"

#include <utility>

namespace themis {

std::unique_ptr<Fsps> MakeElasticFederation(const ChurnScenario& scenario,
                                            FspsOptions base) {
  base.elastic = true;
  // Orphan re-placement should use the same forward-looking ranking the
  // autoscaler trusts (a shedding-saturated node must not look idle).
  base.replacement = ReplacementPolicy::kSicAware;
  return MakeChurnFederation(scenario, std::move(base));
}

ElasticRunResult RunElasticScenario(Fsps* fsps, const ChurnScenario& scenario,
                                    const AutoscalerOptions& options,
                                    SimDuration measure) {
  Autoscaler autoscaler(fsps, scenario.base, options);
  ElasticRunResult result;
  result.churn = ReplayScenario(fsps, scenario.base, scenario.events, measure,
                                &autoscaler);
  result.autoscaler = autoscaler.stats();
  const FspsChurnStats& churn = fsps->churn_stats();
  result.nodes_added = churn.nodes_added;
  result.rebalances = churn.rebalances;
  result.migrated_nodes = churn.migrated_nodes;
  result.final_live_nodes = static_cast<int>(fsps->live_node_ids().size());
  result.final_utilization = autoscaler.Utilization(fsps->now());
  return result;
}

}  // namespace themis
