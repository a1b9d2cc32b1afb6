#include "federation/churn_federation.h"

#include <utility>

namespace themis {

std::unique_ptr<Fsps> MakeChurnFederation(const ChurnScenario& scenario,
                                          FspsOptions base) {
  return MakeScaleFederation(scenario.base, std::move(base));
}

ChurnRunResult RunChurnScenario(Fsps* fsps, const ChurnScenario& scenario,
                                SimDuration measure) {
  return ReplayScenario(fsps, scenario.base, scenario.events, measure);
}

}  // namespace themis
