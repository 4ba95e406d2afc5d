#include "grooming/incremental.hpp"

#include <algorithm>

namespace tgroom {

IncrementalStats extend_plan_incremental(
    GroomingPlan& plan, PlanIndex& index,
    const std::vector<DemandPair>& new_pairs) {
  IncrementalStats result;
  for (DemandPair pair : new_pairs) {
    if (pair.a > pair.b) std::swap(pair.a, pair.b);
    TGROOM_CHECK_MSG(pair.a >= 0 && pair.b < plan.ring_size &&
                         pair.a != pair.b,
                     "new demand outside the ring");
  }
  for (DemandPair pair : new_pairs) {
    if (pair.a > pair.b) std::swap(pair.a, pair.b);
    // Cheapest feasible wavelength: fewest new SADMs, then lowest id.
    PlanIndex::Choice best = index.best_wavelength(pair.a, pair.b, -1);
    if (best.wavelength < 0) {
      best = PlanIndex::Choice{index.wavelengths(), 2};
      ++result.new_wavelengths;
    }
    result.new_sadms += best.cost;
    result.reused_sites += 2 - best.cost;
    const GroomedPair gp{pair, best.wavelength,
                         index.lowest_free_slot(best.wavelength)};
    index.add(gp);
    plan.pairs.push_back(gp);
  }
  result.sadms = index.sadms();
  result.wavelengths = index.wavelengths();
  return result;
}

IncrementalStats extend_plan_incremental(
    GroomingPlan& plan, const std::vector<DemandPair>& new_pairs) {
  PlanIndex index(plan);
  return extend_plan_incremental(plan, index, new_pairs);
}

IncrementalResult add_demands_incremental(
    const GroomingPlan& plan, const std::vector<DemandPair>& new_pairs) {
  IncrementalResult result;
  result.plan = plan;
  static_cast<IncrementalStats&>(result) =
      extend_plan_incremental(result.plan, new_pairs);
  return result;
}

long long incremental_penalty(const IncrementalResult& incremental,
                              const GroomingPlan& fresh) {
  return plan_sadm_count(incremental.plan) - plan_sadm_count(fresh);
}

}  // namespace tgroom
