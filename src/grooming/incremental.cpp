#include "grooming/incremental.hpp"

#include <algorithm>
#include <set>

namespace tgroom {

IncrementalStats extend_plan_incremental(
    GroomingPlan& plan, const std::vector<DemandPair>& new_pairs) {
  IncrementalStats result;
  const int k = plan.grooming_factor;
  TGROOM_CHECK(k >= 1);

  // Per-wavelength occupancy and SADM sites of the current plan.
  int wavelengths = plan.wavelength_count();
  std::vector<std::set<int>> used_slots(
      static_cast<std::size_t>(wavelengths));
  std::vector<std::set<NodeId>> sites(
      static_cast<std::size_t>(wavelengths));
  for (const GroomedPair& gp : plan.pairs) {
    used_slots[static_cast<std::size_t>(gp.wavelength)].insert(gp.timeslot);
    sites[static_cast<std::size_t>(gp.wavelength)].insert(gp.pair.a);
    sites[static_cast<std::size_t>(gp.wavelength)].insert(gp.pair.b);
  }
  auto free_slot = [&](int w) {
    const auto& used = used_slots[static_cast<std::size_t>(w)];
    for (int s = 0; s < k; ++s) {
      if (!used.count(s)) return s;
    }
    return -1;
  };

  for (DemandPair pair : new_pairs) {
    if (pair.a > pair.b) std::swap(pair.a, pair.b);
    TGROOM_CHECK_MSG(pair.a >= 0 && pair.b < plan.ring_size &&
                         pair.a != pair.b,
                     "new demand outside the ring");
  }
  for (DemandPair pair : new_pairs) {
    if (pair.a > pair.b) std::swap(pair.a, pair.b);
    // Cheapest feasible wavelength: fewest new SADMs, then lowest id.
    int best = -1;
    int best_cost = 3;
    for (int w = 0; w < wavelengths; ++w) {
      if (free_slot(w) < 0) continue;
      int cost =
          (sites[static_cast<std::size_t>(w)].count(pair.a) ? 0 : 1) +
          (sites[static_cast<std::size_t>(w)].count(pair.b) ? 0 : 1);
      if (cost < best_cost) {
        best_cost = cost;
        best = w;
        if (cost == 0) break;
      }
    }
    if (best < 0) {
      best = wavelengths++;
      best_cost = 2;
      used_slots.emplace_back();
      sites.emplace_back();
      ++result.new_wavelengths;
    }
    result.new_sadms += best_cost;
    result.reused_sites += 2 - best_cost;
    int slot = free_slot(best);
    TGROOM_DCHECK(slot >= 0);
    used_slots[static_cast<std::size_t>(best)].insert(slot);
    sites[static_cast<std::size_t>(best)].insert(pair.a);
    sites[static_cast<std::size_t>(best)].insert(pair.b);
    plan.pairs.push_back(GroomedPair{pair, best, slot});
  }
  return result;
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
