#include "grooming/repair.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "partition/cover_transform.hpp"

namespace tgroom {

namespace {

/// Moves circuits off the affected wavelengths whenever the move strictly
/// lowers the total SADM count.  Every committed move lowers it by at
/// least one, so the fixpoint loop terminates.
void repair_affected(GroomingPlan& plan, PlanIndex& index,
                     const std::vector<int>& affected, ReleaseStats& stats) {
  const auto is_affected = [&](int w) {
    return std::binary_search(affected.begin(), affected.end(), w);
  };
  std::vector<std::size_t> candidates;
  bool moved = true;
  while (moved) {
    moved = false;
    // Candidate circuits on affected wavelengths, in a fixed total order
    // (wavelength, timeslot, endpoints) so repair is deterministic.
    candidates.clear();
    for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
      if (is_affected(plan.pairs[i].wavelength)) candidates.push_back(i);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](std::size_t x, std::size_t y) {
                const GroomedPair& a = plan.pairs[x];
                const GroomedPair& b = plan.pairs[y];
                return std::tie(a.wavelength, a.timeslot, a.pair.a,
                                a.pair.b) <
                       std::tie(b.wavelength, b.timeslot, b.pair.a,
                                b.pair.b);
              });
    for (std::size_t idx : candidates) {
      GroomedPair& gp = plan.pairs[idx];
      const int w = gp.wavelength;
      // SADMs freed at the source if this circuit leaves: endpoints no
      // other circuit on w terminates at.
      const int freed = (index.site_refs(w, gp.pair.a) == 1 ? 1 : 0) +
                        (index.site_refs(w, gp.pair.b) == 1 ? 1 : 0);
      if (freed == 0) continue;
      // Strict improvement only: the move must need fewer new SADMs than
      // it frees.
      const PlanIndex::Choice best =
          index.best_wavelength(gp.pair.a, gp.pair.b, w);
      if (best.wavelength < 0 || best.cost >= freed) continue;
      // Commit the move to the lowest free slot of the target.
      index.remove(gp);
      gp.wavelength = best.wavelength;
      gp.timeslot = index.lowest_free_slot(best.wavelength);
      index.add(gp);
      ++stats.repair_moves;
      moved = true;
    }
  }
}

}  // namespace

ReleaseStats release_demands(GroomingPlan& plan, PlanIndex& index,
                             const std::vector<DemandPair>& remove,
                             bool repair) {
  ReleaseStats stats;
  const long long sadms_before = index.sadms();
  const int wavelengths_before = index.wavelengths();

  // Locate every victim before mutating, so a bad release (pair not in
  // the plan) leaves the plan untouched.  Each removed pair claims the
  // lowest (wavelength, timeslot) match, which makes duplicate demands
  // release in a fixed order — WAL replay depends on that.
  std::vector<bool> claimed(plan.pairs.size(), false);
  std::vector<int> affected;
  affected.reserve(remove.size());
  for (DemandPair pair : remove) {
    if (pair.a > pair.b) std::swap(pair.a, pair.b);
    TGROOM_CHECK_MSG(pair.a >= 0 && pair.b < plan.ring_size &&
                         pair.a != pair.b,
                     "released demand outside the ring");
    std::size_t best = plan.pairs.size();
    for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
      if (claimed[i] || plan.pairs[i].pair != pair) continue;
      if (best == plan.pairs.size() ||
          std::tie(plan.pairs[i].wavelength, plan.pairs[i].timeslot) <
              std::tie(plan.pairs[best].wavelength,
                       plan.pairs[best].timeslot)) {
        best = i;
      }
    }
    TGROOM_CHECK_MSG(best < plan.pairs.size(),
                     "released demand is not in the plan");
    claimed[best] = true;
    affected.push_back(plan.pairs[best].wavelength);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  std::size_t kept = 0;
  for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
    if (claimed[i]) {
      index.remove(plan.pairs[i]);
      ++stats.released;
    } else {
      plan.pairs[kept++] = plan.pairs[i];
    }
  }
  plan.pairs.resize(kept);

  if (repair) repair_affected(plan, index, affected, stats);
  // Renumber wavelengths so empty ones disappear, preserving the
  // relative order of the non-empty ones.
  const std::vector<int> remap = index.compact();
  if (!remap.empty()) {
    for (GroomedPair& gp : plan.pairs) {
      gp.wavelength = remap[static_cast<std::size_t>(gp.wavelength)];
    }
  }

  stats.sadms = index.sadms();
  stats.wavelengths = index.wavelengths();
  stats.sadms_removed = sadms_before - stats.sadms;
  stats.freed_wavelengths = wavelengths_before - stats.wavelengths;
  return stats;
}

ReleaseStats release_demands(GroomingPlan& plan,
                             const std::vector<DemandPair>& remove,
                             bool repair) {
  PlanIndex index(plan);
  return release_demands(plan, index, remove, repair);
}

long long plan_fragment_count(const GroomingPlan& plan) {
  const int wavelengths = plan.wavelength_count();
  long long fragments = 0;
  // Union-find per wavelength over that wavelength's endpoints.
  for (int w = 0; w < wavelengths; ++w) {
    std::map<NodeId, NodeId> parent;
    auto find = [&](NodeId x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    long long nodes = 0;
    long long merges = 0;
    for (const GroomedPair& gp : plan.pairs) {
      if (gp.wavelength != w) continue;
      for (NodeId node : {gp.pair.a, gp.pair.b}) {
        if (parent.emplace(node, node).second) ++nodes;
      }
      NodeId ra = find(gp.pair.a);
      NodeId rb = find(gp.pair.b);
      if (ra != rb) {
        parent[ra] = rb;
        ++merges;
      }
    }
    fragments += nodes - merges;
  }
  return fragments;
}

bool plan_within_prop2_bound(const GroomingPlan& plan) {
  const auto m = static_cast<long long>(plan.pairs.size());
  if (m == 0) return true;
  const long long fragments = plan_fragment_count(plan);
  return plan_sadm_count(plan) <=
         prop2_cost_bound(m, plan.grooming_factor,
                          static_cast<std::size_t>(fragments));
}

}  // namespace tgroom
