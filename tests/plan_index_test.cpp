// PlanIndex: differential churn against the set-based reference
// implementation, the rebuild-and-compare check after every change, and a
// work-count test that placement does not grow with plan size.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "gen/random_graph.hpp"
#include "grooming/incremental.hpp"
#include "grooming/plan_index.hpp"
#include "grooming/repair.hpp"
#include "store/durable_store.hpp"
#include "util/rng.hpp"

namespace tgroom {
namespace {

// extend_plan_incremental and release_demands as they were before
// PlanIndex: each call rebuilds its occupancy model from every pair of the
// plan.  Kept verbatim (modulo names) as the oracle the indexed code must
// match byte for byte.
namespace reference {

IncrementalStats extend(GroomingPlan& plan,
                        const std::vector<DemandPair>& new_pairs) {
  IncrementalStats result;
  const int k = plan.grooming_factor;
  TGROOM_CHECK(k >= 1);
  int wavelengths = plan.wavelength_count();
  std::vector<std::set<int>> used_slots(
      static_cast<std::size_t>(wavelengths));
  std::vector<std::set<NodeId>> sites(static_cast<std::size_t>(wavelengths));
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
    int best = -1;
    int best_cost = 3;
    for (int w = 0; w < wavelengths; ++w) {
      if (free_slot(w) < 0) continue;
      int cost = (sites[static_cast<std::size_t>(w)].count(pair.a) ? 0 : 1) +
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
    used_slots[static_cast<std::size_t>(best)].insert(slot);
    sites[static_cast<std::size_t>(best)].insert(pair.a);
    sites[static_cast<std::size_t>(best)].insert(pair.b);
    plan.pairs.push_back(GroomedPair{pair, best, slot});
  }
  result.sadms = plan_sadm_count(plan);
  result.wavelengths = plan.wavelength_count();
  return result;
}

void compact_wavelengths(GroomingPlan& plan) {
  const int wavelengths = plan.wavelength_count();
  if (wavelengths == 0) return;
  std::vector<bool> occupied(static_cast<std::size_t>(wavelengths), false);
  for (const GroomedPair& gp : plan.pairs) {
    occupied[static_cast<std::size_t>(gp.wavelength)] = true;
  }
  std::vector<int> remap(static_cast<std::size_t>(wavelengths), -1);
  int next = 0;
  for (int w = 0; w < wavelengths; ++w) {
    if (occupied[static_cast<std::size_t>(w)]) {
      remap[static_cast<std::size_t>(w)] = next++;
    }
  }
  for (GroomedPair& gp : plan.pairs) {
    gp.wavelength = remap[static_cast<std::size_t>(gp.wavelength)];
  }
}

void repair_affected(GroomingPlan& plan, const std::set<int>& affected,
                     ReleaseStats& stats) {
  const int k = plan.grooming_factor;
  const int wavelengths = plan.wavelength_count();
  if (wavelengths == 0 || affected.empty()) return;
  std::vector<std::vector<bool>> slot_used(
      static_cast<std::size_t>(wavelengths),
      std::vector<bool>(static_cast<std::size_t>(k), false));
  std::vector<std::map<NodeId, int>> site_refs(
      static_cast<std::size_t>(wavelengths));
  for (const GroomedPair& gp : plan.pairs) {
    auto w = static_cast<std::size_t>(gp.wavelength);
    slot_used[w][static_cast<std::size_t>(gp.timeslot)] = true;
    ++site_refs[w][gp.pair.a];
    ++site_refs[w][gp.pair.b];
  }
  std::vector<int> free_slots(static_cast<std::size_t>(wavelengths), 0);
  for (int w = 0; w < wavelengths; ++w) {
    for (int s = 0; s < k; ++s) {
      if (!slot_used[static_cast<std::size_t>(w)]
                    [static_cast<std::size_t>(s)]) {
        ++free_slots[static_cast<std::size_t>(w)];
      }
    }
  }
  auto ref_count = [&](int w, NodeId node) {
    const auto& refs = site_refs[static_cast<std::size_t>(w)];
    auto it = refs.find(node);
    return it == refs.end() ? 0 : it->second;
  };
  bool moved = true;
  while (moved) {
    moved = false;
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
      if (affected.count(plan.pairs[i].wavelength) != 0) {
        candidates.push_back(i);
      }
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
      const int freed = (ref_count(w, gp.pair.a) == 1 ? 1 : 0) +
                        (ref_count(w, gp.pair.b) == 1 ? 1 : 0);
      if (freed == 0) continue;
      int best = -1;
      int best_cost = freed;
      for (int w2 = 0; w2 < wavelengths; ++w2) {
        if (w2 == w || free_slots[static_cast<std::size_t>(w2)] == 0) {
          continue;
        }
        const int cost = (ref_count(w2, gp.pair.a) > 0 ? 0 : 1) +
                         (ref_count(w2, gp.pair.b) > 0 ? 0 : 1);
        if (cost < best_cost) {
          best_cost = cost;
          best = w2;
          if (cost == 0) break;
        }
      }
      if (best < 0) continue;
      auto src = static_cast<std::size_t>(w);
      auto dst = static_cast<std::size_t>(best);
      slot_used[src][static_cast<std::size_t>(gp.timeslot)] = false;
      ++free_slots[src];
      for (NodeId node : {gp.pair.a, gp.pair.b}) {
        if (--site_refs[src][node] == 0) site_refs[src].erase(node);
      }
      int slot = 0;
      while (slot_used[dst][static_cast<std::size_t>(slot)]) ++slot;
      slot_used[dst][static_cast<std::size_t>(slot)] = true;
      --free_slots[dst];
      ++site_refs[dst][gp.pair.a];
      ++site_refs[dst][gp.pair.b];
      gp.wavelength = best;
      gp.timeslot = slot;
      ++stats.repair_moves;
      moved = true;
    }
  }
}

ReleaseStats release(GroomingPlan& plan, const std::vector<DemandPair>& remove,
                     bool repair) {
  ReleaseStats stats;
  TGROOM_CHECK(plan.grooming_factor >= 1);
  const long long sadms_before = plan_sadm_count(plan);
  const int wavelengths_before = plan.wavelength_count();
  std::vector<std::size_t> victims;
  std::vector<bool> claimed(plan.pairs.size(), false);
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
    victims.push_back(best);
  }
  std::set<int> affected;
  for (std::size_t i : victims) affected.insert(plan.pairs[i].wavelength);
  std::sort(victims.rbegin(), victims.rend());
  for (std::size_t i : victims) {
    plan.pairs.erase(plan.pairs.begin() + static_cast<std::ptrdiff_t>(i));
    ++stats.released;
  }
  if (repair) repair_affected(plan, affected, stats);
  compact_wavelengths(plan);
  stats.sadms = plan_sadm_count(plan);
  stats.wavelengths = plan.wavelength_count();
  stats.sadms_removed = sadms_before - stats.sadms;
  stats.freed_wavelengths = wavelengths_before - stats.wavelengths;
  return stats;
}

}  // namespace reference

GroomingPlan groomed_plan(NodeId ring, long long pairs, int k,
                          std::uint64_t seed) {
  GroomingPlan plan;
  plan.ring_size = ring;
  plan.grooming_factor = k;
  if (pairs == 0) return plan;
  Rng rng(seed);
  const Graph g = random_gnm(ring, pairs, rng);
  const EdgePartition p = run_algorithm(AlgorithmId::kSpanTEuler, g, k);
  return plan_from_partition(DemandSet::from_traffic_graph(g), g, p);
}

DemandPair random_pair(Rng& rng, NodeId ring) {
  const auto a = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(ring)));
  auto b = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(ring - 1)));
  if (b >= a) ++b;
  return DemandPair{a, b};  // either order: both sides normalize
}

void expect_same(const IncrementalStats& got, const IncrementalStats& want) {
  EXPECT_EQ(got.new_wavelengths, want.new_wavelengths);
  EXPECT_EQ(got.new_sadms, want.new_sadms);
  EXPECT_EQ(got.reused_sites, want.reused_sites);
  EXPECT_EQ(got.sadms, want.sadms);
  EXPECT_EQ(got.wavelengths, want.wavelengths);
}

void expect_same(const ReleaseStats& got, const ReleaseStats& want) {
  EXPECT_EQ(got.released, want.released);
  EXPECT_EQ(got.repair_moves, want.repair_moves);
  EXPECT_EQ(got.freed_wavelengths, want.freed_wavelengths);
  EXPECT_EQ(got.sadms_removed, want.sadms_removed);
  EXPECT_EQ(got.sadms, want.sadms);
  EXPECT_EQ(got.wavelengths, want.wavelengths);
}

struct ChurnCase {
  long long pairs;
  int k;
  int ops;
};

/// Drives one seeded churn through a PlanTable (the held path, index kept
/// across ops) and through the reference; after every op the plans must
/// serialize alike and the index must equal a fresh rebuild.  Every few
/// ops the same change also runs through the index-less overloads on a
/// copy (the inline-plan path) and must land on the same bytes.
void run_churn(const ChurnCase& c, std::uint64_t seed) {
  const NodeId ring = c.pairs > 2000 ? 192 : 96;
  const GroomingPlan base = groomed_plan(ring, c.pairs, c.k, seed);
  PlanTable table;
  table.hold(1, base);
  GroomingPlan oracle = base;
  Rng rng(seed * 7919 + 13);
  std::vector<DemandPair> last_added;
  int compactions = 0, moves = 0;

  for (int op = 0; op < c.ops; ++op) {
    SCOPED_TRACE("pairs=" + std::to_string(c.pairs) + " k=" +
                 std::to_string(c.k) + " op=" + std::to_string(op));
    const GroomingPlan before = oracle;
    const std::uint64_t roll = rng.below(100);
    const bool inline_too = op % 5 == 0;
    if (roll < 45 || oracle.pairs.empty()) {
      // Provision 1-4 pairs; 1 in 3 times one repeats a held circuit.
      std::vector<DemandPair> add(1 + rng.below(4));
      for (DemandPair& p : add) p = random_pair(rng, ring);
      if (!oracle.pairs.empty() && rng.below(3) == 0) {
        add[0] = oracle.pairs[rng.below(oracle.pairs.size())].pair;
      }
      const IncrementalStats want = reference::extend(oracle, add);
      expect_same(table.provision(1, add), want);
      if (inline_too) {
        GroomingPlan copy = before;
        expect_same(extend_plan_incremental(copy, add), want);
        EXPECT_EQ(serialize_plan(copy), serialize_plan(oracle));
      }
      last_added = add;
    } else if (roll < 85) {
      // Release 1-4 held circuits, or every circuit of one wavelength so
      // that compaction runs; the same pair may be named twice.
      std::vector<DemandPair> remove;
      if (roll < 75) {
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
          remove.push_back(oracle.pairs[rng.below(oracle.pairs.size())].pair);
        }
        std::sort(remove.begin(), remove.end());
        remove.erase(std::unique(remove.begin(), remove.end()),
                     remove.end());
        if (rng.below(4) == 0) {
          remove.push_back(remove.front());
          // Only a pair held twice can be released twice.
          if (std::count_if(oracle.pairs.begin(), oracle.pairs.end(),
                            [&](const GroomedPair& gp) {
                              return gp.pair == remove.front();
                            }) < 2) {
            remove.pop_back();
          }
        }
      } else {
        const int w = oracle.pairs[rng.below(oracle.pairs.size())].wavelength;
        for (const GroomedPair& gp : oracle.pairs) {
          if (gp.wavelength == w) remove.push_back(gp.pair);
        }
      }
      const bool repair = rng.below(3) != 0;
      const ReleaseStats want = reference::release(oracle, remove, repair);
      expect_same(table.release(1, remove, false, repair), want);
      if (inline_too) {
        GroomingPlan copy = before;
        expect_same(release_demands(copy, remove, repair), want);
        EXPECT_EQ(serialize_plan(copy), serialize_plan(oracle));
      }
      if (want.freed_wavelengths > 0) ++compactions;
      moves += want.repair_moves;
    } else if (roll < 92) {
      // A release of an absent pair fails on both sides and changes
      // nothing.
      DemandPair absent = random_pair(rng, ring);
      if (absent.a > absent.b) std::swap(absent.a, absent.b);
      if (std::none_of(oracle.pairs.begin(), oracle.pairs.end(),
                       [&](const GroomedPair& gp) {
                         return gp.pair == absent;
                       })) {
        EXPECT_THROW(reference::release(oracle, {absent}, true), CheckError);
        EXPECT_THROW(table.release(1, {absent}, false, true), CheckError);
      }
    } else if (roll < 97) {
      // Provision outside the ring fails before anything changes.
      EXPECT_THROW(reference::extend(oracle, {DemandPair{0, ring}}),
                   CheckError);
      EXPECT_THROW(table.provision(1, {DemandPair{0, 1}, DemandPair{0, ring}}),
                   CheckError);
    } else {
      // Release all and hold again: the totals describe what it held.
      const ReleaseStats all = table.release(1, {}, true, false);
      EXPECT_EQ(all.released, static_cast<int>(oracle.pairs.size()));
      EXPECT_EQ(all.sadms_removed, plan_sadm_count(oracle));
      EXPECT_EQ(all.freed_wavelengths, oracle.wavelength_count());
      EXPECT_EQ(table.plans.count(1), 0u);
      table.hold(1, oracle);
    }
    const HeldPlan& held = table.plans.at(1);
    ASSERT_EQ(serialize_plan(held.plan), serialize_plan(oracle));
    ASSERT_TRUE(held.index.verify(held.plan));
    ASSERT_EQ(held.index.sadms(), plan_sadm_count(oracle));
    ASSERT_EQ(held.index.wavelengths(), oracle.wavelength_count());
  }
  if (c.pairs > 0 && c.ops >= 100) {
    EXPECT_GT(compactions, 0) << "the churn never emptied a wavelength";
  }
  if (c.k > 1 && c.pairs > 0 && c.ops >= 100) {
    EXPECT_GT(moves, 0) << "the churn never repaired";
  }
}

class PlanIndexChurnP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlanIndexChurnP, MatchesSetBasedReferenceAfterEveryOp) {
  const auto [pairs, k] = GetParam();
  // The 8000-pair plans run fewer ops: the reference pays O(plan) each.
  const int ops = pairs >= 8000 ? 40 : 160;
  run_churn(ChurnCase{pairs, k, ops},
            static_cast<std::uint64_t>(pairs * 31 + k));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlanIndexChurnP,
                         ::testing::Combine(::testing::Values(0, 500, 2000,
                                                              8000),
                                            ::testing::Values(1, 2, 16)));

TEST(PlanIndex, EmptyAndGappedPlans) {
  // An inline plan may leave a wavelength empty below its top: it counts
  // toward wavelengths(), takes a cost-2 pair before a new wavelength
  // opens, and release compacts it away.
  GroomingPlan plan;
  plan.ring_size = 8;
  plan.grooming_factor = 2;
  plan.pairs = {{{0, 1}, 0, 0}, {{2, 3}, 0, 1}, {{4, 5}, 2, 0}};
  PlanIndex index(plan);
  EXPECT_EQ(index.wavelengths(), 3);
  EXPECT_EQ(index.sadms(), 6);
  GroomingPlan oracle = plan;
  const std::vector<DemandPair> add = {{6, 7}, {0, 6}, {1, 7}};
  expect_same(extend_plan_incremental(plan, index, add),
              reference::extend(oracle, add));
  EXPECT_EQ(serialize_plan(plan), serialize_plan(oracle));
  EXPECT_TRUE(index.verify(plan));
  expect_same(release_demands(plan, index, {{2, 3}}, true),
              reference::release(oracle, {{2, 3}}, true));
  EXPECT_EQ(serialize_plan(plan), serialize_plan(oracle));
  EXPECT_TRUE(index.verify(plan));
  EXPECT_TRUE(PlanIndex().verify(GroomingPlan{}));
}

TEST(PlanIndex, VerifyCatchesAStaleIndex) {
  GroomingPlan plan = groomed_plan(24, 60, 4, 5);
  const PlanIndex index(plan);
  EXPECT_TRUE(index.verify(plan));
  plan.pairs.back().timeslot = 3 - plan.pairs.back().timeslot;
  plan.pairs.front().pair.b = (plan.pairs.front().pair.b + 1) % 24;
  EXPECT_FALSE(index.verify(plan));
}

/// Mean list entries best_wavelength examines per pair placed into a
/// churned plan of `pairs` pairs.
double examined_per_placed_pair(NodeId ring, long long pairs) {
  constexpr int kK = 16;
  GroomingPlan plan = groomed_plan(ring, pairs, kK, 77);
  PlanIndex index(plan);
  Rng rng(static_cast<std::uint64_t>(pairs));
  // Open slack across the plan: 64 repairing releases of 1-4 pairs.
  for (int i = 0; i < 64; ++i) {
    std::vector<DemandPair> remove;
    for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
      remove.push_back(plan.pairs[rng.below(plan.pairs.size())].pair);
    }
    std::sort(remove.begin(), remove.end());
    remove.erase(std::unique(remove.begin(), remove.end()), remove.end());
    release_demands(plan, index, remove, true);
  }
  constexpr int kPlaced = 400;
  const std::uint64_t before = index.entries_examined();
  for (int i = 0; i < kPlaced; ++i) {
    extend_plan_incremental(plan, index, {random_pair(rng, ring)});
  }
  EXPECT_TRUE(index.verify(plan));
  return static_cast<double>(index.entries_examined() - before) / kPlaced;
}

TEST(PlanIndexCost, PlacementWorkDoesNotGrowWithPlanSize) {
  // The plan_churn shapes: 500 pairs on a 96-node ring (32 wavelengths)
  // and 8000 on 192 (500 wavelengths).  A scan of every wavelength would
  // examine 16x more at 8000; the index reads only the endpoints' non-full
  // wavelengths, which depend on the churn, not on the plan's size.
  const double small = examined_per_placed_pair(96, 500);
  const double big = examined_per_placed_pair(192, 8000);
  EXPECT_GT(small, 0.0);
  EXPECT_LE(big, 2.0 * small) << "500 pairs: " << small
                              << " per placed pair, 8000 pairs: " << big;
}

}  // namespace
}  // namespace tgroom
