#include <gtest/gtest.h>

#include "algorithms/algorithm.hpp"
#include "gen/traffic_patterns.hpp"
#include "grooming/incremental.hpp"
#include "sonet/simulator.hpp"

namespace tgroom {
namespace {

GroomingPlan base_plan(NodeId n, double dense, int k, std::uint64_t seed,
                       DemandSet* demands_out = nullptr) {
  Rng rng(seed);
  DemandSet demands = random_traffic(n, dense, rng);
  Graph traffic = demands.traffic_graph();
  EdgePartition p = run_algorithm(AlgorithmId::kSpanTEuler, traffic, k);
  if (demands_out) *demands_out = demands;
  return plan_from_partition(demands, traffic, p);
}

TEST(Incremental, ExistingAssignmentsUntouched) {
  GroomingPlan plan = base_plan(12, 0.4, 4, 1);
  std::size_t before = plan.pairs.size();
  IncrementalResult r =
      add_demands_incremental(plan, {DemandPair{0, 6}, DemandPair{3, 9}});
  ASSERT_EQ(r.plan.pairs.size(), before + 2);
  for (std::size_t i = 0; i < before; ++i) {
    EXPECT_EQ(r.plan.pairs[i].pair, plan.pairs[i].pair);
    EXPECT_EQ(r.plan.pairs[i].wavelength, plan.pairs[i].wavelength);
    EXPECT_EQ(r.plan.pairs[i].timeslot, plan.pairs[i].timeslot);
  }
}

TEST(Incremental, ResultSimulatesCleanly) {
  GroomingPlan plan = base_plan(14, 0.5, 4, 2);
  std::vector<DemandPair> churn;
  for (NodeId v = 0; v < 7; ++v) {
    churn.push_back(DemandPair{v, static_cast<NodeId>(v + 7)});
  }
  IncrementalResult r = add_demands_incremental(plan, churn);
  UpsrRing ring(14);
  SimulationResult sim = simulate_plan(ring, r.plan);
  EXPECT_TRUE(sim.ok) << sim.issue;
}

TEST(Incremental, PrefersWavelengthsWithExistingSadms) {
  // One wavelength terminating at {0, 3} with slack: adding {0, 3} again
  // is impossible (duplicate demands allowed here — a second circuit
  // between the same nodes), and adding {0, 5} should reuse node 0's SADM.
  GroomingPlan plan;
  plan.ring_size = 8;
  plan.grooming_factor = 4;
  plan.pairs = {{DemandPair{0, 3}, 0, 0}};
  IncrementalResult r = add_demands_incremental(plan, {DemandPair{0, 5}});
  EXPECT_EQ(r.plan.pairs.back().wavelength, 0);
  EXPECT_EQ(r.new_sadms, 1);      // only node 5
  EXPECT_EQ(r.reused_sites, 1);   // node 0 already had one
  EXPECT_EQ(r.new_wavelengths, 0);
}

TEST(Incremental, OpensWavelengthWhenFull) {
  GroomingPlan plan;
  plan.ring_size = 6;
  plan.grooming_factor = 1;
  plan.pairs = {{DemandPair{0, 1}, 0, 0}};
  IncrementalResult r = add_demands_incremental(plan, {DemandPair{0, 2}});
  EXPECT_EQ(r.new_wavelengths, 1);
  EXPECT_EQ(r.plan.pairs.back().wavelength, 1);
  EXPECT_EQ(r.new_sadms, 2);
}

TEST(Incremental, FillsSlotHolesInParsedPlans) {
  // Slots {0, 2} occupied: the next assignment must take slot 1, not 2.
  GroomingPlan plan;
  plan.ring_size = 8;
  plan.grooming_factor = 3;
  plan.pairs = {{DemandPair{0, 4}, 0, 0}, {DemandPair{1, 5}, 0, 2}};
  IncrementalResult r = add_demands_incremental(plan, {DemandPair{2, 6}});
  EXPECT_EQ(r.plan.pairs.back().wavelength, 0);
  EXPECT_EQ(r.plan.pairs.back().timeslot, 1);
  UpsrRing ring(8);
  EXPECT_TRUE(simulate_plan(ring, r.plan).ok);
}

TEST(Incremental, PenaltyVersusFreshRegroom) {
  DemandSet demands(0);
  GroomingPlan plan = base_plan(16, 0.4, 4, 3, &demands);
  // Churn: 10 new pairs not already present.
  std::vector<DemandPair> churn;
  Rng rng(77);
  while (churn.size() < 10) {
    auto a = static_cast<NodeId>(rng.below(16));
    auto b = static_cast<NodeId>(rng.below(16));
    if (a == b || demands.contains(a, b)) continue;
    demands.add_pair(a, b);
    churn.push_back(DemandPair{std::min(a, b), std::max(a, b)});
  }
  IncrementalResult incremental = add_demands_incremental(plan, churn);

  Graph union_traffic = demands.traffic_graph();
  EdgePartition fresh_partition =
      run_algorithm(AlgorithmId::kSpanTEuler, union_traffic, 4);
  GroomingPlan fresh =
      plan_from_partition(demands, union_traffic, fresh_partition);

  long long penalty = incremental_penalty(incremental, fresh);
  // Incremental can never beat its own assignments being replanned with
  // full freedom by much; in practice it pays a non-negative penalty.
  EXPECT_GE(penalty, -2);
  UpsrRing ring(16);
  EXPECT_TRUE(simulate_plan(ring, incremental.plan).ok);
}

TEST(Incremental, RejectsBadDemand) {
  GroomingPlan plan;
  plan.ring_size = 6;
  plan.grooming_factor = 2;
  EXPECT_THROW(add_demands_incremental(plan, {DemandPair{0, 6}}), CheckError);
  EXPECT_THROW(add_demands_incremental(plan, {DemandPair{2, 2}}), CheckError);
}

TEST(Incremental, BadPairLeavesThePlanUnchanged) {
  // Every new pair is checked before the first one is placed: a rejected
  // extension must not leave {0,6} appended ahead of the bad {3,99}.
  GroomingPlan plan = base_plan(12, 0.4, 4, 1);
  const std::string before = serialize_plan(plan);
  EXPECT_THROW(extend_plan_incremental(plan, {DemandPair{0, 6},
                                              DemandPair{3, 99}}),
               CheckError);
  EXPECT_EQ(serialize_plan(plan), before);
}

TEST(Incremental, NoNewDemandsIsIdentity) {
  GroomingPlan plan = base_plan(10, 0.4, 3, 5);
  IncrementalResult r = add_demands_incremental(plan, {});
  EXPECT_EQ(r.plan.pairs.size(), plan.pairs.size());
  EXPECT_EQ(r.new_sadms, 0);
  EXPECT_EQ(r.new_wavelengths, 0);
}

TEST(Incremental, ExtendInPlaceMatchesCopyingWrapper) {
  // The service, WAL replay and replicas extend held plans in place
  // (PlanTable::provision); the CLI and benchmarks use the copying
  // wrapper.  Both must produce the same plan and stats.
  GroomingPlan in_place = base_plan(12, 0.4, 4, 9);
  const std::vector<DemandPair> add = {DemandPair{0, 6}, DemandPair{2, 9},
                                       DemandPair{1, 7}};
  const IncrementalResult copied = add_demands_incremental(in_place, add);
  const IncrementalStats stats = extend_plan_incremental(in_place, add);
  EXPECT_EQ(serialize_plan(in_place), serialize_plan(copied.plan));
  EXPECT_EQ(stats.new_sadms, copied.new_sadms);
  EXPECT_EQ(stats.new_wavelengths, copied.new_wavelengths);
  EXPECT_EQ(stats.reused_sites, copied.reused_sites);
}

TEST(Incremental, SequentialExtensionComposes) {
  // Replaying N provision records one-by-one must land on the same plan
  // as the live process that applied them one-by-one — and splitting a
  // batch anywhere cannot change the outcome relative to replay order.
  GroomingPlan one_by_one = base_plan(14, 0.5, 4, 10);
  GroomingPlan split = one_by_one;
  const std::vector<DemandPair> adds = {
      DemandPair{0, 7}, DemandPair{3, 11}, DemandPair{5, 9},
      DemandPair{1, 8}, DemandPair{2, 13}, DemandPair{4, 10}};
  for (const DemandPair& p : adds) {
    extend_plan_incremental(one_by_one, {p});
  }
  extend_plan_incremental(split,
                          {adds.begin(), adds.begin() + 2});
  extend_plan_incremental(split, {adds.begin() + 2, adds.end()});
  EXPECT_EQ(serialize_plan(one_by_one), serialize_plan(split));
}

}  // namespace
}  // namespace tgroom
