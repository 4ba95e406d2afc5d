// Incremental provisioning: add demands to a live grooming plan without
// re-arranging existing circuits.
//
// Operators rarely get to re-groom a deployed ring from scratch — moving a
// live circuit to another wavelength is service-affecting.  This module
// places new symmetric pairs into existing wavelength slack (preferring
// wavelengths that already terminate at the new pair's endpoints, so no
// new SADMs are needed when possible) and opens new wavelengths only when
// no slack remains.  The result is generally costlier than grooming the
// union from scratch; `incremental_penalty` quantifies that gap, which is
// the operational argument for good initial grooming.
#pragma once

#include <vector>

#include "grooming/plan.hpp"
#include "grooming/plan_index.hpp"

namespace tgroom {

struct IncrementalStats {
  int new_wavelengths = 0;    // wavelengths opened for the new demands
  int new_sadms = 0;          // SADM installs triggered
  int reused_sites = 0;       // endpoints that already had an SADM on the
                              // chosen wavelength
  long long sadms = 0;        // the extended plan's SADM count
  int wavelengths = 0;        // and its wavelength count
};

struct IncrementalResult : IncrementalStats {
  GroomingPlan plan;          // the extended plan
};

/// Adds `new_pairs` to `plan` in place.  Existing assignments are never
/// modified.  Each new pair goes to the feasible wavelength (free
/// timeslot) that needs the fewest new SADMs, ties broken toward lower
/// wavelength ids; a fresh wavelength is opened when nothing has slack.
///
/// Throws CheckError when a new pair is outside the ring; every pair is
/// checked before the plan changes, so a failed extension leaves it
/// unchanged.
///
/// Deterministic and sequentially composable: extending by A then by B
/// yields exactly the plan of extending by A+B in one call, which is
/// what lets the durable store's WAL replay mutations one record at a
/// time and land on the live table byte-for-byte.
///
/// `index` is the PlanIndex of `plan` and is updated with it, so each
/// pair costs O(its endpoints' non-full wavelengths), whatever the plan's
/// size.
IncrementalStats extend_plan_incremental(GroomingPlan& plan, PlanIndex& index,
                                         const std::vector<DemandPair>& new_pairs);
/// Same, for a plan without a kept index: builds one first, O(pairs).
IncrementalStats extend_plan_incremental(GroomingPlan& plan,
                                         const std::vector<DemandPair>& new_pairs);

/// Copying wrapper around extend_plan_incremental: leaves `plan`
/// untouched and returns the extended copy plus stats.
IncrementalResult add_demands_incremental(
    const GroomingPlan& plan, const std::vector<DemandPair>& new_pairs);

/// Cost gap of incremental operation vs. re-grooming from scratch:
/// (incremental SADMs) - (SADMs of `fresh`), where `fresh` is a plan for
/// the union demand set.  Non-negative whenever `fresh` is at least as
/// good as the incremental plan.
long long incremental_penalty(const IncrementalResult& incremental,
                              const GroomingPlan& fresh);

}  // namespace tgroom
