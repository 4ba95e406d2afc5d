// Demand release with local repair: the departure half of dynamic
// traffic.
//
// extend_plan_incremental (incremental.hpp) handles arrivals; this module
// handles the inverse.  Releasing a circuit leaves holes — a wavelength
// may keep an SADM at a node that no longer terminates traffic there, or
// carry one straggler circuit that would fit into another wavelength's
// slack.  Full re-grooming would fix that but is service-affecting for
// every live circuit, so release_demands instead runs a *local* repair:
// only circuits on the wavelengths the release touched are candidates to
// move, and a circuit moves only when the move strictly lowers the total
// SADM count.  The result is never worse than naive removal, and the
// whole operation is deterministic — the service WAL logs the released
// pairs and replays them through this same function.
#pragma once

#include <vector>

#include "grooming/plan.hpp"
#include "grooming/plan_index.hpp"

namespace tgroom {

struct ReleaseStats {
  int released = 0;            // circuits removed from the plan
  int repair_moves = 0;        // circuits re-homed by local repair
  int freed_wavelengths = 0;   // wavelength_count drop (post-compaction)
  long long sadms_removed = 0; // SADM count drop (release + repair)
  long long sadms = 0;         // the residual plan's SADM count
  int wavelengths = 0;         // and its wavelength count
};

/// Removes each pair of `remove` from `plan` in place (the lowest
/// (wavelength, timeslot) match when duplicates exist), then — when
/// `repair` is true — re-homes circuits from the affected wavelengths
/// into existing slack wherever that strictly lowers the SADM count, and
/// finally renumbers wavelengths to drop empty ones (stable order).
///
/// Throws CheckError when a pair is outside the ring or not in the plan;
/// the plan is only mutated after every removed pair has been located,
/// so a failed release leaves it unchanged.
///
/// Deterministic and sequentially composable, like
/// extend_plan_incremental: the durable store replays release records
/// through this function and lands on the live table byte-for-byte.
///
/// `index` is the PlanIndex of `plan` and is updated with it: repair
/// reads its move targets from the index, and only finding the victims,
/// listing the affected wavelengths' circuits and renumbering are flat
/// passes over the pairs.
ReleaseStats release_demands(GroomingPlan& plan, PlanIndex& index,
                             const std::vector<DemandPair>& remove,
                             bool repair);
/// Same, for a plan without a kept index: builds one first, O(pairs).
ReleaseStats release_demands(GroomingPlan& plan,
                             const std::vector<DemandPair>& remove,
                             bool repair = true);

/// Total connected components over all per-wavelength subgraphs of the
/// plan (a "fragment" is one component on one wavelength).  A fragment
/// with e edges spans at most e + 1 nodes, so
///   plan_sadm_count <= m + fragments
/// for any plan with m circuits — which is within the Proposition 2 cost
/// bound prop2_cost_bound(m, k, fragments) whenever m >= 1.
long long plan_fragment_count(const GroomingPlan& plan);

/// True iff the plan's SADM count respects the Proposition 2 bound for a
/// cover of plan_fragment_count() parts (vacuously true for an empty
/// plan).  The dynamic simulator asserts this after every mutation.
bool plan_within_prop2_bound(const GroomingPlan& plan);

}  // namespace tgroom
