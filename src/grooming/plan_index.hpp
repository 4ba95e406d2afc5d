// PlanIndex: the occupancy of a grooming plan, kept in step with it one
// change at a time.
//
// extend_plan_incremental and release_demands ask a plan three things:
// which timeslots of a wavelength are taken, which nodes terminate
// circuits on it (its SADM sites), and which non-full wavelength places a
// pair with the fewest new SADMs.  The index answers all three without a
// pass over the plan's pairs:
//
//  - per wavelength, the occupied timeslots and the site reference
//    counts, both as sorted (key, refs) runs;
//  - the non-full wavelengths, ascending;
//  - per node, the non-full wavelengths where that node has a site,
//    ascending — the cost-0 and cost-1 candidates of a pair are read
//    from its two endpoints' lists, the cost-2 one is the lowest non-full
//    wavelength;
//  - running totals: SADMs, wavelengths (the plan's wavelength_count()),
//    and empty wavelengths (what compaction would drop).
//
// Memory is O(pairs + wavelengths): nodes are hashed, never indexed by
// ring position, because ring_size may be as large as 5e7.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "grooming/plan.hpp"

namespace tgroom {

class PlanIndex {
 public:
  /// Index of an empty plan.
  PlanIndex() = default;
  /// Builds the index of `plan` in one pass over its pairs.
  explicit PlanIndex(const GroomingPlan& plan);

  /// Distinct (wavelength, node) sites: plan_sadm_count(plan).
  long long sadms() const { return sadms_; }
  /// plan.wavelength_count(), empty wavelengths below the top included.
  int wavelengths() const { return static_cast<int>(lanes_.size()); }

  /// Circuits on `wavelength` that terminate at `node`.
  int site_refs(int wavelength, NodeId node) const;
  /// Lowest free timeslot of `wavelength` (0 for one not opened yet), or
  /// -1 when all k are taken.
  int lowest_free_slot(int wavelength) const;

  struct Choice {
    int wavelength = -1;  // -1: every wavelength is full
    int cost = 3;         // new SADMs a pair placed there needs
  };
  /// The non-full wavelength other than `skip` where pair (a, b) needs
  /// the fewest new SADMs, ties toward the lowest id.
  Choice best_wavelength(NodeId a, NodeId b, int skip);

  /// Records `gp` placed in the plan; its wavelength may be one past the
  /// top, which opens it.
  void add(const GroomedPair& gp);
  /// Records `gp` removed from the plan.
  void remove(const GroomedPair& gp);
  /// Drops empty wavelengths, keeping the order of the others.  Returns
  /// the old-to-new id map the plan's pairs must follow (-1 for a dropped
  /// wavelength), or an empty vector when none was empty.
  std::vector<int> compact();

  /// True iff this index equals a fresh PlanIndex(plan): the check the
  /// tests run after every change.
  bool verify(const GroomingPlan& plan) const;

  /// List entries best_wavelength has visited so far: the work measure of
  /// a placement, independent of timing.
  std::uint64_t entries_examined() const { return examined_; }

 private:
  struct Count {
    std::int32_t key = 0;   // timeslot or node
    std::int32_t refs = 0;  // circuits using it
    bool operator==(const Count& o) const {
      return key == o.key && refs == o.refs;
    }
  };
  struct Lane {
    std::vector<Count> slots;  // occupied timeslots, by key
    std::vector<Count> sites;  // SADM sites, by node
  };

  bool full(const Lane& lane) const;
  void set_open(int wavelength, bool open);

  int k_ = 1;
  std::vector<Lane> lanes_;
  std::vector<int> open_;  // non-full wavelengths, ascending
  // node -> non-full wavelengths where it has a site, ascending; no
  // entry for a node without one.
  std::unordered_map<NodeId, std::vector<int>> open_sites_;
  long long sadms_ = 0;
  int empty_ = 0;  // wavelengths without a circuit
  std::uint64_t examined_ = 0;
};

}  // namespace tgroom
