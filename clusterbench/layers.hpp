// Per-layer measurements for the traced run: timed calls into each
// module's public functions from the benchmark's own code, plus the
// seeded store that recovery_s restarts a primary on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.hpp"
#include "infra.hpp"
#include "workloads.hpp"

namespace cbench {

using Metrics = std::map<std::string, double>;

/// Records written after the recovery store's last snapshot.  Fixed, so
/// recovery_s does not depend on run length.
constexpr std::size_t kRecoveryRecords = 500;

/// A primary's store: shard 0's preloaded plan_churn plans, a snapshot,
/// then kRecoveryRecords provision/release records.  `table` is the held
/// plan table it must restore.
struct RecoveryStore {
  std::string dir;
  std::map<std::int64_t, GroomingPlan> table;
};
RecoveryStore build_recovery_store(const std::vector<ChurnPlan>& plans,
                                   std::uint64_t seed, const std::string& dir);

/// With the cluster up and idle: direct and routed round trips of the
/// workload's reads, and the same lines executed in process.  Fills
/// service.execute_us.{groom_hit,groom_miss}, event_loop.overhead_us and
/// router.overhead_us.
void measure_probe_layers(Workload& workload, const Cluster& cluster,
                          Tracer& tracer, Metrics& out);

/// In-process layer calls (no cluster): protocol, graph, service held and
/// inline ops, algorithms, grooming, store and replication.
void measure_inprocess_layers(Workload& workload,
                              const std::vector<ChurnPlan>& plans,
                              const RecoveryStore& store, std::uint64_t seed,
                              const std::string& scratch, Tracer& tracer,
                              Metrics& out);

}  // namespace cbench
