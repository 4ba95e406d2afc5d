// Durable state store for the grooming service: recovery + WAL +
// snapshots + compaction behind one object, and PlanTable, the held-plan
// table every mutation path changes.
//
// Lifecycle:
//   1. Construction recovers: load the newest valid snapshot, replay the
//      WAL tail (seq > snapshot seq), truncating a torn final record.
//      The recovered held-plan table, next plan id, and cache-prewarm
//      entries are handed to the service via take_recovered().
//   2. The service appends a record for every mutation (hold /
//      provision / release) *before* acking the request, then sync()s it
//      under the configured fsync policy.
//   3. Every `snapshot_every` records the service snapshots its table;
//      write_snapshot() persists it atomically and then compacts: older
//      snapshots and WAL segments wholly covered by the new snapshot
//      are deleted (never the active segment).
//
// Replay feeds each record to PlanTable::apply, the same operations the
// live service runs: provisions are recomputed through
// extend_plan_incremental and releases through release_demands, both
// deterministic and sequentially composable — so a recovered table is
// byte-identical to the live table the crashed process held (for every
// acked-durable mutation).  Each held plan keeps its PlanIndex, built
// once when the plan is held or loaded, so a replayed or replicated
// record costs what the live mutation did: O(change), not O(plan).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "grooming/incremental.hpp"
#include "grooming/plan.hpp"
#include "grooming/repair.hpp"
#include "service/cache.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "util/json.hpp"

namespace tgroom {

struct DurableStoreOptions {
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Snapshot after this many appended records; 0 disables periodic
  /// snapshots (one is still written at clean shutdown).
  std::uint64_t snapshot_every = 1024;
  std::uint64_t segment_bytes = 4ull << 20;
  std::uint64_t batch_bytes = 64ull << 10;
};

/// What recovery found, for stats/logging.
struct StoreRecovery {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_seq = 0;
  std::size_t snapshots_skipped = 0;  // corrupt snapshots fallen past
  std::size_t wal_segments = 0;
  std::size_t wal_records_replayed = 0;
  std::size_t wal_records_skipped = 0;  // already covered by the snapshot
  // Replayed-record breakdown by type (`tgroom store-dump` triage).
  std::size_t hold_records = 0;
  std::size_t provision_records = 0;
  std::size_t release_records = 0;
  bool torn_truncated = false;
  std::uint64_t wal_first_seq = 0;  // first record seq on disk (0 = none)
  std::uint64_t last_seq = 0;       // the WAL resumes at last_seq + 1
};

/// A groom-cache entry recovered from a WAL hold record, for pre-warming
/// the PlanCache.  Best-effort: only hold records in the replayed WAL
/// tail carry one (snapshots store plans, not cache payloads).
struct PrewarmEntry {
  GroomCacheKey key;
  std::shared_ptr<const GroomCacheValue> value;
};

/// One WAL record decoded but not yet applied.  The replication follower
/// decodes each shipped record once, applies it to the live held-plan
/// table under the service's plans lock, and persists the original bytes
/// verbatim via DurableStore::append_raw — so replica WAL == primary WAL.
struct DecodedWalRecord {
  std::uint64_t seq = 0;
  WalRecordType type = WalRecordType::kHoldPlan;
  std::int64_t plan_id = 0;
  GroomingPlan plan;             // kHoldPlan
  bool has_cache_entry = false;  // kHoldPlan: prewarm payload present
  GroomCacheKey cache_key;
  GroomCacheValue cache_value;
  std::vector<DemandPair> pairs;  // kProvision / kRelease
  bool drop_all = false;          // kRelease
  bool repair = false;            // kRelease
};

/// Decodes a record body (the part after [seq][type]).  Throws
/// StoreCorruptError on trailing bytes, like recovery replay does.
DecodedWalRecord decode_wal_record(std::uint64_t seq, WalRecordType type,
                                   std::string_view body);

/// A held plan and its PlanIndex.  Only PlanTable changes either, and
/// every change goes through both.
struct HeldPlan {
  explicit HeldPlan(GroomingPlan p) : plan(std::move(p)), index(plan) {}
  GroomingPlan plan;
  PlanIndex index;
};

/// The held-plan table: plans by id plus the next id to hand out.  The
/// service's live mutations, recovery replay and replica apply all change
/// it through hold / provision / release, in place; apply() is the only
/// code that turns a WAL record into a table change.  A mutation that
/// throws leaves the table unchanged.
struct PlanTable {
  std::unordered_map<std::int64_t, HeldPlan> plans;
  std::int64_t next_plan_id = 1;

  /// Holds `plan` under `id` (replacing any plan there) and moves
  /// next_plan_id past it.  The primary passes next_plan_id.
  const GroomingPlan& hold(std::int64_t id, GroomingPlan plan);
  /// Extends plan `id` by `pairs` (extend_plan_incremental).
  IncrementalStats provision(std::int64_t id,
                             const std::vector<DemandPair>& pairs);
  /// Releases `pairs` from plan `id` (release_demands); with `all` the
  /// plan leaves the table and the stats describe what it held.
  ReleaseStats release(std::int64_t id, const std::vector<DemandPair>& pairs,
                       bool all, bool repair);
  /// Plan `id`; throws CheckError "unknown plan_id N" when absent — the
  /// primary's bad_request text.
  const GroomingPlan& at(std::int64_t id) { return held(id).plan; }

  /// Applies one WAL record.  A provision or release of an absent plan
  /// throws StoreCorruptError: the log itself is inconsistent.
  void apply(const DecodedWalRecord& rec);

  /// The table as of WAL seq `last_seq`, plans sorted by id.
  SnapshotData snapshot(std::uint64_t last_seq) const;
  /// Replaces the table with the snapshot's content.
  void load(SnapshotData snap);

 private:
  HeldPlan& held(std::int64_t id);
};

/// What recovery rebuilt: the held-plan table (`plans`, `next_plan_id`)
/// plus the groom-cache entries to prewarm.
struct RecoveredState : PlanTable {
  std::vector<PrewarmEntry> prewarm;
};

/// Pure recovery: snapshot load + WAL replay, no writer opened.  With
/// `repair` false the store directory is left byte-untouched (a torn
/// tail still stops replay, it just isn't truncated) — `tgroom
/// store-dump` uses that to inspect a live or dead store read-only.
RecoveredState recover_store_state(const std::string& dir,
                                   StoreRecovery* recovery, bool repair);

/// Best-effort sidecar (`store-meta.json`) recording the active fsync
/// policy of the most recent writer; `store-dump` reports it without a
/// store-format version bump.  Reading a dir without one yields "".
void write_store_meta(const std::string& dir, FsyncPolicy fsync);
std::string read_store_meta_fsync(const std::string& dir);

class DurableStore {
 public:
  /// Recovers (creating `options.dir` if needed, repairing a torn tail)
  /// and opens a fresh WAL segment at last_seq + 1.  Throws
  /// StoreIncompatibleError on a format-version mismatch and
  /// StoreCorruptError on unrepairable damage.
  explicit DurableStore(DurableStoreOptions options);

  /// Moves the recovered table out (valid once, right after construction).
  RecoveredState take_recovered() { return std::move(recovered_); }
  const StoreRecovery& recovery() const { return recovery_; }
  StoreMetrics& metrics() { return metrics_; }

  /// Appends a hold-plan record (plan + cache-prewarm payload).  Returns
  /// the record's sequence number; pass it to sync() before acking.
  std::uint64_t append_hold(std::int64_t plan_id, const GroomingPlan& plan,
                            const GroomCacheKey& key,
                            const GroomCacheValue& value);
  /// Appends a provision record (pairs added to an existing plan).
  std::uint64_t append_provision(std::int64_t plan_id,
                                 const std::vector<DemandPair>& pairs);
  /// Appends a release record.  With `drop_all` the plan leaves the table
  /// entirely (`pairs` is ignored and encoded empty); otherwise the pairs
  /// are released through release_demands with the given repair flag.
  std::uint64_t append_release(std::int64_t plan_id,
                               const std::vector<DemandPair>& pairs,
                               bool drop_all, bool repair);
  /// Appends an already-encoded record body verbatim — the replication
  /// follower persists exactly the bytes the primary shipped, so the two
  /// stores stay byte-comparable record for record.
  std::uint64_t append_raw(WalRecordType type, std::string_view body);

  void sync(std::uint64_t seq) { wal_->sync(seq); }
  /// Forces all appended records durable (drain / shutdown path).
  void flush() { wal_->flush(); }
  /// fflush without fsync — makes appended records visible to tail_wal
  /// (replication shipping) without paying for durability.
  void flush_os() { wal_->flush_to_os(); }

  std::uint64_t last_seq() const { return wal_->last_appended_seq(); }
  const std::string& dir() const { return options_.dir; }

  /// True once snapshot_every records have been appended since the last
  /// snapshot (callers then build a SnapshotData and call
  /// write_snapshot).
  bool snapshot_due() const;

  /// Persists `snap` and compacts superseded snapshots/WAL segments.
  /// Returns false (doing nothing) if another snapshot write is in
  /// flight or `snap` does not advance past the previous one.
  bool write_snapshot(const SnapshotData& snap);

  /// Store stats object for the `stats` op / exit metrics (appends,
  /// fsyncs, batch sizes, snapshots, recovery summary).
  void write_json(JsonWriter& w) const;

  FsyncPolicy fsync_policy() const { return options_.fsync; }

 private:
  const DurableStoreOptions options_;
  StoreMetrics metrics_;
  StoreRecovery recovery_;
  RecoveredState recovered_;
  std::unique_ptr<WalWriter> wal_;

  std::mutex encode_mutex_;  // guards body_ scratch across appenders
  ByteWriter body_;

  std::mutex snapshot_mutex_;  // single snapshot writer + compactor
  std::uint64_t last_snapshot_seq_ = 0;
  std::atomic<std::uint64_t> records_appended_{0};
  std::atomic<std::uint64_t> records_at_last_snapshot_{0};
};

}  // namespace tgroom
