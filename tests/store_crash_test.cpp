// Crash-injection tests: a child process applies a scripted mutation
// workload against a DurableStore and raise(SIGKILL)s itself at a
// randomly chosen operation.  The parent recovers the directory and
// asserts the recovered table is bit-identical (via serialize_plan) to a
// reference built by applying the same first S operations in-process,
// where S is whatever sequence number survived on disk.
//
// Suite is named StoreCrash and deliberately excluded from the TSan CI
// regex: fork() in an instrumented multi-threaded binary is out of
// scope; the crash semantics are single-threaded by design.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "grooming/incremental.hpp"
#include "grooming/plan.hpp"
#include "store/durable_store.hpp"
#include "util/rng.hpp"

namespace tgroom {
namespace {

namespace fs = std::filesystem;

constexpr int kPlanCount = 4;

struct CrashTempDir {
  fs::path path;

  explicit CrashTempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("tgroom_store_crash_" + tag + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~CrashTempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

GroomingPlan seed_plan(int index) {
  GroomingPlan plan;
  plan.ring_size = 12;
  plan.grooming_factor = 4;
  extend_plan_incremental(
      plan, {{static_cast<NodeId>(index), static_cast<NodeId>(index + 5)}});
  return plan;
}

/// Deterministic pair for operation `op` (independent of any RNG state so
/// the child and the parent's reference agree without communication).
DemandPair op_pair(std::size_t op) {
  const auto a = static_cast<NodeId>((op * 7 + 1) % 12);
  NodeId b = static_cast<NodeId>((op * 5 + 3) % 12);
  if (b == a) b = static_cast<NodeId>((b + 1) % 12);
  return DemandPair{std::min(a, b), std::max(a, b)};
}

/// Applies operation `op` (0-based) to an in-memory table, mirroring
/// exactly what the child logs.  Ops 0..kPlanCount-1 create held plans;
/// later ops provision them round-robin.
void apply_op(std::size_t op,
              std::unordered_map<std::int64_t, GroomingPlan>& plans) {
  if (op < kPlanCount) {
    plans.emplace(static_cast<std::int64_t>(op) + 1,
                  seed_plan(static_cast<int>(op)));
  } else {
    const std::int64_t plan_id =
        static_cast<std::int64_t>(op % kPlanCount) + 1;
    extend_plan_incremental(plans.at(plan_id), {op_pair(op)});
  }
}

GroomCacheKey crash_key(std::size_t op) {
  GroomCacheKey key;
  key.fingerprint = 0x0100000000000000ull + op;
  key.k = 4;
  return key;
}

/// Child body: run `crash_at` operations against a fresh DurableStore in
/// `dir`, then die without any cleanup.  When `ack_fd` >= 0, writes the
/// number of *synced* ops after every sync so the parent can check the
/// durability promise (acked implies recovered).  Never returns.
[[noreturn]] void run_child(const std::string& dir, FsyncPolicy fsync,
                            std::size_t crash_at, int ack_fd) {
  {
    DurableStoreOptions options;
    options.dir = dir;
    options.fsync = fsync;
    options.snapshot_every = 16;  // exercise snapshots + compaction too
    options.segment_bytes = 2048;  // and frequent segment rolls
    DurableStore store(options);
    std::unordered_map<std::int64_t, GroomingPlan> plans;
    for (std::size_t op = 0; op < crash_at; ++op) {
      std::uint64_t seq = 0;
      if (op < kPlanCount) {
        const auto plan_id = static_cast<std::int64_t>(op) + 1;
        plans.emplace(plan_id, seed_plan(static_cast<int>(op)));
        GroomCacheValue value;
        value.sadms = static_cast<long long>(op);
        seq = store.append_hold(plan_id, plans.at(plan_id), crash_key(op),
                                value);
      } else {
        const std::int64_t plan_id =
            static_cast<std::int64_t>(op % kPlanCount) + 1;
        const std::vector<DemandPair> add = {op_pair(op)};
        extend_plan_incremental(plans.at(plan_id), add);
        seq = store.append_provision(plan_id, add);
      }
      store.sync(seq);
      if (ack_fd >= 0) {
        // With fsync=always, sync() returning means op+1 ops are durable.
        const std::uint64_t acked = static_cast<std::uint64_t>(op) + 1;
        (void)!::write(ack_fd, &acked, sizeof(acked));
      }
      if (store.snapshot_due()) {
        SnapshotData snap;
        snap.last_seq = store.last_seq();
        snap.next_plan_id = kPlanCount + 1;
        for (const auto& [id, plan] : plans) {
          snap.plans.emplace_back(id, plan);
        }
        std::sort(snap.plans.begin(), snap.plans.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        store.write_snapshot(snap);
      }
    }
    std::raise(SIGKILL);
  }
  _exit(0);  // unreachable; keeps [[noreturn]] honest if SIGKILL fails
}

/// One crash trial: child runs `crash_at` of `total_ops` ops and dies;
/// the parent recovers and compares against the in-process reference.
/// Returns the number of ops that survived (the recovered last_seq).
std::uint64_t run_trial(const std::string& tag, FsyncPolicy fsync,
                        std::size_t total_ops, std::size_t crash_at,
                        std::uint64_t min_recovered_ops) {
  CrashTempDir dir(tag);
  int ack_pipe[2] = {-1, -1};
  const bool check_acks = fsync == FsyncPolicy::kAlways;
  if (check_acks) {
    if (::pipe(ack_pipe) != 0) {
      ADD_FAILURE() << "pipe() failed";
      return 0;
    }
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork() failed";
    return 0;
  }
  if (pid == 0) {
    // Child: no gtest machinery, no stdio cleanup — just run and die.
    if (check_acks) ::close(ack_pipe[0]);
    run_child(dir.str(), fsync, std::min(crash_at, total_ops),
              check_acks ? ack_pipe[1] : -1);
  }

  std::uint64_t acked = 0;
  if (check_acks) {
    ::close(ack_pipe[1]);
    std::uint64_t value = 0;
    while (::read(ack_pipe[0], &value, sizeof(value)) ==
           static_cast<ssize_t>(sizeof(value))) {
      acked = value;
    }
    ::close(ack_pipe[0]);
  }

  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die by SIGKILL, status=" << status;

  // Recover.  The recovered sequence number S says exactly how many ops
  // reached the disk (one WAL record per op).
  StoreRecovery recovery;
  RecoveredState state;
  try {
    state = recover_store_state(dir.str(), &recovery, /*repair=*/true);
  } catch (const CheckError& e) {
    ADD_FAILURE() << tag << ": recovery threw: " << e.what();
    return 0;
  }
  const std::uint64_t survived = recovery.last_seq;
  EXPECT_LE(survived, static_cast<std::uint64_t>(crash_at)) << tag;
  EXPECT_GE(survived, min_recovered_ops)
      << tag << ": durability promise broken (acked " << min_recovered_ops
      << " ops, recovered only " << survived << ")";
  if (check_acks) {
    EXPECT_GE(survived, acked)
        << tag << ": fsync=always acked op " << acked
        << " was not recovered";
  }

  // Reference: the same first `survived` ops applied in-process.
  std::unordered_map<std::int64_t, GroomingPlan> reference;
  for (std::uint64_t op = 0; op < survived; ++op) {
    apply_op(static_cast<std::size_t>(op), reference);
  }
  EXPECT_EQ(state.plans.size(), reference.size()) << tag;
  for (const auto& [id, plan] : reference) {
    const auto it = state.plans.find(id);
    if (it == state.plans.end()) {
      ADD_FAILURE() << tag << ": plan " << id << " missing after recovery";
      continue;
    }
    // Bit-identical: same serialized text, byte for byte.
    EXPECT_EQ(serialize_plan(it->second.plan), serialize_plan(plan))
        << tag << ": plan " << id << " diverged";
  }

  // Recovery must be stable: a second (read-only) pass sees a clean
  // store with the same tail — the torn record, if any, stayed dead.
  StoreRecovery second;
  RecoveredState again =
      recover_store_state(dir.str(), &second, /*repair=*/false);
  EXPECT_FALSE(second.torn_truncated) << tag;
  EXPECT_EQ(second.last_seq, survived) << tag;
  EXPECT_EQ(again.plans.size(), state.plans.size()) << tag;
  return survived;
}

TEST(StoreCrash, RandomSigkillPointsRecoverBitIdentical) {
  // ISSUE acceptance: >= 50 random SIGKILL points during a 1000-op
  // workload, each recovering bit-identical to the uncrashed reference.
  // fsync none/batch alternate: recovery correctness must not depend on
  // the sync policy, only *how much* survives does.
  constexpr std::size_t kTrials = 50;
  constexpr std::size_t kOps = 1000;
  Rng rng(20260805);
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::size_t crash_at =
        1 + static_cast<std::size_t>(rng.below(kOps));
    const FsyncPolicy fsync =
        trial % 2 == 0 ? FsyncPolicy::kNone : FsyncPolicy::kBatch;
    run_trial("trial" + std::to_string(trial), fsync, kOps, crash_at, 0);
  }
}

TEST(StoreCrash, FsyncAlwaysNeverLosesAnAckedOperation) {
  // With fsync=always every sync() that returned before the SIGKILL is a
  // durability promise; the child acks each one over a pipe and the
  // parent asserts recovery covers every acked op.
  constexpr std::size_t kTrials = 6;
  constexpr std::size_t kOps = 150;
  Rng rng(42);
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const std::size_t crash_at =
        1 + static_cast<std::size_t>(rng.below(kOps));
    run_trial("always" + std::to_string(trial), FsyncPolicy::kAlways, kOps,
              crash_at, 0);
  }
}

TEST(StoreCrash, CrashBeforeAnyDurableRecordRecoversEmpty) {
  // Crash after op 1 with fsync=none: possibly nothing reached the disk.
  // Whatever the outcome, recovery must not invent state.
  const std::uint64_t survived =
      run_trial("early", FsyncPolicy::kNone, 1, 1, 0);
  EXPECT_LE(survived, 1u);
}

}  // namespace
}  // namespace tgroom
