// Service-level observability: request counters and a latency histogram.
//
// All mutation is lock-free (relaxed atomics — the counters are
// statistics, not synchronization), so workers never contend on a metrics
// mutex.  Snapshots are taken counter-by-counter; a snapshot concurrent
// with traffic is approximate, which is the standard metrics contract.
//
// The latency histogram is log2-bucketed in microseconds: bucket i counts
// requests with latency in [2^(i-1), 2^i) µs (bucket 0 is < 1 µs), which
// spans sub-microsecond cache hits to multi-minute groomings in 32
// buckets with no configuration.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>

namespace tgroom {

class JsonWriter;

class ServiceMetrics {
 public:
  enum class Counter : std::size_t {
    kReceived,          // parseable or not, every non-blank request line
    kOk,                // responses with "ok":true
    kError,             // structured error responses (all codes)
    kOverloaded,        // subset of kError: admission-queue rejections
    kShuttingDown,      // subset of kError: queued requests answered on drain
    kDeadlineExceeded,  // subset of kError: per-request deadline expired
    kCacheHits,
    kCacheMisses,
    kCacheEvictions,
    kStoreAppends,      // WAL records appended by the durable store
    kStoreSnapshots,    // snapshots written by the durable store
    kConnAccepted,      // connections accepted by the event loop (a
                        // stdin/stdout session counts as one)
    kConnClosed,        // connections closed (EOF, error, or drain)
    kPipelined,         // requests parsed beyond the first of a readiness
                        // batch (the pipelining depth actually realized)
    kReadOnlyRejected,  // subset of kError: mutations refused by a replica
    kReplFetches,       // repl_fetch batches served (primary side)
    kReplRecordsShipped,  // WAL records shipped to followers
    kReplRecordsApplied,  // shipped records applied locally (replica side)
    kForwarded,         // router: requests forwarded to a shard backend
    kForwardRetries,    // router: forward attempts after the first
    kFailovers,         // router: replica promotions triggered by the prober
    kShardDownErrors,   // subset of kError: no reachable node for the shard
    kCount_,
  };
  static constexpr std::size_t kCounterCount =
      static_cast<std::size_t>(Counter::kCount_);
  static constexpr std::size_t kLatencyBuckets = 32;

  void increment(Counter c, long long delta = 1);
  long long count(Counter c) const;

  void observe_latency(std::chrono::nanoseconds elapsed);

  /// Records how many heap allocations one request performed (measured by
  /// the worker via util/alloc_tracker.hpp).  Makes the zero-allocation
  /// request path (DESIGN.md §11) observable in production: a healthy
  /// cache-warm service shows max == 0 over the cached traffic.
  void observe_allocations(long long count);

  /// Records a worker workspace's arena high-water mark after a request
  /// (MonotonicArena::peak_bytes()).  The published value is the max over
  /// workers — the per-worker bound on irregular-scratch memory, the
  /// big-graph observable bench_scale tracks (DESIGN.md §16).
  void observe_arena_peak(std::size_t peak_bytes);

  /// Emits {"counters":{...},"latency":{...},"allocations":
  /// {requests,total,max},"arena":{"peak_bytes":...}}.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

 private:
  std::array<std::atomic<long long>, kCounterCount> counters_{};
  std::array<std::atomic<long long>, kLatencyBuckets> latency_buckets_{};
  std::atomic<long long> latency_count_{0};
  std::atomic<long long> latency_sum_us_{0};
  std::atomic<long long> latency_max_us_{0};
  std::atomic<long long> alloc_requests_{0};
  std::atomic<long long> alloc_total_{0};
  std::atomic<long long> alloc_max_{0};
  std::atomic<long long> arena_peak_bytes_{0};
};

}  // namespace tgroom
