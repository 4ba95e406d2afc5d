// The cluster under test and the three closed-loop workloads that drive it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gen.hpp"
#include "infra.hpp"

namespace cbench {

constexpr std::size_t kShards = 2;

/// `tgroom route --workers 2` over kShards groups, each a
/// `tgroom serve --data-dir --fsync batch --workers 2` primary plus one
/// `--replica-of` replica, all on loopback ephemeral ports.
class Cluster {
 public:
  struct Node {
    std::string name;
    pid_t pid = 0;
    int port = 0;
    int shard = -1;  // -1: the router
    bool primary = false;
    std::vector<std::string> argv;
  };

  Cluster(std::string tgroom, std::string dir)
      : tgroom_(std::move(tgroom)), dir_(std::move(dir)) {}

  /// Wipes the data dirs, launches all five processes and returns once the
  /// router's health shows every member of every shard up.
  void start();
  void stop() { procs_.kill_all(); }

  const Node& primary(std::size_t shard) const { return nodes_[2 * shard]; }
  const Node& replica(std::size_t shard) const { return nodes_[2 * shard + 1]; }
  const std::vector<Node>& nodes() const { return nodes_; }  // shard nodes
  const Node& router() const { return router_; }
  /// Sum of VmHWM over the five serving processes, in MiB.
  double peak_rss_mb() const;
  /// The serve command line shared by cluster primaries and the restart
  /// that recovery_s times.
  std::vector<std::string> serve_argv(const std::string& data_dir,
                                      const std::string& port_file,
                                      const std::string& node_id,
                                      std::size_t shard) const;
  ProcessGroup& processes() { return procs_; }

 private:
  std::string tgroom_;
  std::string dir_;
  ProcessGroup procs_;
  std::vector<Node> nodes_;
  Node router_;
};

/// Collects correctness failures; any failure makes the run incorrect.
struct Checker {
  std::atomic<long long> checked{0};
  std::atomic<long long> failures{0};
  std::mutex mutex;
  /// Counts one check; on failure reports `what` and `detail`.
  void expect(bool ok, std::string_view what, std::string_view detail = {});
};

/// Poll health until every replica's applied_seq equals its primary's
/// last_seq; a replica that does not catch up within 20 s is a failure.
void check_replicas_drained(const Cluster& cluster, Checker& checker);
/// Sum over shards of primary last_seq - replica applied_seq, now.
long long replication_lag(const Cluster& cluster);

/// One read request for the per-layer probes.
struct ReadSample {
  std::string body;  // request line without the id prefix
  int shard = 0;     // the shard the router forwards it to
};

class Workload : public RequestSource {
 public:
  virtual const char* name() const = 0;
  virtual std::size_t conns() const = 0;
  virtual std::size_t window() const = 0;
  /// One line naming the generator parameters (printed with every run).
  virtual std::string params() const = 0;
  virtual long long warmup_requests() const = 0;
  /// Resets the request stream for a freshly started cluster and preloads.
  virtual void begin(Cluster& cluster) = 0;
  /// Whole-run checks once the timed phase is over (offline replays,
  /// final plan fetches).  Stops background generation.
  virtual void finish(Cluster& cluster) = 0;
  /// Digest of the first `n` request lines per connection of a fresh
  /// stream and of their offline answers: equal seeds, equal digests.
  virtual std::uint64_t request_digest(std::size_t n) = 0;
  virtual std::uint64_t answer_digest(std::size_t n) = 0;
  // Samples for the per-layer probes; each workload sizes its own (fewer
  // of cold_big's ~190 KB lines).
  /// The first request lines (no newline) of a fresh stream, all ops.
  virtual std::vector<std::string> sample_lines() = 0;
  /// Read requests of the workload for the RTT and execute probes.
  virtual std::vector<ReadSample> read_sample() = 0;
  /// Times the serializer of the workload's typical response, in µs.
  virtual std::vector<double> serialize_us(Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Checker& checker);

}  // namespace cbench
