// Benchmark infrastructure: child processes, loopback sockets, the
// closed-loop client, node stats, statistics helpers and the span tracer.
// Nothing here knows a workload; cbench.cpp builds the workloads on top.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cbench {

/// Any failure that makes the run unusable (a node died, a socket broke,
/// a timeout): main() stops the cluster and exits non-zero without a result.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull);

// ---- child processes ------------------------------------------------------

/// Owns every process the benchmark starts.  kill_all() (also run by the
/// destructor) SIGKILLs each child and waits until it has ended.
class ProcessGroup {
 public:
  ProcessGroup() = default;
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;
  ~ProcessGroup() { kill_all(); }

  /// Starts argv with stdin from /dev/null and stdout/stderr appended to
  /// `log_path`.  Returns the pid.
  pid_t spawn(const std::vector<std::string>& argv,
              const std::string& log_path);
  /// SIGKILLs one child and reaps it.
  void kill(pid_t pid);
  void kill_all();
  /// Peak resident set (VmHWM) of a live child, in KiB.
  static long long peak_rss_kib(pid_t pid);

 private:
  std::vector<pid_t> pids_;
};

/// Polls `path` until the child writes its bound port there.  Throws if
/// the child exits first or `timeout_ms` passes.
int wait_port_file(const std::string& path, pid_t pid, int timeout_ms);

// ---- sockets --------------------------------------------------------------

/// Blocking loopback connection for one-request-at-a-time calls (stats,
/// health, preload, probes).  Every read has a deadline.
class LineClient {
 public:
  explicit LineClient(int port);
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient();

  /// Sends one line (newline appended) and returns the next response line.
  std::string call(std::string_view line, int timeout_ms = 30000);

 private:
  void send(std::string_view bytes);
  std::string read_line(int timeout_ms);

  int fd_ = -1;
  std::string buf_;
};


// ---- closed-loop client -----------------------------------------------------

/// One request the client sends: the line (with trailing newline) and the
/// id its response echoes.
struct Request {
  std::string line;
  std::int64_t id = 0;
  bool write = false;  // held-plan mutation (vs. read)
  std::uint64_t tag = 0;  // the workload's own bookkeeping
};

/// What a workload gives the client loop: the next request for a connection,
/// and the response to each request it issued.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// Fills `out` with the connection's next request.
  virtual void next(std::size_t conn, Request& out) = 0;
  /// Called once per response, in arrival order per connection.
  virtual void on_response(std::size_t conn, const Request& request,
                           std::string_view line) = 0;
};

struct PhaseResult {
  double seconds = 0;             // measured window length
  long long attempted = 0;        // requests sent in the phase
  long long completed_in_window = 0;  // "ok":true responses in the window
  long long errors = 0;           // other responses (all, incl. drained)
  std::vector<double> read_us;    // per "ok":true response in the window
  std::vector<double> write_us;

  /// Pools another phase into this one (samples, counts and time).
  void merge(const PhaseResult& other);
};

class Tracer;

/// Runs `conns` connections to `port`, each keeping `window` requests in
/// flight, until `duration_ns` has passed (or `max_requests` were sent when
/// duration_ns == 0).  Then stops issuing and drains every outstanding
/// response.  Single-threaded: poll() over the connections.  A non-null
/// `tracer` gets one span per request (send to response line).
PhaseResult run_closed_loop(int port, std::size_t conns, std::size_t window,
                            RequestSource& source, std::uint64_t duration_ns,
                            long long max_requests, Tracer* tracer);

// ---- node stats ---------------------------------------------------------------

/// Counters of one node's `stats` document, flattened to the names the
/// benchmark reads.
struct NodeStats {
  long long received = 0, pipelined = 0;
  long long cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  long long forwarded = 0, forward_retries = 0, repl_fetches = 0;
  long long alloc_requests = 0, alloc_total = 0, arena_peak_bytes = 0;
  long long store_appends = 0, store_appended_bytes = 0,
            store_snapshots = 0;
};
NodeStats fetch_stats(int port);
NodeStats operator-(const NodeStats& a, const NodeStats& b);

// ---- tracing ----------------------------------------------------------------

/// In-memory spans (name, start, end, parent, request id), written out when
/// the run ends.  Spans are recorded from the benchmark's own code only.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 for a root
    std::int64_t request;
  };
  std::int32_t begin(const char* name, std::int32_t parent = -1,
                     std::int64_t request = -1);
  void end(std::int32_t span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  }
  /// Records a finished span with explicit stamps (client requests).
  void record(const char* name, std::uint64_t start, std::uint64_t end,
              std::int32_t parent, std::int64_t request);
  const std::vector<Span>& spans() const { return spans_; }
  double duration_us(std::int32_t span) const {
    const Span& s = spans_[static_cast<std::size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  /// Runs f() inside a span and returns its duration in microseconds.
  template <typename F>
  double timed_us(const char* name, std::int32_t parent, F&& f) {
    const std::int32_t span = begin(name, parent);
    f();
    end(span);
    return duration_us(span);
  }
  /// Per span name: (count, total ns, self ns = total minus child spans).
  struct Layer {
    std::string name;
    long long count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<Layer> self_times() const;
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace cbench
