// The request-execution seam between the epoll event loop — the one
// request lifecycle, for TCP connections and the stdin/stdout stream
// alike — and whatever answers requests behind it.
//
// The grooming service and the cluster front-end (src/cluster/router.hpp)
// need the same machinery — connections, pipelining, outboxes,
// backpressure, drain — and the router owns no grooming state.
// EventLoopHandler is the narrow interface the loop actually consumes:
// execution, the admission knobs, metrics, and the drain hooks.
// GroomingService and ClusterRouter both implement it; the loop never
// knows which it is serving.
//
// Threading contract: execute_into() runs on worker threads (or on the
// loop thread when worker_count() == 0, and always on the loop thread for
// `health`, which is answered inline ahead of queued work — so a health
// response must stay cheap and must not block on locks a worker can hold
// across a long computation).  The remaining methods are called from the
// loop thread only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tgroom {

struct ServiceRequest;
struct GroomingWorkspace;
class JsonWriter;
class ServiceMetrics;

class EventLoopHandler {
 public:
  virtual ~EventLoopHandler() = default;

  virtual ServiceMetrics& metrics() = 0;

  // Admission knobs (the loop sizes its queue and worker pool from these).
  virtual std::size_t worker_count() const = 0;
  virtual std::size_t handler_queue_capacity() const = 0;
  virtual std::int64_t handler_default_deadline_ms() const = 0;
  virtual bool metrics_on_exit() const = 0;

  /// Polled each loop turn; true begins the SIGTERM-style drain.
  virtual bool drain_requested() const = 0;

  /// When true the loop copies each request's original line into
  /// ServiceRequest::raw before execution (the router forwards those
  /// bytes; the grooming service never pays the copy).
  virtual bool wants_raw_line() const { return false; }

  /// The name the listen announcement and log lines lead with.
  virtual const char* log_name() const = 0;

  /// Executes one parsed request, writing the response line into `w`
  /// (cleared first).
  virtual void execute_into(ServiceRequest& request,
                            GroomingWorkspace& workspace, JsonWriter& w) = 0;

  /// Called once on the loop thread when a drain begins (shutdown request
  /// or drain_requested()), before queued work is rejected.  The router
  /// fans the shutdown out to every shard here.
  virtual void on_drain_begin() {}

  /// Called once, on the loop thread, when no request is in flight any
  /// more: before the `shutdown` ack on a shutdown/SIGTERM drain, or
  /// before run() returns after an EOF drain.  The service flushes and
  /// snapshots its store here, so an acked shutdown is durable; the
  /// router shuts its shards down.
  virtual void finalize() {}

  /// The {"event":"exit",...} document written last when
  /// metrics_on_exit() is set: to the log for a listener, to the output
  /// for a stream.  `w` is cleared first.
  virtual void write_exit_metrics(JsonWriter& w) = 0;
};

}  // namespace tgroom
