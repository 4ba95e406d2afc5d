// The epoll event loop: the one request lifecycle of the grooming
// service and the cluster router.
//
// EventLoopServer is a non-blocking, level-triggered epoll loop.  It
// serves either many loopback TCP connections or one (in_fd, out_fd)
// stream pair — `tgroom serve` without `--port` serves fds 0 and 1, and
// GroomingService::run() serves any std::istream/std::ostream through
// anonymous spool files.  Admission, inline `health`, `overloaded`,
// the EOF and `shutdown` drains, the shutdown ack and the exit metrics
// exist only here, for both transports:
//
//  - Per-connection state machines.  Each connection owns a read buffer
//    and a write outbox drawn from its own MonotonicArena pair, so a
//    warm connection's buffer traffic never touches the heap.  Reads and
//    writes are partial-tolerant: a request line may arrive over any
//    number of readiness events, and a response drains across as many
//    EPOLLOUT cycles as the socket needs.
//  - Pipelining.  A readiness event parses every complete NDJSON line
//    the buffer holds (bounded per connection per loop iteration by
//    `max_batch` for fairness; the remainder is replayed before the next
//    epoll_wait), so a client keeping N requests in flight pays one
//    read() for many requests.
//  - Write-back.  Workers never write to fds.  They append finished
//    response lines to the owning connection's outbox under its mutex
//    (line-atomic — bytes of two responses never interleave) and nudge
//    the loop through an eventfd; the loop flushes outboxes and arms
//    EPOLLOUT only while a socket is write-blocked.
//  - Backpressure.  A full admission queue answers `overloaded`
//    immediately and the connection stays up.  A connection whose outbox
//    exceeds `outbox_pause_bytes` (slow reader) stops being read until
//    the outbox drains below half the cap, so memory stays bounded per
//    connection rather than per offered load.
//  - Drain.  EOF stops admission from that connection but every accepted
//    request still gets its response before it closes.  A `shutdown`
//    request (from any connection) or SIGTERM stops accepting, rejects
//    still-queued requests as `shutting_down`, waits for in-flight work,
//    runs the handler's finalize() (the service flushes its WAL and
//    writes a final snapshot), and only then acks the `shutdown`, flushes
//    every outbox and returns.  `--data-dir` appends happen inside
//    execute_into() before the response line exists, so append-before-
//    ack holds whatever the connection count.
//  - The stream pair.  Its fds stay blocking (a tty is shared with the
//    parent shell): one read() per readiness event, blocking writes.  An
//    input epoll cannot watch (a regular file, /dev/null) is treated as
//    always readable until EOF.  The loop never closes either fd; run()
//    returns once the stream is drained (EOF) or after a shutdown/SIGTERM
//    drain, and writes the exit-metrics line to out_fd last.
//
// Linux-only (epoll, eventfd, accept4), like the whole build.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace tgroom {

class EventLoopHandler;

/// Writes all of `bytes` to the blocking `fd`, retrying short writes and
/// EINTR (and waiting out EAGAIN should the fd be non-blocking after
/// all).  False on any other error.
bool write_fully(int fd, std::string_view bytes);

struct EventLoopConfig {
  int port = 0;  // loopback TCP port; 0 picks an ephemeral port (see port())
  int backlog = 0;               // listen() backlog; 0 = SOMAXCONN
  std::size_t max_connections = 1024;  // beyond this, accepts are refused
  std::size_t read_chunk = 64 * 1024;  // bytes per read() call
  std::size_t max_batch = 256;   // request lines per connection per loop turn
  // A single request line longer than this kills the connection (the
  // stream cannot be resynchronized); responses are unbounded.
  std::size_t max_request_bytes = 16u << 20;
  // Reads from a connection pause while its outbox holds more than this
  // many unflushed bytes, and resume below half of it.
  std::size_t outbox_pause_bytes = 4u << 20;
  int sndbuf = 0;  // SO_SNDBUF on accepted sockets when > 0 (tests)
};

/// One epoll server.  The listener form binds 127.0.0.1:`config.port` in
/// the constructor (so ephemeral ports are known before run(), which
/// tests and the bench need); the stream form serves `in_fd`/`out_fd` as
/// its only connection.  run() serves until a `shutdown` request or the
/// handler reports drain_requested() (wired to
/// GroomingService::request_stop() by both implementations), or, in the
/// stream form, until the stream is drained.  The handler decides what a
/// request *means* — grooming service or cluster router
/// (service/handler.hpp); the loop is pure IO machinery.
class EventLoopServer {
 public:
  EventLoopServer(EventLoopHandler& handler, const EventLoopConfig& config);
  EventLoopServer(EventLoopHandler& handler, int in_fd, int out_fd,
                  const EventLoopConfig& config = EventLoopConfig{});
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// False when the listen socket could not be set up; error() says why.
  bool valid() const;
  const std::string& error() const;

  /// The actually-bound port (resolves config.port == 0; 0 for a stream).
  int port() const;

  /// Serves until drained; returns 0 on a clean drain.  Progress and
  /// errors go to `log`; the final metrics line goes to `log` for the
  /// listener and to out_fd for the stream.
  int run(std::ostream& log);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tgroom
