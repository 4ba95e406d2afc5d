#include "infra.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "util/json.hpp"

extern char** environ;

namespace cbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// ---- child processes ------------------------------------------------------

pid_t ProcessGroup::spawn(const std::vector<std::string>& argv,
                          const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw BenchError("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  pids_.push_back(pid);
  return pid;
}

void ProcessGroup::kill(pid_t pid) {
  auto it = std::find(pids_.begin(), pids_.end(), pid);
  if (it == pids_.end()) return;
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  pids_.erase(it);
}

void ProcessGroup::kill_all() {
  for (pid_t pid : pids_) ::kill(pid, SIGKILL);
  for (pid_t pid : pids_) {
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  pids_.clear();
}

long long ProcessGroup::peak_rss_kib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  throw BenchError("no VmHWM for pid " + std::to_string(pid));
}

int wait_port_file(const std::string& path, pid_t pid, int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * std::uint64_t{1000000};
  while (now_ns() < deadline) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return port;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      throw BenchError("process " + std::to_string(pid) +
                       " exited before writing " + path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw BenchError("timed out waiting for " + path);
}

// ---- sockets --------------------------------------------------------------

namespace {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw BenchError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw BenchError("connect to 127.0.0.1:" + std::to_string(port) +
                     " failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// The integer id at the start of a response line ({"id":<n>,...}); -1 if
/// the line does not start that way.
std::int64_t response_id(std::string_view line) {
  constexpr std::string_view kHead = "{\"id\":";
  if (line.substr(0, kHead.size()) != kHead) return -1;
  std::int64_t id = 0;
  std::size_t i = kHead.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return -1;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    id = id * 10 + (line[i] - '0');
  }
  return i < line.size() && line[i] == ',' ? id : -1;
}

}  // namespace

LineClient::LineClient(int port) : fd_(connect_loopback(port)) {}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send(std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw BenchError("send failed");
    off += static_cast<std::size_t>(n);
  }
}

std::string LineClient::read_line(int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * std::uint64_t{1000000};
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    const std::uint64_t now = now_ns();
    if (now >= deadline) throw BenchError("timed out waiting for a response");
    pollfd p{fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now) / 1000000ull) + 1;
    if (::poll(&p, 1, wait_ms) < 0 && errno != EINTR) {
      throw BenchError("poll failed");
    }
    if (!(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw BenchError("connection closed while waiting");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string LineClient::call(std::string_view line, int timeout_ms) {
  std::string bytes(line);
  bytes += '\n';
  send(bytes);
  return read_line(timeout_ms);
}

// ---- closed-loop client -----------------------------------------------------

namespace {

struct InFlight {
  Request request;
  std::uint64_t sent_ns = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::vector<InFlight> inflight;
};

void flush_out(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) throw BenchError("send failed during the workload");
    c.out_off += static_cast<std::size_t>(n);
  }
  c.out.clear();
  c.out_off = 0;
}

/// Whether a response line reports success ({"id":N,"ok":true,...}).
bool is_ok_response(std::string_view line) {
  const std::size_t comma = line.find(',');
  return comma != std::string_view::npos &&
         line.substr(comma + 1, 9) == "\"ok\":true";
}

}  // namespace

PhaseResult run_closed_loop(int port, std::size_t conns, std::size_t window,
                            RequestSource& source, std::uint64_t duration_ns,
                            long long max_requests, Tracer* tracer) {
  std::vector<Conn> cs(conns);
  for (Conn& c : cs) {
    c.fd = connect_loopback(port);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  PhaseResult result;
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + duration_ns;
  std::uint64_t last_progress = start;
  bool issuing = true;
  std::size_t outstanding = 0;
  std::vector<pollfd> fds(conns);
  char chunk[256 * 1024];
  try {
    for (;;) {
      std::uint64_t now = now_ns();
      if (duration_ns > 0 && now >= deadline) issuing = false;
      if (duration_ns == 0 && result.attempted >= max_requests) {
        issuing = false;
      }
      for (Conn& c : cs) {
        while (issuing && c.inflight.size() < window &&
               (duration_ns > 0 || result.attempted < max_requests)) {
          InFlight f;
          source.next(static_cast<std::size_t>(&c - cs.data()), f.request);
          c.out += f.request.line;
          std::string().swap(f.request.line);
          f.sent_ns = now_ns();
          c.inflight.push_back(std::move(f));
          ++result.attempted;
          ++outstanding;
        }
        flush_out(c);
      }
      if (!issuing && outstanding == 0) break;
      if (now - last_progress > 60'000'000'000ull) {
        throw BenchError("no response for 60 s");
      }
      for (std::size_t i = 0; i < conns; ++i) {
        fds[i].fd = cs[i].fd;
        fds[i].events = static_cast<short>(
            POLLIN | (cs[i].out.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      int timeout_ms = 100;
      if (issuing && duration_ns > 0) {
        timeout_ms = static_cast<int>(
            std::min<std::uint64_t>(100, (deadline - now) / 1000000ull + 1));
      }
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
        throw BenchError("poll failed during the workload");
      }
      for (std::size_t i = 0; i < conns; ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Conn& c = cs[i];
        const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        if (n <= 0) throw BenchError("connection closed during the workload");
        const std::uint64_t recv_ns = now_ns();
        last_progress = recv_ns;
        c.in.append(chunk, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t nl = c.in.find('\n'); nl != std::string::npos;
             nl = c.in.find('\n', begin)) {
          const std::string_view line(c.in.data() + begin, nl - begin);
          begin = nl + 1;
          const std::int64_t id = response_id(line);
          auto it = std::find_if(
              c.inflight.begin(), c.inflight.end(),
              [id](const InFlight& f) { return f.request.id == id; });
          if (it == c.inflight.end()) {
            throw BenchError("response with unknown id: " +
                             std::string(line.substr(0, 80)));
          }
          // An error answer is no work done: it counts only as an error,
          // never toward rps or latency.
          if (!is_ok_response(line)) {
            ++result.errors;
          } else if (duration_ns == 0 || recv_ns <= deadline) {
            const double us =
                static_cast<double>(recv_ns - it->sent_ns) / 1e3;
            (it->request.write ? result.write_us : result.read_us)
                .push_back(us);
            ++result.completed_in_window;
          }
          if (tracer != nullptr) {
            tracer->record(it->request.write ? "client.write" : "client.read",
                           it->sent_ns, recv_ns, -1, id);
          }
          source.on_response(i, it->request, line);
          c.inflight.erase(it);
          --outstanding;
        }
        c.in.erase(0, begin);
      }
    }
  } catch (...) {
    for (Conn& c : cs) ::close(c.fd);
    throw;
  }
  for (Conn& c : cs) ::close(c.fd);
  result.seconds = static_cast<double>(
                       (duration_ns > 0 ? deadline : now_ns()) - start) /
                   1e9;
  return result;
}

void PhaseResult::merge(const PhaseResult& other) {
  seconds += other.seconds;
  attempted += other.attempted;
  completed_in_window += other.completed_in_window;
  errors += other.errors;
  read_us.insert(read_us.end(), other.read_us.begin(), other.read_us.end());
  write_us.insert(write_us.end(), other.write_us.begin(), other.write_us.end());
}

// ---- node stats ---------------------------------------------------------------

namespace {

long long int_at(const tgroom::JsonValue* obj, std::string_view key) {
  if (obj == nullptr) return 0;
  const tgroom::JsonValue* v = obj->find(key);
  return v != nullptr && v->is_number() ? static_cast<long long>(v->number)
                                        : 0;
}

}  // namespace

NodeStats fetch_stats(int port) {
  LineClient client(port);
  const tgroom::JsonValue doc =
      tgroom::parse_json(client.call(R"({"op":"stats"})"));
  const tgroom::JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr) metrics = doc.find("router");  // the router's own
  if (metrics == nullptr) throw BenchError("stats without metrics");
  const tgroom::JsonValue* counters = metrics->find("counters");
  NodeStats s;
  s.received = int_at(counters, "received");
  s.pipelined = int_at(counters, "pipelined");
  s.cache_hits = int_at(counters, "cache_hits");
  s.cache_misses = int_at(counters, "cache_misses");
  s.cache_evictions = int_at(counters, "cache_evictions");
  s.forwarded = int_at(counters, "forwarded");
  s.forward_retries = int_at(counters, "forward_retries");
  s.repl_fetches = int_at(counters, "repl_fetches");
  s.alloc_requests = int_at(metrics->find("allocations"), "requests");
  s.alloc_total = int_at(metrics->find("allocations"), "total");
  s.arena_peak_bytes = int_at(metrics->find("arena"), "peak_bytes");
  const tgroom::JsonValue* store = doc.find("store");
  s.store_appends = int_at(store, "appends");
  s.store_appended_bytes = int_at(store, "appended_bytes");
  s.store_snapshots = int_at(store, "snapshots_written");
  return s;
}

NodeStats operator-(const NodeStats& a, const NodeStats& b) {
  NodeStats d;
  d.received = a.received - b.received;
  d.pipelined = a.pipelined - b.pipelined;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.cache_evictions = a.cache_evictions - b.cache_evictions;
  d.forwarded = a.forwarded - b.forwarded;
  d.forward_retries = a.forward_retries - b.forward_retries;
  d.repl_fetches = a.repl_fetches - b.repl_fetches;
  d.alloc_requests = a.alloc_requests - b.alloc_requests;
  d.alloc_total = a.alloc_total - b.alloc_total;
  d.arena_peak_bytes = a.arena_peak_bytes;  // a high-water mark, not a count
  d.store_appends = a.store_appends - b.store_appends;
  d.store_appended_bytes = a.store_appended_bytes - b.store_appended_bytes;
  d.store_snapshots = a.store_snapshots - b.store_snapshots;
  return d;
}

// ---- tracing ----------------------------------------------------------------

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::int64_t request) {
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::record(const char* name, std::uint64_t start, std::uint64_t end,
                    std::int32_t parent, std::int64_t request) {
  spans_.push_back(Span{name, start, end, parent, request});
}

std::vector<Tracer::Layer> Tracer::self_times() const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Layer> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& l = by_name[s.name];
    l.name = s.name;
    ++l.count;
    const double total = static_cast<double>(s.end_ns - s.start_ns);
    l.total_ms += total / 1e6;
    l.self_ms += (total - child_ns[i]) / 1e6;
  }
  std::vector<Layer> out;
  for (auto& [name, layer] : by_name) out.push_back(layer);
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\":[";
  std::uint64_t origin = ~0ull;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n[\"" << s.name << "\","
        << (s.start_ns - origin) << "," << (s.end_ns - origin) << ","
        << s.parent << "," << s.request << "]";
  }
  out << "\n],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\","
         "\"request\"]}\n";
  if (!out) throw BenchError("cannot write " + path);
}

}  // namespace cbench
