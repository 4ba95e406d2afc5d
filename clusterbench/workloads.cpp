#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <iostream>
#include <thread>

#include "algorithms/spant_euler.hpp"
#include "cluster/cluster_map.hpp"
#include "graph/fingerprint.hpp"
#include "grooming/incremental.hpp"
#include "grooming/repair.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"

namespace cbench {

namespace fs = std::filesystem;
using namespace tgroom;

namespace {

constexpr const char* kLoopback = "127.0.0.1:";

long long health_int(int port, const char* key) {
  LineClient c(port);
  const JsonValue doc = parse_json(c.call(R"({"op":"health"})", 5000));
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? static_cast<long long>(v->number)
                                        : -1;
}

int fingerprint_shard(const Graph& g) {
  return static_cast<int>(
      cluster::shard_for_key(graph_fingerprint(g), kShards));
}

int pairs_shard(const std::vector<DemandPair>& pairs) {
  return static_cast<int>(
      cluster::shard_for_key(cluster::pairs_route_key(pairs), kShards));
}

/// Runs fn(i) for i in [0, n) on up to hardware_concurrency threads.
template <typename F>
void parallel_for(std::size_t n, F&& fn) {
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(), n));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  std::exception_ptr error;
  std::mutex error_mutex;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next++; i < n; i = next++) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// One lockstep request: `body` sent with id 0, the response line back.
std::string ask(LineClient& client, std::string_view body) {
  std::string l = line(0, body);
  l.pop_back();
  return client.call(l);
}

bool field_is(std::string_view line, const char* key, long long expected) {
  const std::optional<long long> v = int_field(line, key);
  return v && *v == expected;
}

}  // namespace

// ---- cluster ------------------------------------------------------------------

std::vector<std::string> Cluster::serve_argv(const std::string& data_dir,
                                             const std::string& port_file,
                                             const std::string& node_id,
                                             std::size_t shard) const {
  return {tgroom_,       "serve",         "--data-dir",    data_dir,
          "--fsync",     "batch",         "--workers",     "2",
          "--port",      "0",             "--port-file",   port_file,
          "--node-id",   node_id,         "--shard-index", std::to_string(shard),
          "--shard-count", std::to_string(kShards), "--exit-metrics", "false"};
}

void Cluster::start() {
  procs_.kill_all();
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  nodes_.assign(2 * kShards, Node{});
  for (std::size_t s = 0; s < kShards; ++s) {
    for (int r = 0; r < 2; ++r) {
      Node& n = nodes_[2 * s + static_cast<std::size_t>(r)];
      n.name = std::string(r == 0 ? "p" : "r");
      n.name += std::to_string(s);
      n.shard = static_cast<int>(s);
      n.primary = r == 0;
    }
  }
  auto launch = [&](Node& n, std::vector<std::string> extra) {
    n.argv = serve_argv(dir_ + "/" + n.name, dir_ + "/" + n.name + ".port",
                        n.name, static_cast<std::size_t>(n.shard));
    n.argv.insert(n.argv.end(), extra.begin(), extra.end());
    n.pid = procs_.spawn(n.argv, dir_ + "/" + n.name + ".log");
  };
  for (std::size_t s = 0; s < kShards; ++s) launch(nodes_[2 * s], {});
  for (std::size_t s = 0; s < kShards; ++s) {
    nodes_[2 * s].port =
        wait_port_file(dir_ + "/" + nodes_[2 * s].name + ".port",
                       nodes_[2 * s].pid, 15000);
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    launch(nodes_[2 * s + 1],
           {"--replica-of", kLoopback + std::to_string(nodes_[2 * s].port)});
  }
  std::string spec;
  for (std::size_t s = 0; s < kShards; ++s) {
    Node& r = nodes_[2 * s + 1];
    r.port = wait_port_file(dir_ + "/" + r.name + ".port", r.pid, 15000);
    if (s > 0) spec += ';';
    spec += kLoopback + std::to_string(nodes_[2 * s].port) + "," + kLoopback +
            std::to_string(r.port);
  }
  router_ = Node{};
  router_.name = "router";
  router_.argv = {tgroom_,     "route",         "--shards",       spec,
                  "--workers", "2",             "--port",         "0",
                  "--port-file", dir_ + "/router.port", "--exit-metrics",
                  "false"};
  router_.pid = procs_.spawn(router_.argv, dir_ + "/router.log");
  router_.port = wait_port_file(dir_ + "/router.port", router_.pid, 15000);
  const std::uint64_t deadline = now_ns() + 15'000'000'000ull;
  LineClient health(router_.port);
  for (;;) {
    const JsonValue doc = parse_json(health.call(R"({"op":"health"})"));
    const JsonValue* shards = doc.find("shards");
    bool up = shards != nullptr && shards->array.size() == kShards;
    for (std::size_t s = 0; up && s < kShards; ++s) {
      const JsonValue& sh = shards->array[s];
      up = sh.find("members_up")->as_int() == sh.find("members")->as_int();
    }
    if (up) return;
    if (now_ns() > deadline) throw BenchError("cluster never became healthy");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double Cluster::peak_rss_mb() const {
  long long kib = ProcessGroup::peak_rss_kib(router_.pid);
  for (const Node& n : nodes_) kib += ProcessGroup::peak_rss_kib(n.pid);
  return static_cast<double>(kib) / 1024.0;
}

void Checker::expect(bool ok, std::string_view what, std::string_view detail) {
  ++checked;
  if (ok) return;
  if (++failures <= 20) {
    std::lock_guard<std::mutex> lock(mutex);
    std::cerr << "cbench: CHECK FAILED: " << what << detail.substr(0, 300)
              << "\n";
  }
}

void check_replicas_drained(const Cluster& cluster, Checker& checker) {
  for (std::size_t s = 0; s < kShards; ++s) {
    const long long last = health_int(cluster.primary(s).port, "last_seq");
    const std::uint64_t deadline = now_ns() + 20'000'000'000ull;
    long long applied = -1;
    while (now_ns() < deadline) {
      applied = health_int(cluster.replica(s).port, "applied_seq");
      if (applied == last) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    checker.expect(applied == last,
                   "replica of shard " + std::to_string(s) + " applied_seq " +
                       std::to_string(applied) + " != primary last_seq " +
                       std::to_string(last));
  }
}

long long replication_lag(const Cluster& cluster) {
  long long lag = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    lag += health_int(cluster.primary(s).port, "last_seq") -
           health_int(cluster.replica(s).port, "applied_seq");
  }
  return lag;
}

// ---- read_mix -------------------------------------------------------------------

namespace {

/// 4 connections x 8 in flight through the router; 3 in 4 requests are
/// stateless grooms, 1 in 4 inline-plan provisions adding one pair; graphs
/// drawn Zipf(1.0) from a 1024-graph pool, larger than the 128-entry node
/// caches, so both hits and evictions happen.
class ReadMix final : public Workload {
 public:
  static constexpr std::size_t kPool = 1024;
  static constexpr int kPairsPerGraph = 4;
  static constexpr std::uint64_t kProvisionTag = 1ull << 40;

  ReadMix(std::uint64_t seed, Checker& checker)
      : seed_(seed), checker_(checker), pool_(kPool) {
    parallel_for(kPool, [&](std::size_t i) {
      Rng rng = stream(seed_, 1, i);
      Entry& e = pool_[i];
      const Graph g = small_graph(rng);
      const GroomAnswer a = offline_groom(g, kSmallK);
      e.groom_body = groom_body(g, kSmallK);
      e.sadms = a.sadms;
      e.wavelengths = a.wavelengths;
      e.groom_shard = fingerprint_shard(g);
      const GroomingPlan plan = held_plan(g, a, kSmallK);
      for (int q = 0; q < kPairsPerGraph; ++q) {
        Provision& p = e.provisions[static_cast<std::size_t>(q)];
        p.pair = random_pair(rng, g.node_count());
        p.body = inline_provision_body(plan, p.pair);
        p.shard = pairs_shard({p.pair});
        const IncrementalResult r = add_demands_incremental(plan, {p.pair});
        p.new_sadms = r.new_sadms;
        p.sadms = plan_sadm_count(r.plan);
        p.wavelengths = r.plan.wavelength_count();
      }
    });
    double total = 0;
    for (std::size_t r = 0; r < kPool; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    for (std::size_t c = 0; c < conns(); ++c) rngs_.push_back(conn_stream(c));
  }

  const char* name() const override { return "read_mix"; }
  std::size_t conns() const override { return 4; }
  std::size_t window() const override { return 8; }
  std::string params() const override {
    return "conns=4 window=8 via=router pool=1024 zipf_s=1.0 n=[16,48] "
           "m=n^1.5 k=8 mix=3/4 groom + 1/4 inline provision (1 pair)";
  }
  long long warmup_requests() const override { return 4096; }

  // The stream continues across rounds: every round draws fresh requests.
  void begin(Cluster&) override {}
  void finish(Cluster&) override {}

  void next(std::size_t conn, Request& out) override {
    make(rngs_[conn], next_id_++, out);
  }

  void on_response(std::size_t, const Request& req,
                   std::string_view line) override {
    const bool ok = line.find("\"ok\":true") != std::string_view::npos;
    checker_.expect(ok, "read_mix request failed: ", line);
    if (!ok) return;
    const Entry& e = pool_[req.tag % kPool];
    if (req.tag & kProvisionTag) {
      const Provision& p =
          e.provisions[(req.tag / kPool) % kPairsPerGraph];
      checker_.expect(field_is(line, "new_sadms", p.new_sadms) &&
                          field_is(line, "sadms", p.sadms) &&
                          field_is(line, "wavelengths", p.wavelengths),
                      "read_mix provision answer: ", line);
    } else {
      checker_.expect(field_is(line, "sadms", e.sadms) &&
                          field_is(line, "wavelengths", e.wavelengths),
                      "read_mix groom answer: ", line);
    }
  }

  std::uint64_t request_digest(std::size_t n) override {
    std::uint64_t h = fnv1a("read_mix");
    for (std::size_t c = 0; c < conns(); ++c) {
      Rng rng = conn_stream(c);
      Request r;
      for (std::size_t i = 0; i < n; ++i) {
        make(rng, static_cast<std::int64_t>(i), r);
        h = fnv1a(r.line, h);
      }
    }
    return h;
  }
  std::uint64_t answer_digest(std::size_t) override {
    std::string all;
    for (const Entry& e : pool_) {
      all += std::to_string(e.sadms) + "," + std::to_string(e.wavelengths);
      for (const Provision& p : e.provisions) {
        all += ";" + std::to_string(p.new_sadms) + "," +
               std::to_string(p.sadms) + "," + std::to_string(p.wavelengths);
      }
    }
    return fnv1a(all);
  }

  std::vector<std::string> sample_lines() override {
    std::vector<std::string> out;
    Rng rng = conn_stream(0);
    Request r;
    for (std::size_t i = 0; i < 1024; ++i) {
      make(rng, static_cast<std::int64_t>(i), r);
      r.line.pop_back();
      out.push_back(r.line);
    }
    return out;
  }

  std::vector<ReadSample> read_sample() override {
    std::vector<ReadSample> out;
    Rng rng = conn_stream(0);
    Request r;
    for (std::size_t i = 0; i < 128; ++i) {
      make(rng, 0, r);
      const std::size_t split = r.line.find(',');
      const Entry& e = pool_[r.tag % kPool];
      const int shard =
          r.tag & kProvisionTag
              ? e.provisions[(r.tag / kPool) % kPairsPerGraph].shard
              : e.groom_shard;
      out.push_back(
          {r.line.substr(split + 1, r.line.size() - split - 2), shard});
    }
    return out;
  }

  std::vector<double> serialize_us(Tracer& tracer) override {
    // The provision payload is the only serializer read_mix responses run
    // beyond the fixed head (grooms carry no partition here).
    std::vector<double> us;
    JsonWriter w;
    for (std::size_t i = 0; i < 256; ++i) {
      Rng rng = stream(seed_, 1, i % kPool);
      const Graph g = small_graph(rng);
      const GroomingPlan plan = held_plan(g, offline_groom(g, kSmallK), kSmallK);
      const IncrementalResult r = add_demands_incremental(
          plan, {pool_[i % kPool].provisions[0].pair});
      w.clear();
      w.begin_object();
      us.push_back(tracer.timed_us("protocol.serialize", -1, [&] {
        write_incremental_json(w, r, false);
      }));
    }
    return us;
  }

 private:
  struct Provision {
    DemandPair pair{0, 1};
    std::string body;
    int shard = 0;
    long long new_sadms = 0, sadms = 0, wavelengths = 0;
  };
  struct Entry {
    std::string groom_body;
    long long sadms = 0, wavelengths = 0;
    int groom_shard = 0;
    std::array<Provision, kPairsPerGraph> provisions;
  };

  Rng conn_stream(std::size_t conn) const { return stream(seed_, 10, conn); }

  void make(Rng& rng, std::int64_t id, Request& out) const {
    const double u = unit(rng);
    const std::size_t g = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    const bool provision = rng.below(4) == 3;
    const std::size_t q = rng.below(kPairsPerGraph);
    const std::size_t gi = std::min(g, kPool - 1);  // u rounding to 1.0
    const Entry& e = pool_[gi];
    out.id = id;
    out.write = false;
    if (provision) {
      out.line = line(id, e.provisions[q].body);
      out.tag = kProvisionTag | (q * kPool + gi);
    } else {
      out.line = line(id, e.groom_body);
      out.tag = gi;
    }
  }

  std::uint64_t seed_;
  Checker& checker_;
  std::vector<Entry> pool_;
  std::vector<double> zipf_cdf_;
  std::vector<Rng> rngs_;
  std::int64_t next_id_ = 0;
};

// ---- plan_churn ---------------------------------------------------------------

/// 4 connections x 1 in flight through the router, like a provisioning
/// controller waiting for each ack.  16 held plans of ~2000 pairs, 8 per
/// shard, each owned by one connection so its mutation order is fixed.
/// 3 in 4 requests mutate (provision 1-4 new pairs or release 1-4 held
/// ones with repair); 1 in 4 are grooms from a 32-graph pool every cache
/// holds, served by the replicas.
class PlanChurn final : public Workload {
 public:
  static constexpr std::size_t kReadPool = 32;
  static constexpr std::size_t kPlansPerConn = 4;
  static constexpr std::uint64_t kReadTag = 1ull << 62;

  PlanChurn(std::uint64_t seed, Checker& checker)
      : seed_(seed), checker_(checker), plans_(churn_plans(seed, kShards)) {
    for (std::size_t i = 0; i < kReadPool; ++i) {
      Rng rng = stream(seed_, 4, i);
      const Graph g = small_graph(rng);
      const GroomAnswer a = offline_groom(g, kSmallK);
      reads_.push_back({groom_body(g, kSmallK), a.sadms, a.wavelengths,
                        fingerprint_shard(g)});
    }
    rngs_ = conn_streams();
  }

  const char* name() const override { return "plan_churn"; }
  std::size_t conns() const override { return 4; }
  std::size_t window() const override { return 1; }
  std::string params() const override {
    return "conns=4 window=1 via=router plans=16 (8/shard, 4/conn) ring=96 "
           "pairs~2000 k=16 mix=3/4 held provision|release(repair) of 1-4 "
           "pairs + 1/4 groom from a 32-graph pool k=8";
  }
  long long warmup_requests() const override { return 256; }

  void begin(Cluster& cluster) override {
    // Fresh cluster, fresh plans; the request stream continues.
    books_ = fresh_books();
    history_.assign(plans_.size(), {});
    LineClient router(cluster.router().port);
    for (const ChurnPlan& p : plans_) {
      const std::string resp =
          ask(router, groom_body(p.graph, kChurnK, p.route_key, true));
      checker_.expect(field_is(resp, "plan_id", p.plan_id) &&
                          field_is(resp, "sadms", p.answer.sadms) &&
                          field_is(resp, "wavelengths", p.answer.wavelengths),
                      "plan_churn hold answer: ", resp);
    }
    // Warm every read node's cache with the read pool (the router sends
    // each read to the replica of the graph's shard).
    for (const Read& r : reads_) {
      const std::string resp = ask(router, r.body);
      checker_.expect(resp.find("\"ok\":true") != std::string::npos,
                      "plan_churn cache warm-up failed: ", resp);
    }
  }

  void finish(Cluster& cluster) override {
    // Fetch every plan with include_plan through one more provision; the
    // whole plan must equal an offline replay of the acked mutations.
    LineClient router(cluster.router().port);
    for (std::size_t j = 0; j < plans_.size(); ++j) {
      Rng rng = stream(seed_, 12, j);
      Record rec;
      rec.m.provision = true;
      rec.m.pairs = books_[j].take_new(rng, 1);
      rec.final_fetch = true;
      rec.response = ask(router, held_body(true, plans_[j].route_key,
                                           plans_[j].plan_id, rec.m.pairs,
                                           true));
      rec.ok = rec.response.find("\"ok\":true") != std::string::npos;
      history_[j].push_back(std::move(rec));
    }
    verify_history();
  }

  void next(std::size_t conn, Request& out) override {
    make(conn, rngs_[conn], books_, &history_, next_id_++, out);
  }

  void on_response(std::size_t, const Request& req,
                   std::string_view line) override {
    const bool ok = line.find("\"ok\":true") != std::string_view::npos;
    if (req.tag & kReadTag) {
      checker_.expect(ok, "plan_churn groom failed: ", line);
      if (!ok) return;
      const Read& r = reads_[req.tag & 0xffffffff];
      checker_.expect(field_is(line, "sadms", r.sadms) &&
                          field_is(line, "wavelengths", r.wavelengths),
                      "plan_churn groom answer: ", line);
      return;
    }
    Record& rec = history_[req.tag >> 32][req.tag & 0xffffffff];
    rec.ok = ok;
    rec.response.assign(line);
  }

  std::uint64_t request_digest(std::size_t n) override {
    std::vector<Rng> rngs = conn_streams();
    std::vector<PairBook> books = fresh_books();
    std::uint64_t h = fnv1a("plan_churn");
    Request r;
    for (std::size_t c = 0; c < conns(); ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        make(c, rngs[c], books, nullptr, static_cast<std::int64_t>(i), r);
        h = fnv1a(r.line, h);
      }
    }
    return h;
  }

  std::uint64_t answer_digest(std::size_t n) override {
    // Offline replay of the first n requests per connection.
    std::vector<Rng> rngs = conn_streams();
    std::vector<PairBook> books = fresh_books();
    std::vector<std::vector<Record>> history(plans_.size());
    Request r;
    for (std::size_t c = 0; c < conns(); ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        make(c, rngs[c], books, &history, 0, r);
      }
    }
    std::string all;
    for (const Read& rd : reads_) {
      all += std::to_string(rd.sadms) + "," + std::to_string(rd.wavelengths);
    }
    for (std::size_t j = 0; j < plans_.size(); ++j) {
      GroomingPlan plan = plans_[j].plan;
      for (const Record& rec : history[j]) {
        all += ';';
        all += expected_fields(plan, rec.m);
      }
    }
    return fnv1a(all);
  }

  std::vector<std::string> sample_lines() override {
    std::vector<Rng> rngs = conn_streams();
    std::vector<PairBook> books = fresh_books();
    std::vector<std::string> out;
    Request r;
    for (std::size_t i = 0; i < 512; ++i) {
      make(i % conns(), rngs[i % conns()], books, nullptr,
           static_cast<std::int64_t>(i), r);
      r.line.pop_back();
      out.push_back(r.line);
    }
    return out;
  }

  std::vector<ReadSample> read_sample() override {
    std::vector<ReadSample> out;
    for (const Read& r : reads_) out.push_back({r.body, r.shard});
    return out;
  }

  std::vector<double> serialize_us(Tracer& tracer) override {
    // Held provisions answer with write_incremental_json, whose sadms and
    // wavelength counts walk the whole ~2000-pair plan.
    std::vector<double> us;
    JsonWriter w;
    for (std::size_t i = 0; i < 256; ++i) {
      const ChurnPlan& p = plans_[i % plans_.size()];
      PairBook book(p.plan);
      Rng rng = stream(seed_, 13, i);
      const IncrementalResult r =
          add_demands_incremental(p.plan, book.take_new(rng, 2));
      w.clear();
      w.begin_object();
      us.push_back(tracer.timed_us("protocol.serialize", -1, [&] {
        write_incremental_json(w, r, false);
      }));
    }
    return us;
  }

 private:
  struct Read {
    std::string body;
    long long sadms = 0, wavelengths = 0;
    int shard = 0;
  };
  struct Record {
    Mutation m;
    bool ok = false;
    bool final_fetch = false;
    std::string response;
  };

  std::vector<Rng> conn_streams() const {
    std::vector<Rng> rngs;
    for (std::size_t c = 0; c < conns(); ++c) {
      rngs.push_back(stream(seed_, 11, c));
    }
    return rngs;
  }

  std::vector<PairBook> fresh_books() const {
    std::vector<PairBook> books;
    for (const ChurnPlan& p : plans_) books.emplace_back(p.plan);
    return books;
  }

  void make(std::size_t conn, Rng& rng, std::vector<PairBook>& books,
            std::vector<std::vector<Record>>* history, std::int64_t id,
            Request& out) const {
    const bool mutate = rng.below(4) < 3;
    const std::size_t j = conn * kPlansPerConn + rng.below(kPlansPerConn);
    const std::size_t gi = rng.below(kReadPool);
    out.id = id;
    if (!mutate) {
      out.line = line(id, reads_[gi].body);
      out.write = false;
      out.tag = kReadTag | gi;
      return;
    }
    const ChurnPlan& p = plans_[j];
    Mutation m = next_mutation(rng, books[j], p.plan.pairs.size());
    out.line = line(id, held_body(m.provision, p.route_key, p.plan_id, m.pairs));
    out.write = true;
    if (history != nullptr) {
      out.tag = (static_cast<std::uint64_t>(j) << 32) | (*history)[j].size();
      (*history)[j].push_back(Record{std::move(m), false, false, {}});
    }
  }

  /// Applies `m` to `plan` offline and returns the fields its response
  /// must carry, as "key=value" text.
  static std::string expected_fields(GroomingPlan& plan, const Mutation& m) {
    if (m.provision) {
      IncrementalResult r = add_demands_incremental(plan, m.pairs);
      plan = std::move(r.plan);
      return "new_sadms=" + std::to_string(r.new_sadms) +
             " sadms=" + std::to_string(plan_sadm_count(plan)) +
             " wavelengths=" + std::to_string(plan.wavelength_count());
    }
    const ReleaseStats st = release_demands(plan, m.pairs, true);
    return "released=" + std::to_string(st.released) +
           " repair_moves=" + std::to_string(st.repair_moves) +
           " remaining=" + std::to_string(plan.pairs.size()) +
           " sadms=" + std::to_string(plan_sadm_count(plan)) +
           " wavelengths=" + std::to_string(plan.wavelength_count());
  }

  static std::string actual_fields(std::string_view resp, bool provision) {
    auto f = [&](const char* key) {
      const std::optional<long long> v = int_field(resp, key);
      return v ? std::to_string(*v) : std::string("?");
    };
    if (provision) {
      return "new_sadms=" + f("new_sadms") + " sadms=" + f("sadms") +
             " wavelengths=" + f("wavelengths");
    }
    return "released=" + f("released") + " repair_moves=" + f("repair_moves") +
           " remaining=" + f("remaining") + " sadms=" + f("sadms") +
           " wavelengths=" + f("wavelengths");
  }

  /// Replays each plan's acked mutations offline and compares every
  /// response; a final fetch's plan must match byte for byte and respect
  /// the Proposition 2 bound.
  void verify_history() {
    parallel_for(history_.size(), [&](std::size_t j) {
      GroomingPlan plan = plans_[j].plan;
      for (const Record& rec : history_[j]) {
        // Every mutation, the final fetch included, must be acked.  A
        // refused one was not applied, so the replay skips it.
        checker_.expect(rec.ok,
                        "plan_churn plan " + std::to_string(j) + " refused: ",
                        rec.response);
        if (!rec.ok) continue;
        const std::string want = expected_fields(plan, rec.m);
        checker_.expect(want == actual_fields(rec.response, rec.m.provision),
                        "plan_churn plan " + std::to_string(j) + ": want " +
                            want + ", got " + rec.response);
        if (rec.final_fetch) {
          JsonWriter w;
          write_plan_json(w, plan);
          const std::optional<std::string_view> got =
              tail_field(rec.response, "plan");
          checker_.expect(got && *got == w.str(),
                          "plan_churn plan " + std::to_string(j) +
                              " differs from the offline replay");
          checker_.expect(plan_within_prop2_bound(plan),
                          "plan_churn plan " + std::to_string(j) +
                              " breaks the Proposition 2 bound");
        }
      }
    });
    for (auto& h : history_) h.clear();
  }

  std::uint64_t seed_;
  Checker& checker_;
  std::vector<ChurnPlan> plans_;
  std::vector<Read> reads_;
  std::vector<Rng> rngs_;
  std::vector<PairBook> books_;
  std::vector<std::vector<Record>> history_;
  std::int64_t next_id_ = 0;
};

// ---- cold_big -----------------------------------------------------------------

/// 2 connections x 1 in flight through the router; every request is a
/// stateless groom of a distinct ring-cluster graph (n = 10^4, m = 1.5*10^4,
/// k = 16) derived from (seed, request index), so no cache can hit; 1 in 4
/// sets include_partition.  A generator thread builds the ~190 KB lines
/// ahead, outside each request's timed interval.
class ColdBig final : public Workload {
 public:
  ColdBig(std::uint64_t seed, Checker& checker)
      : seed_(seed), checker_(checker) {}
  ~ColdBig() override { stop_generator(); }

  const char* name() const override { return "cold_big"; }
  std::size_t conns() const override { return 2; }
  std::size_t window() const override { return 1; }
  std::string params() const override {
    return "conns=2 window=1 via=router graph=ring_cluster n=10000 rings=10 "
           "chords=5000 (m=15000) k=16 distinct per (seed,index) "
           "include_partition=1/4";
  }
  long long warmup_requests() const override { return 4; }

  static bool includes_partition(std::uint64_t index) { return index % 4 == 3; }

  static std::string body(std::uint64_t seed, std::uint64_t index,
                          int* shard) {
    const Graph g = big_graph(seed, index);
    if (shard != nullptr) *shard = fingerprint_shard(g);
    return groom_body(g, kBigK, std::nullopt, false,
                      includes_partition(index));
  }

  void begin(Cluster&) override {
    stop_generator();
    queue_.clear();
    stop_ = false;
    generator_ = std::thread([this] { generate(); });
  }

  void finish(Cluster&) override {
    stop_generator();
    parallel_for(seen_.size(), [&](std::size_t i) {
      thread_local GroomingWorkspace ws;
      const Seen& s = seen_[i];
      const Graph g = big_graph(seed_, s.index);
      const GroomAnswer a = offline_groom(g, kBigK, &ws);
      const std::string id = std::to_string(s.index);
      checker_.expect(s.sadms == a.sadms && s.wavelengths == a.wavelengths,
                      "cold_big " + id + ": sadms/wavelengths differ from "
                      "run_algorithm");
      const long long m = g.edge_count();
      checker_.expect(s.wavelengths == (m + kBigK - 1) / kBigK,
                      "cold_big " + id + ": wavelengths != ceil(m/k)");
      SpanTEulerTrace trace;
      trace.want_cover = false;
      spant_euler(g, kBigK, GroomingOptions{}, &trace, &ws);
      checker_.expect(
          s.sadms <= spant_euler_cost_bound(m, kBigK, trace.g2_component_count),
          "cold_big " + id + ": SADMs exceed the Theorem 5 bound");
      if (includes_partition(s.index)) {
        JsonWriter w;
        write_partition_json(w, a.parts);
        checker_.expect(s.partition_hash == fnv1a(w.str()),
                        "cold_big " + id + ": partition differs");
      }
    });
    seen_.clear();
  }

  void next(std::size_t, Request& out) override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !queue_.empty(); });
    out = std::move(queue_.front());
    queue_.pop_front();
    cv_.notify_all();
  }

  void on_response(std::size_t, const Request& req,
                   std::string_view line) override {
    const bool ok = line.find("\"ok\":true") != std::string_view::npos;
    checker_.expect(ok, "cold_big request failed: ", line);
    if (!ok) return;
    Seen s;
    s.index = req.tag;
    s.sadms = int_field(line, "sadms").value_or(-1);
    s.wavelengths = int_field(line, "wavelengths").value_or(-1);
    checker_.expect(line.find("\"cached\":false") != std::string_view::npos,
                    "cold_big request hit a cache: ", line);
    if (includes_partition(s.index)) {
      s.partition_hash = fnv1a(tail_field(line, "partition").value_or(""));
    }
    seen_.push_back(s);
  }

  std::uint64_t request_digest(std::size_t n) override {
    std::uint64_t h = fnv1a("cold_big");
    for (std::size_t i = 0; i < n; ++i) {
      h = fnv1a(line(static_cast<std::int64_t>(i), body(seed_, i, nullptr)), h);
    }
    return h;
  }
  std::uint64_t answer_digest(std::size_t n) override {
    std::string all;
    for (std::size_t i = 0; i < n; ++i) {
      const GroomAnswer a = offline_groom(big_graph(seed_, i), kBigK);
      all += std::to_string(a.sadms) + "," + std::to_string(a.wavelengths) +
             ";";
    }
    return fnv1a(all);
  }

  std::vector<std::string> sample_lines() override {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < 16; ++i) {
      std::string l = line(static_cast<std::int64_t>(i), body(seed_, i, nullptr));
      l.pop_back();
      out.push_back(std::move(l));
    }
    return out;
  }

  std::vector<ReadSample> read_sample() override {
    // Indices far beyond any run's request count: fresh graphs, same family.
    std::vector<ReadSample> out;
    for (std::size_t i = 0; i < 6; ++i) {
      ReadSample r;
      r.body = body(seed_, (1ull << 32) + i, &r.shard);
      out.push_back(std::move(r));
    }
    return out;
  }

  std::vector<double> serialize_us(Tracer& tracer) override {
    std::vector<double> us;
    JsonWriter w;
    GroomingWorkspace ws;
    for (std::size_t i = 0; i < 8; ++i) {
      const GroomAnswer a =
          offline_groom(big_graph(seed_, (1ull << 33) + i), kBigK, &ws);
      w.clear();
      us.push_back(tracer.timed_us("protocol.serialize", -1, [&] {
        write_partition_json(w, a.parts);
      }));
    }
    return us;
  }

 private:
  struct Seen {
    std::uint64_t index = 0;
    long long sadms = 0, wavelengths = 0;
    std::uint64_t partition_hash = 0;
  };
  static constexpr std::size_t kQueueDepth = 4;

  // Indices continue across rounds (requests queued but never sent are
  // skipped), so every graph of a run is distinct.
  void generate() {
    for (;;) {
      const std::uint64_t index = next_index_++;
      Request r;
      r.id = static_cast<std::int64_t>(index);
      r.tag = index;
      r.line = line(r.id, body(seed_, index, nullptr));
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || queue_.size() < kQueueDepth; });
      if (stop_) return;
      queue_.push_back(std::move(r));
      cv_.notify_all();
    }
  }

  void stop_generator() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (generator_.joinable()) generator_.join();
  }

  std::uint64_t seed_;
  Checker& checker_;
  std::vector<Seen> seen_;
  std::mutex mutex_;  // guards queue_ and stop_
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stop_ = false;
  std::uint64_t next_index_ = 0;  // generator thread only
  std::thread generator_;         // declared after what it uses
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Checker& checker) {
  if (name == "read_mix") return std::make_unique<ReadMix>(seed, checker);
  if (name == "plan_churn") return std::make_unique<PlanChurn>(seed, checker);
  if (name == "cold_big") return std::make_unique<ColdBig>(seed, checker);
  return nullptr;
}

}  // namespace cbench
