// cbench: the cluster benchmark's load generator.
//
//   cbench --workload read_mix|plan_churn|cold_big --seed N --seconds S
//          --trace 0|1 --tgroom PATH --work DIR
//
// Starts the real system from the `tgroom` binary (a router over two shard
// groups, each a primary plus one replica), sets it up (timed: setup_s),
// drives one closed-loop workload for S seconds, checks every response
// against offline computation, and prints one JSON result as the last line
// of stdout.  With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics (spans are written to
// DIR/trace.json).  Exits 1 when a check fails or the run cannot complete.
#include <sys/types.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace cbench {
namespace {

namespace fs = std::filesystem;
using namespace tgroom;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json (run.py checks the two agree).
constexpr MetricSpec kEndToEnd[] = {
    {"rps", "req/s"},   {"p50_us", "us"},     {"read_p50_us", "us"},
    {"setup_s", "s"},   {"recovery_s", "s"},  {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"protocol.parse_us", "us"},
    {"protocol.parse_ns_per_kb", "ns/KB"},
    {"protocol.serialize_us", "us"},
    {"graph.fingerprint_ns_per_edge", "ns/edge"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"service.execute_us.groom_hit", "us"},
    {"service.execute_us.groom_miss", "us"},
    {"service.execute_us.provision_inline", "us"},
    {"service.execute_us.provision_held", "us"},
    {"service.execute_us.release_held", "us"},
    {"service.allocs_per_req", "allocs/req"},
    {"service.arena_peak_bytes", "bytes"},
    {"event_loop.overhead_us", "us"},
    {"event_loop.pipelined_frac", "ratio"},
    {"router.overhead_us", "us"},
    {"router.preforward_us", "us"},
    {"router.retry_frac", "ratio"},
    {"router.shard_skew", "ratio"},
    {"algorithms.spant_euler_ms", "ms"},
    {"algorithms.forest_frac", "ratio"},
    {"algorithms.parity_frac", "ratio"},
    {"algorithms.euler_frac", "ratio"},
    {"grooming.extend_us.p500", "us"},
    {"grooming.extend_us.p2000", "us"},
    {"grooming.extend_us.p8000", "us"},
    {"grooming.release_us.p2000", "us"},
    {"grooming.repair_moves_per_release", "moves/op"},
    {"store.wal_bytes_per_write", "bytes/op"},
    {"store.snapshots", "count"},
    {"store.snapshot_ms", "ms"},
    {"store.replay_us_per_record", "us/record"},
    {"repl.apply_us", "us"},
    {"repl.lag_records", "records"},
    {"trace.overhead_frac", "ratio"},
};

// Untraced: cluster set-ups per run, each followed by one primary restart
// for recovery_s.  rps, setup_s, recovery_s and peak_rss_mb are medians of
// the kRounds per-round values; latency percentiles are taken over the
// samples of all rounds together.
constexpr int kRounds = 5;
constexpr std::size_t kDigestRequests = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string tgroom;
  std::string work;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string join(const std::vector<std::string>& argv) {
  std::string s;
  for (const std::string& a : argv) {
    if (!s.empty()) s += ' ';
    s += a;
  }
  return s;
}

struct Snapshot {
  std::vector<NodeStats> nodes;  // shard nodes, Cluster::nodes() order
  NodeStats router;
};

Snapshot snapshot(const Cluster& cluster) {
  Snapshot s;
  for (const Cluster::Node& n : cluster.nodes()) {
    s.nodes.push_back(fetch_stats(n.port));
  }
  s.router = fetch_stats(cluster.router().port);
  return s;
}

/// Restarts a primary on a fresh copy of the recovery store and times
/// launch -> first health answer.  With `check`, also fetches every held
/// plan and compares it with the table the store was written from.
double time_recovery(Cluster& cluster, const RecoveryStore& store,
                     const std::string& dir, bool check, Checker& checker) {
  fs::remove_all(dir);
  fs::copy(store.dir, dir, fs::copy_options::recursive);
  const std::string port_file = dir + ".port";
  fs::remove(port_file);
  const std::uint64_t t0 = now_ns();
  const pid_t pid = cluster.processes().spawn(
      cluster.serve_argv(dir, port_file, "recovery", 0), dir + ".log");
  const int port = wait_port_file(port_file, pid, 30000);
  LineClient client(port);
  const std::string health = client.call(R"({"op":"health"})");
  const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
  checker.expect(health.find("\"ok\":true") != std::string::npos,
                 "restarted primary health: " + health);
  if (check) {
    for (const auto& [id, plan] : store.table) {
      PairBook book(plan);
      Rng rng = stream(1, 18, static_cast<std::uint64_t>(id));
      const std::vector<DemandPair> pair = book.take_new(rng, 1);
      std::string l = line(0, held_body(true, 0, id, pair, true));
      l.pop_back();
      const std::string resp = client.call(l);
      JsonWriter w;
      write_plan_json(w, add_demands_incremental(plan, pair).plan);
      const std::optional<std::string_view> got = tail_field(resp, "plan");
      checker.expect(got && *got == w.str(),
                     "recovered plan " + std::to_string(id) +
                         " differs from the table the store holds");
    }
  }
  cluster.processes().kill(pid);
  return seconds;
}

void print_metric(const char* name, double value, const char* unit,
                  long long samples) {
  std::cout << "# metric " << name << " = " << number(value) << " " << unit
            << " (n=" << samples << ")\n";
}

int run(const Options& o) {
  Checker checker;
  std::unique_ptr<Workload> workload = make_workload(o.workload, o.seed,
                                                     checker);
  if (!workload) throw BenchError("unknown workload " + o.workload);
  const unsigned nproc = std::thread::hardware_concurrency();
  std::cout << "# cbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace
            << " nproc=" << nproc << " transport=loopback fsync=batch"
            << " conns=" << workload->conns()
            << " window=" << workload->window() << " loop=closed\n";
  std::cout << "# params " << workload->params() << "\n";

  // Determinism: a second generator from the same seed must produce the
  // same request bytes and the same offline answers.
  {
    Checker twin_checker;
    std::unique_ptr<Workload> twin =
        make_workload(o.workload, o.seed, twin_checker);
    const std::uint64_t req = workload->request_digest(kDigestRequests);
    const std::uint64_t ans = workload->answer_digest(kDigestRequests);
    const bool same = req == twin->request_digest(kDigestRequests) &&
                      ans == twin->answer_digest(kDigestRequests);
    checker.expect(same, "same seed gave different requests or answers");
    std::cout << "# determinism requests_fnv=" << req << " answers_fnv=" << ans
              << (same ? " ok" : " MISMATCH") << "\n";
  }

  fs::remove_all(o.work);  // every run starts from nothing
  fs::create_directories(o.work);
  Cluster cluster(o.tgroom, o.work + "/cluster");
  // Rounds: each starts a fresh cluster (timed as setup_s: launch, health,
  // preload, warm-up), measures its share of the timed phase, then runs the
  // whole-round checks.  The median over rounds rides out a round that
  // other tenants of a shared host slow down, and the spread of how the
  // scheduler places six busy processes on the CPUs; pooling the latency
  // samples of all rounds gives their percentiles enough samples.  The traced run is
  // one round, half untraced and half traced, for trace.overhead_frac; it
  // reports no end-to-end metric.
  const int rounds = o.trace ? 1 : kRounds;
  const std::uint64_t round_ns =
      static_cast<std::uint64_t>(o.seconds) * std::uint64_t{1000000000} /
      static_cast<std::uint64_t>(rounds);
  const std::vector<ChurnPlan> plans = churn_plans(o.seed, kShards);
  const RecoveryStore store =
      build_recovery_store(plans, o.seed, o.work + "/recovery_store");
  Tracer tracer;
  std::vector<double> round_rps;  // untraced run
  PhaseResult phase;     // all rounds pooled (traced run: the traced half)
  PhaseResult untraced;  // traced run only
  std::vector<double> setups, rss_mb, recoveries;
  Snapshot before, after;
  long long lag = 0;
  Metrics metrics;
  auto timed = [&](std::uint64_t ns, Tracer* t) {
    return run_closed_loop(cluster.router().port, workload->conns(),
                           workload->window(), *workload, ns, 0, t);
  };
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t t0 = now_ns();
    cluster.start();
    workload->begin(cluster);
    run_closed_loop(cluster.router().port, workload->conns(),
                    workload->window(), *workload, 0,
                    workload->warmup_requests(), nullptr);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (round == 0) {
      for (const Cluster::Node& n : cluster.nodes()) {
        std::cout << "# cmd " << n.name << ": " << join(n.argv) << "\n";
      }
      std::cout << "# cmd router: " << join(cluster.router().argv) << "\n";
    }
    if (o.trace) {
      // Counters are read before and after, so set-up is excluded.
      // Quarters untraced, traced, traced, untraced: a drift over the round
      // cancels out of trace.overhead_frac.
      before = snapshot(cluster);
      untraced.merge(timed(round_ns / 4, nullptr));
      phase.merge(timed(round_ns / 4, &tracer));
      phase.merge(timed(round_ns / 4, &tracer));
      untraced.merge(timed(round_ns / 4, nullptr));
      lag = replication_lag(cluster);
      after = snapshot(cluster);
    } else {
      const PhaseResult r = timed(round_ns, nullptr);
      round_rps.push_back(static_cast<double>(r.completed_in_window) /
                          r.seconds);
      std::cout << "# round " << round << " setup_s=" << number(setups.back())
                << " rps=" << number(round_rps.back())
                << " read_p50_us=" << number(percentile(r.read_us, 0.5));
      if (!r.write_us.empty()) {
        std::cout << " write_p50_us=" << number(percentile(r.write_us, 0.5));
      }
      std::cout << "\n";
      phase.merge(r);
    }
    rss_mb.push_back(cluster.peak_rss_mb());
    workload->finish(cluster);
    check_replicas_drained(cluster, checker);
    if (o.trace) measure_probe_layers(*workload, cluster, tracer, metrics);
    cluster.stop();
    if (!o.trace) {
      recoveries.push_back(time_recovery(
          cluster, store, o.work + "/recovery_run", round == 0, checker));
    }
  }

  const long long attempted = phase.attempted + untraced.attempted;
  const long long failed = phase.errors + untraced.errors;
  checker.expect(failed == 0,
                 std::to_string(failed) + " error responses in the timed phase");

  std::cout << "# requests attempted=" << attempted << " failed=" << failed
            << " checks=" << checker.checked.load()
            << " check_failures=" << checker.failures.load() << "\n";

  if (!o.trace) {
    // Percentiles over the whole run: a round holds only a few hundred
    // plan_churn reads, too few for a steady per-round median.
    auto latency = [&](bool reads, bool writes, double q) {
      std::vector<double> us;
      if (reads) us = phase.read_us;
      if (writes) {
        us.insert(us.end(), phase.write_us.begin(), phase.write_us.end());
      }
      return percentile(std::move(us), q);
    };
    metrics["rps"] = median(round_rps);
    // Tails are printed, not gated: on a shared host they spread too wide
    // between runs to carry a bound (README.md).
    metrics["p50_us"] = latency(true, true, 0.50);
    metrics["read_p50_us"] = latency(true, false, 0.50);
    metrics["setup_s"] = median(setups);
    metrics["recovery_s"] = median(recoveries);
    metrics["peak_rss_mb"] = median(rss_mb);
    const auto n_read = static_cast<long long>(phase.read_us.size());
    const auto n_write = static_cast<long long>(phase.write_us.size());
    print_metric("rps", metrics["rps"], "req/s", phase.completed_in_window);
    print_metric("p50_us", metrics["p50_us"], "us", n_read + n_write);
    print_metric("p90_us", latency(true, true, 0.90), "us", n_read + n_write);
    print_metric("p99_us", latency(true, true, 0.99), "us", n_read + n_write);
    print_metric("read_p50_us", metrics["read_p50_us"], "us", n_read);
    print_metric("read_p90_us", latency(true, false, 0.90), "us", n_read);
    print_metric("read_p99_us", latency(true, false, 0.99), "us", n_read);
    if (n_write > 0) {
      // Reported, not gated: only plan_churn issues held-plan mutations.
      print_metric("write_p50_us", latency(false, true, 0.50), "us", n_write);
      print_metric("write_p90_us", latency(false, true, 0.90), "us", n_write);
      print_metric("write_p99_us", latency(false, true, 0.99), "us", n_write);
    }
    print_metric("error_frac",
                 attempted ? static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                           : 0,
                 "ratio", attempted);
    print_metric("setup_s", metrics["setup_s"], "s",
                 static_cast<long long>(setups.size()));
    print_metric("recovery_s", metrics["recovery_s"], "s",
                 static_cast<long long>(recoveries.size()));
    print_metric("peak_rss_mb", metrics["peak_rss_mb"], "MB",
                 static_cast<long long>(rss_mb.size()));
  } else {
    measure_inprocess_layers(*workload, plans, store, o.seed,
                             o.work + "/scratch", tracer, metrics);
    // Counters: deltas over the timed phase only (set-up excluded).
    NodeStats nodes, primaries;
    long long arena_peak = 0;
    // Requests each shard's two nodes served; a primary's repl_fetches come
    // from its replica, not from the router.
    std::vector<long long> per_shard(kShards, 0);
    for (std::size_t i = 0; i < after.nodes.size(); ++i) {
      const NodeStats d = after.nodes[i] - before.nodes[i];
      per_shard[static_cast<std::size_t>(cluster.nodes()[i].shard)] +=
          d.received - d.repl_fetches;
      nodes.received += d.received;
      nodes.pipelined += d.pipelined;
      nodes.cache_hits += d.cache_hits;
      nodes.cache_misses += d.cache_misses;
      nodes.cache_evictions += d.cache_evictions;
      nodes.alloc_requests += d.alloc_requests;
      nodes.alloc_total += d.alloc_total;
      arena_peak = std::max(arena_peak, d.arena_peak_bytes);
      if (cluster.nodes()[i].primary) {
        primaries.store_appends += d.store_appends;
        primaries.store_appended_bytes += d.store_appended_bytes;
        primaries.store_snapshots += d.store_snapshots;
      }
    }
    const NodeStats router = after.router - before.router;
    auto frac = [](long long a, long long b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    const long long busiest =
        *std::max_element(per_shard.begin(), per_shard.end());
    long long served = 0;
    for (long long c : per_shard) served += c;
    metrics["cache.hit_ratio"] =
        frac(nodes.cache_hits, nodes.cache_hits + nodes.cache_misses);
    metrics["cache.evictions"] = static_cast<double>(nodes.cache_evictions);
    metrics["service.allocs_per_req"] =
        frac(nodes.alloc_total, nodes.alloc_requests);
    metrics["service.arena_peak_bytes"] = static_cast<double>(arena_peak);
    metrics["event_loop.pipelined_frac"] =
        frac(nodes.pipelined + router.pipelined,
             nodes.received + router.received);
    metrics["router.retry_frac"] =
        frac(router.forward_retries, router.forwarded);
    metrics["router.shard_skew"] =
        frac(busiest * static_cast<long long>(kShards), served);
    metrics["store.wal_bytes_per_write"] =
        frac(primaries.store_appended_bytes, primaries.store_appends);
    metrics["store.snapshots"] = static_cast<double>(primaries.store_snapshots);
    metrics["repl.lag_records"] = static_cast<double>(lag);
    const double rps =
        static_cast<double>(phase.completed_in_window) / phase.seconds;
    const double untraced_rps =
        static_cast<double>(untraced.completed_in_window) / untraced.seconds;
    metrics["trace.overhead_frac"] = rps / untraced_rps - 1;
    std::cout << "# bases cache_lookups=" << nodes.cache_hits + nodes.cache_misses
              << " alloc_requests=" << nodes.alloc_requests
              << " received=" << nodes.received + router.received
              << " router_forwarded=" << router.forwarded
              << " shard_served=" << served
              << " wal_appends=" << primaries.store_appends
              << " untraced_rps=" << number(untraced_rps)
              << " traced_rps=" << number(rps) << "\n";
    for (const Tracer::Layer& l : tracer.self_times()) {
      std::cout << "# span " << l.name << " count=" << l.count
                << " total_ms=" << number(l.total_ms)
                << " self_ms=" << number(l.self_ms) << "\n";
    }
    tracer.write_json(o.work + "/trace.json");
  }

  // The result line: exactly the metric set of the mode, with units.
  std::string json = "{\"correct\":";
  json += checker.failures.load() == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const MetricSpec& m) {
    auto it = metrics.find(m.name);
    if (it == metrics.end()) throw BenchError(std::string("no ") + m.name);
    if (o.trace) print_metric(m.name, it->second, m.unit, 1);
    json += (first ? "\"" : ",\"") + std::string(m.name) +
            "\":{\"value\":" + number(it->second) + ",\"unit\":\"" + m.unit +
            "\"}";
    first = false;
  };
  if (o.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::cout << json << std::endl;
  return checker.failures.load() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cbench

int main(int argc, char** argv) {
  cbench::Options o;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stoi(value);
      } else if (key == "--trace") {
        o.trace = value == "1";
      } else if (key == "--tgroom") {
        o.tgroom = value;
      } else if (key == "--work") {
        o.work = value;
      } else {
        std::cerr << "cbench: unknown flag " << key << "\n";
        return 2;
      }
    }
    if (o.workload.empty() || o.tgroom.empty() || o.work.empty() ||
        o.seconds < 1) {
      std::cerr << "usage: cbench --workload W --seed N --seconds S"
                   " --trace 0|1 --tgroom PATH --work DIR\n";
      return 2;
    }
    return cbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "cbench: " << e.what() << "\n";
    return 1;
  }
}
