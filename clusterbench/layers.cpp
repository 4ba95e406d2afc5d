#include "layers.hpp"

#include <algorithm>
#include <filesystem>

#include "algo/euler.hpp"
#include "algo/rooted_tree.hpp"
#include "algo/spanning_tree.hpp"
#include "algorithms/algorithm.hpp"
#include "algorithms/spant_euler.hpp"
#include "cluster/cluster_map.hpp"
#include "gen/random_graph.hpp"
#include "graph/fingerprint.hpp"
#include "grooming/incremental.hpp"
#include "grooming/repair.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "store/durable_store.hpp"
#include "util/json.hpp"

namespace cbench {

namespace fs = std::filesystem;
using namespace tgroom;

namespace {

ServiceRequest parsed(std::string_view l) {
  if (!l.empty() && l.back() == '\n') l.remove_suffix(1);
  RequestParse p = parse_request(l);
  if (!p.request) throw BenchError("benchmark line does not parse: " + p.error);
  return std::move(*p.request);
}

bool is_groom(std::string_view body) {
  return body.find("\"op\":\"groom\"") != std::string_view::npos;
}

/// In-memory service as `tgroom serve` configures it, minus the store.
ServiceConfig memory_config() {
  ServiceConfig c;
  c.metrics_on_exit = false;
  return c;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

RecoveryStore build_recovery_store(const std::vector<ChurnPlan>& plans,
                                   std::uint64_t seed, const std::string& dir) {
  fs::remove_all(dir);
  RecoveryStore out;
  out.dir = dir;
  std::map<std::int64_t, PairBook> books;
  std::map<std::int64_t, std::size_t> base;
  {
    DurableStoreOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kNone;
    options.snapshot_every = 0;
    DurableStore store(options);
    SnapshotData snap;
    for (const ChurnPlan& p : plans) {
      if (p.shard != 0) continue;
      GroomCacheKey key;
      key.fingerprint = graph_fingerprint(p.graph);
      key.algorithm = static_cast<int>(AlgorithmId::kSpanTEuler);
      key.k = kChurnK;
      key.seed = 1;
      GroomCacheValue value;
      value.sadms = p.answer.sadms;
      value.wavelengths = static_cast<int>(p.answer.wavelengths);
      value.lower_bound = p.answer.lower_bound;
      value.parts = p.answer.parts;
      store.append_hold(p.plan_id, p.plan, key, value);
      out.table[p.plan_id] = p.plan;
      books.emplace(p.plan_id, PairBook(p.plan));
      base[p.plan_id] = p.plan.pairs.size();
      snap.plans.emplace_back(p.plan_id, p.plan);
      snap.next_plan_id = std::max(snap.next_plan_id, p.plan_id + 1);
    }
    snap.last_seq = store.last_seq();
    if (!store.write_snapshot(snap)) throw BenchError("snapshot not written");
    Rng rng = stream(seed, 14);
    std::vector<std::int64_t> ids;
    for (const auto& [id, plan] : out.table) ids.push_back(id);
    for (std::size_t i = 0; i < kRecoveryRecords; ++i) {
      const std::int64_t id = ids[rng.below(ids.size())];
      const Mutation m = next_mutation(rng, books[id], base[id]);
      if (m.provision) {
        store.append_provision(id, m.pairs);
        extend_plan_incremental(out.table[id], m.pairs);
      } else {
        store.append_release(id, m.pairs, false, true);
        release_demands(out.table[id], m.pairs, true);
      }
    }
    store.flush();
  }
  return out;
}

void measure_probe_layers(Workload& workload, const Cluster& cluster,
                          Tracer& tracer, Metrics& out) {
  const std::vector<ReadSample> samples = workload.read_sample();
  LineClient routed(cluster.router().port);
  std::vector<std::unique_ptr<LineClient>> direct;
  for (std::size_t s = 0; s < kShards; ++s) {
    direct.push_back(std::make_unique<LineClient>(cluster.replica(s).port));
  }
  // Each line goes through the router once to warm the read node it lands
  // on, then is timed direct to that node and again through the router.
  std::vector<double> direct_us, routed_us;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    std::string l = line(id, samples[i].body);
    l.pop_back();
    routed.call(l);
    const std::int32_t d = tracer.begin("probe.direct_rtt", -1, id);
    direct[static_cast<std::size_t>(samples[i].shard)]->call(l);
    tracer.end(d);
    direct_us.push_back(tracer.duration_us(d));
    const std::int32_t r = tracer.begin("probe.routed_rtt", -1, id);
    routed.call(l);
    tracer.end(r);
    routed_us.push_back(tracer.duration_us(r));
  }
  // The same lines in process: first pass misses (grooms), second hits.
  GroomingService service(memory_config());
  GroomingWorkspace ws;
  JsonWriter w;
  std::vector<double> miss_us, hit_us, second_us;
  std::vector<std::string> seen;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      std::string l = line(static_cast<std::int64_t>(i), samples[i].body);
      l.pop_back();
      ServiceRequest req = parsed(l);
      const double us = tracer.timed_us("service.execute_into", -1, [&] {
        service.execute_into(req, ws, w);
      });
      if (pass == 1) second_us.push_back(us);
      if (!is_groom(samples[i].body)) continue;
      const bool first = std::find(seen.begin(), seen.end(),
                                   samples[i].body) == seen.end();
      if (pass == 0 && first) {
        miss_us.push_back(us);
        seen.push_back(samples[i].body);
      } else if (pass == 1) {
        hit_us.push_back(us);
      }
    }
  }
  out["service.execute_us.groom_miss"] = median(miss_us);
  out["service.execute_us.groom_hit"] = median(hit_us);
  out["event_loop.overhead_us"] = median(direct_us) - median(second_us);
  out["router.overhead_us"] = median(routed_us) - median(direct_us);
}

void measure_inprocess_layers(Workload& workload,
                              const std::vector<ChurnPlan>& plans,
                              const RecoveryStore& store, std::uint64_t seed,
                              const std::string& scratch, Tracer& tracer,
                              Metrics& out) {
  // -- protocol / graph / router pre-forward on the workload's own lines.
  {
    std::vector<double> parse_us, parse_ns_per_kb, fp_ns_per_edge, pre_us;
    for (const std::string& l : workload.sample_lines()) {
      const std::int32_t pre = tracer.begin("router.preforward");
      const std::int32_t ps = tracer.begin("protocol.parse_request", pre);
      RequestParse p = parse_request(l);
      tracer.end(ps);
      if (!p.request) throw BenchError("sample line does not parse");
      const ServiceRequest& req = *p.request;
      if (req.has_route_key) {
        // Held-plan ops route by their key: nothing to hash.
      } else if (req.op == ServiceOp::kGroom) {
        const std::int32_t fs_span = tracer.begin("graph.fingerprint", pre);
        const std::uint64_t fp = graph_fingerprint(req.graph);
        tracer.end(fs_span);
        if (fp == 0) throw BenchError("zero fingerprint");
        fp_ns_per_edge.push_back(tracer.duration_us(fs_span) * 1e3 /
                                 std::max(1, req.graph.edge_count()));
      } else {
        const std::int32_t ks = tracer.begin("cluster.pairs_route_key", pre);
        const std::uint64_t key = cluster::pairs_route_key(req.add);
        tracer.end(ks);
        if (key == 0) throw BenchError("zero route key");
      }
      tracer.end(pre);
      parse_us.push_back(tracer.duration_us(ps));
      parse_ns_per_kb.push_back(tracer.duration_us(ps) * 1e3 /
                                (static_cast<double>(l.size()) / 1024.0));
      pre_us.push_back(tracer.duration_us(pre));
    }
    out["protocol.parse_us"] = median(parse_us);
    out["protocol.parse_ns_per_kb"] = median(parse_ns_per_kb);
    out["graph.fingerprint_ns_per_edge"] = median(fp_ns_per_edge);
    out["router.preforward_us"] = median(pre_us);
  }
  out["protocol.serialize_us"] = median(workload.serialize_us(tracer));

  // -- service: inline provisions (read_mix-style) and held-plan ops on a
  // ~2000-pair plan, in an in-memory service with a warm workspace.
  {
    GroomingService service(memory_config());
    GroomingWorkspace ws;
    JsonWriter w;
    std::vector<double> inline_us;
    for (std::size_t i = 0; i < 256; ++i) {
      Rng rng = stream(seed, 15, i);
      const Graph g = small_graph(rng);
      const GroomingPlan plan =
          held_plan(g, offline_groom(g, kSmallK), kSmallK);
      ServiceRequest req = parsed(line(
          0, inline_provision_body(plan, random_pair(rng, g.node_count()))));
      inline_us.push_back(tracer.timed_us("service.execute_into", -1, [&] {
        service.execute_into(req, ws, w);
      }));
    }
    out["service.execute_us.provision_inline"] = median(inline_us);

    const ChurnPlan& p = plans[0];
    ServiceRequest hold = parsed(line(0, groom_body(p.graph, kChurnK,
                                                    p.route_key, true)));
    service.execute_into(hold, ws, w);
    const std::int64_t plan_id = int_field(w.str(), "plan_id").value_or(-1);
    PairBook book(p.plan);
    Rng rng = stream(seed, 16);
    std::vector<double> prov_us, rel_us;
    for (int i = 0; i < 400; ++i) {
      const Mutation m = next_mutation(rng, book, p.plan.pairs.size());
      ServiceRequest req = parsed(
          line(0, held_body(m.provision, p.route_key, plan_id, m.pairs)));
      const double us = tracer.timed_us("service.execute_into", -1, [&] {
        service.execute_into(req, ws, w);
      });
      if (w.str().find("\"ok\":true") == std::string::npos) {
        throw BenchError("in-process held op failed: " + w.str());
      }
      (m.provision ? prov_us : rel_us).push_back(us);
    }
    out["service.execute_us.provision_held"] = median(prov_us);
    out["service.execute_us.release_held"] = median(rel_us);
  }

  // -- algorithms: SpanT_Euler on cold_big graphs, warm workspace, and the
  // phase split of the same graphs through the public kernels.
  {
    std::vector<double> total_ms, forest_ms, parity_ms, euler_ms;
    GroomingWorkspace ws;
    for (std::uint64_t i = 0; i < 4; ++i) {
      const Graph g = big_graph(seed, (1ull << 34) + i);
      run_algorithm(AlgorithmId::kSpanTEuler, g, kBigK, GroomingOptions{},
                    &ws);
      for (int rep = 0; rep < 3; ++rep) {
        total_ms.push_back(
            tracer.timed_us("algorithms.spant_euler", -1, [&] {
              run_algorithm(AlgorithmId::kSpanTEuler, g, kBigK,
                            GroomingOptions{}, &ws);
            }) /
            1e3);
      }
      GroomingWorkspace pw;
      pw.prepare(g);
      const GroomingOptions options;
      Rng rng(options.seed);
      const std::int32_t phases = tracer.begin("algorithms.phases");
      forest_ms.push_back(tracer.timed_us("algorithms.forest", phases, [&] {
        spanning_forest(pw.csr, options.tree_policy, &rng, pw.tree, &pw.arena);
      }) / 1e3);
      for (EdgeId e : pw.tree) pw.in_tree[static_cast<std::size_t>(e)] = 1;
      for (EdgeId e = 0; e < pw.csr.edge_count(); ++e) {
        const auto ei = static_cast<std::size_t>(e);
        pw.cotree[ei] = pw.in_tree[ei] ? 0 : 1;
        if (!pw.cotree[ei]) continue;
        parity_flip(pw.odd_parity, pw.csr.edge(e).u);
        parity_flip(pw.odd_parity, pw.csr.edge(e).v);
      }
      parity_ms.push_back(tracer.timed_us("algorithms.parity", phases, [&] {
        root_forest(pw.csr, pw.tree, pw.forest, &pw.arena);
        odd_subtree_edges_parity(pw.csr, pw.forest, pw.odd_parity, pw.e_odd,
                                 &pw.arena);
      }) / 1e3);
      std::copy(pw.cotree.begin(), pw.cotree.end(), pw.g2_mask.begin());
      for (EdgeId e : pw.e_odd) pw.g2_mask[static_cast<std::size_t>(e)] = 1;
      MonotonicArena arena;
      euler_ms.push_back(tracer.timed_us("algorithms.euler", phases, [&] {
        euler_decomposition(pw.csr, pw.g2_mask, arena);
      }) / 1e3);
      tracer.end(phases);
    }
    const double total = median(total_ms);
    out["algorithms.spant_euler_ms"] = total;
    out["algorithms.forest_frac"] = ratio(median(forest_ms), total);
    out["algorithms.parity_frac"] = ratio(median(parity_ms), total);
    out["algorithms.euler_frac"] = ratio(median(euler_ms), total);
  }

  // -- grooming: one incremental extend of 1-4 pairs at three plan sizes,
  // and a repairing release of 1-4 pairs at 2000.
  {
    struct Size {
      const char* metric;
      long long pairs;
      NodeId ring;
    };
    for (const Size& s : {Size{"grooming.extend_us.p500", 500, kChurnRing},
                          Size{"grooming.extend_us.p2000", 2000, kChurnRing},
                          Size{"grooming.extend_us.p8000", 8000, 192}}) {
      Rng rng = stream(seed, 17, static_cast<std::uint64_t>(s.pairs));
      const Graph g = random_gnm(s.ring, s.pairs, rng);
      const GroomingPlan plan =
          held_plan(g, offline_groom(g, kChurnK), kChurnK);
      const PairBook base(plan);
      std::vector<double> us;
      for (int rep = 0; rep < 40; ++rep) {
        PairBook book = base;
        const auto pairs =
            book.take_new(rng, 1 + static_cast<int>(rng.below(4)));
        us.push_back(tracer.timed_us("grooming.add_demands_incremental", -1,
                                     [&] {
                                       add_demands_incremental(plan, pairs);
                                     }));
      }
      out[s.metric] = median(us);
      if (s.pairs != 2000) continue;
      std::vector<double> release_us;
      double moves = 0;
      for (int rep = 0; rep < 40; ++rep) {
        PairBook book = base;
        const auto pairs =
            book.take_held(rng, 1 + static_cast<int>(rng.below(4)));
        GroomingPlan copy = plan;
        ReleaseStats st;
        release_us.push_back(tracer.timed_us(
            "grooming.release_demands", -1,
            [&] { st = release_demands(copy, pairs, true); }));
        moves += st.repair_moves;
      }
      out["grooming.release_us.p2000"] = median(release_us);
      out["grooming.repair_moves_per_release"] = moves / 40.0;
    }
  }

  // -- store: a snapshot of a plan_churn-sized table, and the replay of the
  // recovery store.
  {
    SnapshotData snap;
    for (const ChurnPlan& p : plans) {
      snap.plans.emplace_back(static_cast<std::int64_t>(snap.plans.size()) + 1,
                              p.plan);
    }
    snap.next_plan_id = static_cast<std::int64_t>(snap.plans.size()) + 1;
    const std::string dir = scratch + "/snapshots";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      snap.last_seq = static_cast<std::uint64_t>(rep) + 1;
      ms.push_back(tracer.timed_us("store.write_snapshot_file", -1, [&] {
        write_snapshot_file(dir, snap);
      }) / 1e3);
    }
    fs::remove_all(dir);
    out["store.snapshot_ms"] = median(ms);

    std::vector<double> replay_us;
    for (int rep = 0; rep < 3; ++rep) {
      StoreRecovery rec;
      replay_us.push_back(tracer.timed_us("store.recover_store_state", -1, [&] {
        recover_store_state(store.dir, &rec, false);
      }));
    }
    out["store.replay_us_per_record"] =
        median(replay_us) / static_cast<double>(kRecoveryRecords);
  }

  // -- replication: the replica apply path, record by record, over the
  // recovery store's WAL (holds, then provisions and releases).
  {
    struct Shipped {
      std::uint64_t seq;
      WalRecordType type;
      std::string body;
    };
    std::vector<Shipped> records;
    tail_wal(store.dir, 0, 0,
             [&](std::uint64_t seq, WalRecordType type, std::string_view body) {
               records.push_back({seq, type, std::string(body)});
             });
    if (records.empty() || records.front().seq != 1) {
      throw BenchError("recovery store WAL does not start at seq 1");
    }
    const std::string dir = scratch + "/apply";
    fs::remove_all(dir);
    ServiceConfig config = memory_config();
    config.data_dir = dir;
    GroomingService replica(config);
    replica.open_store();
    std::vector<double> us;
    for (const Shipped& r : records) {
      const double t = tracer.timed_us("repl.apply_replication_record", -1, [&] {
        replica.apply_replication_record(r.seq, r.type, r.body);
      });
      if (r.type != WalRecordType::kHoldPlan) us.push_back(t);
    }
    out["repl.apply_us"] = median(us);
  }
}

}  // namespace cbench
