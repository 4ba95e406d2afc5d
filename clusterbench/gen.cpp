#include "gen.hpp"

#include <algorithm>
#include <cmath>

#include "algorithms/algorithm.hpp"
#include "cluster/cluster_map.hpp"
#include "gen/random_graph.hpp"
#include "grooming/demand.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"

namespace cbench {

using namespace tgroom;

Rng stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull ^ (purpose << 48) ^ index;
  return Rng(splitmix64(state));
}

double unit(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

Graph small_graph(Rng& rng) {
  const auto n = static_cast<NodeId>(16 + rng.below(33));
  return random_dense_ratio(n, 0.5, rng);
}

Graph big_graph(std::uint64_t seed, std::uint64_t index) {
  Rng rng = stream(seed, 3, index);
  return ring_cluster_graph(kBigN, kBigRings, kBigChords, rng);
}

GroomAnswer offline_groom(const Graph& g, int k, GroomingWorkspace* ws) {
  const EdgePartition p =
      run_algorithm(AlgorithmId::kSpanTEuler, g, k, GroomingOptions{}, ws);
  GroomAnswer a;
  a.sadms = sadm_cost(g, p);
  a.wavelengths = p.wavelength_count();
  a.lower_bound = partition_cost_lower_bound(g, k);
  a.parts = p.parts;
  return a;
}

GroomingPlan held_plan(const Graph& g, const GroomAnswer& answer, int k) {
  EdgePartition partition;
  partition.k = k;
  partition.parts = answer.parts;
  return plan_from_partition(DemandSet::from_traffic_graph(g), g, partition);
}

std::string groom_body(const Graph& g, int k,
                       std::optional<std::int64_t> route_key, bool hold,
                       bool include_partition, std::uint64_t seed) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", 0LL);
  w.kv("op", "groom");
  if (route_key) w.kv("route_key", static_cast<long long>(*route_key));
  w.key("graph");
  write_graph_json(w, g);
  w.kv("k", static_cast<long long>(k));
  if (seed != 1) w.kv("seed", seed);
  if (hold) w.kv("hold", true);
  if (include_partition) w.kv("include_partition", true);
  w.end_object();
  return w.take().substr(8);  // drop {"id":0,
}

namespace {

void append_pairs(std::string& out, const std::vector<DemandPair>& pairs) {
  out += '[';
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(pairs[i].a);
    out += ',';
    out += std::to_string(pairs[i].b);
    out += ']';
  }
  out += ']';
}

}  // namespace

std::string inline_provision_body(const GroomingPlan& plan,
                                  const DemandPair& pair) {
  JsonWriter w;
  w.begin_object();
  w.kv("id", 0LL);
  w.kv("op", "provision");
  w.key("plan");
  write_plan_json(w, plan);
  w.key("add").begin_array().begin_array();
  w.value(static_cast<long long>(pair.a)).value(static_cast<long long>(pair.b));
  w.end_array().end_array();
  w.end_object();
  return w.take().substr(8);
}

std::string held_body(bool provision, std::int64_t route_key,
                      std::int64_t plan_id,
                      const std::vector<DemandPair>& pairs,
                      bool include_plan) {
  std::string b = provision ? "\"op\":\"provision\"" : "\"op\":\"release\"";
  b += ",\"route_key\":" + std::to_string(route_key);
  b += ",\"plan_id\":" + std::to_string(plan_id);
  b += provision ? ",\"add\":" : ",\"remove\":";
  append_pairs(b, pairs);
  if (!provision) b += ",\"repair\":true";
  if (include_plan) b += ",\"include_plan\":true";
  b += '}';
  return b;
}

std::string line(std::int64_t id, std::string_view body) {
  std::string l = "{\"id\":" + std::to_string(id) + ",";
  l.append(body);
  l += '\n';
  return l;
}

DemandPair random_pair(Rng& rng, NodeId n) {
  auto a = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
  auto b = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n - 1)));
  if (b >= a) ++b;
  return a < b ? DemandPair{a, b} : DemandPair{b, a};
}

std::optional<long long> int_field(std::string_view line,
                                   std::string_view key) {
  std::string needle = "\"";
  needle.append(key);
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  bool negative = false;
  if (i < line.size() && line[i] == '-') {
    negative = true;
    ++i;
  }
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  long long v = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    v = v * 10 + (line[i] - '0');
  }
  return negative ? -v : v;
}

std::optional<std::string_view> tail_field(std::string_view line,
                                           std::string_view key) {
  std::string needle = ",\"";
  needle.append(key);
  needle += "\":";
  const std::size_t at = line.rfind(needle);
  if (at == std::string_view::npos || line.empty() || line.back() != '}') {
    return std::nullopt;
  }
  const std::size_t from = at + needle.size();
  return line.substr(from, line.size() - 1 - from);
}

PairBook::PairBook(const GroomingPlan& plan)
    : member_(static_cast<std::size_t>(plan.ring_size) *
                  static_cast<std::size_t>(plan.ring_size),
              0),
      ring_(plan.ring_size) {
  for (const GroomedPair& gp : plan.pairs) {
    pairs_.push_back(gp.pair);
    member_[static_cast<std::size_t>(gp.pair.a * ring_ + gp.pair.b)] = 1;
  }
}

bool PairBook::held(const DemandPair& p) const {
  return member_[static_cast<std::size_t>(p.a * ring_ + p.b)] != 0;
}

std::vector<DemandPair> PairBook::take_new(Rng& rng, int count) {
  std::vector<DemandPair> out;
  while (static_cast<int>(out.size()) < count) {
    const DemandPair p = random_pair(rng, ring_);
    if (held(p)) continue;
    member_[static_cast<std::size_t>(p.a * ring_ + p.b)] = 1;
    pairs_.push_back(p);
    out.push_back(p);
  }
  return out;
}

std::vector<DemandPair> PairBook::take_held(Rng& rng, int count) {
  std::vector<DemandPair> out;
  for (int i = 0; i < count && !pairs_.empty(); ++i) {
    const std::size_t at = rng.below(pairs_.size());
    const DemandPair p = pairs_[at];
    pairs_[at] = pairs_.back();
    pairs_.pop_back();
    member_[static_cast<std::size_t>(p.a * ring_ + p.b)] = 0;
    out.push_back(p);
  }
  return out;
}

Mutation next_mutation(Rng& rng, PairBook& book, std::size_t base_size) {
  Mutation m;
  const int count = 1 + static_cast<int>(rng.below(4));
  m.provision = book.size() <= base_size;
  m.pairs = m.provision ? book.take_new(rng, count)
                        : book.take_held(rng, count);
  return m;
}

std::vector<ChurnPlan> churn_plans(std::uint64_t seed, std::size_t shards) {
  constexpr std::size_t kPlans = 16;
  // Route keys: the first keys of a seeded sequence that land on each
  // shard, so plan j lives on shard j % shards and every shard holds
  // kPlans / shards plans.
  std::vector<std::vector<std::int64_t>> keys(shards);
  for (std::int64_t key = static_cast<std::int64_t>((seed % 1000) << 20);
       ; ++key) {
    const std::size_t s =
        cluster::shard_for_key(static_cast<std::uint64_t>(key), shards);
    if (keys[s].size() < kPlans / shards) keys[s].push_back(key);
    bool full = true;
    for (const auto& k : keys) full = full && k.size() == kPlans / shards;
    if (full) break;
  }
  std::vector<ChurnPlan> plans(kPlans);
  for (std::size_t j = 0; j < kPlans; ++j) {
    ChurnPlan& p = plans[j];
    Rng rng = stream(seed, 2, j);
    p.graph = random_gnm(kChurnRing, kChurnPairs, rng);
    p.answer = offline_groom(p.graph, kChurnK);
    p.plan = held_plan(p.graph, p.answer, kChurnK);
    p.shard = static_cast<int>(j % shards);
    p.route_key = keys[j % shards][j / shards];
    p.plan_id = static_cast<std::int64_t>(j / shards) + 1;
  }
  return plans;
}

}  // namespace cbench
