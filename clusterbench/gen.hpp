// Seeded inputs shared by the workloads and the per-layer measurements:
// graph families, request lines, the offline answers responses are checked
// against, and scanners that pull checked fields out of response lines.
// Every function here is a pure function of its arguments.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/workspace.hpp"
#include "graph/graph.hpp"
#include "grooming/plan.hpp"
#include "util/rng.hpp"

namespace cbench {

using tgroom::DemandPair;
using tgroom::Graph;
using tgroom::GroomingPlan;
using tgroom::Rng;

/// Independent stream for (seed, purpose, index): the same triple always
/// yields the same inputs, whatever else the run generated before.
Rng stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index = 0);
double unit(Rng& rng);  // uniform in [0, 1)

// Graph families.
constexpr int kSmallK = 8;       // read_mix and plan_churn groom pools
constexpr int kChurnK = 16;      // held plans
constexpr tgroom::NodeId kChurnRing = 96;
constexpr long long kChurnPairs = 2000;
constexpr int kBigK = 16;
constexpr tgroom::NodeId kBigN = 10000;
constexpr int kBigRings = 10;    // bench_scale's ring-cluster family:
constexpr long long kBigChords = kBigN / 2;  // m = 1.5 n

/// n uniform in [16, 48], m = n^1.5 random pairs (the paper's dense ratio 0.5).
Graph small_graph(Rng& rng);
/// Ring-cluster graph n = 10^4, m = 1.5*10^4, distinct per (seed, index).
Graph big_graph(std::uint64_t seed, std::uint64_t index);

/// What a groom answers (the fields the checks compare).
struct GroomAnswer {
  long long sadms = 0;
  long long wavelengths = 0;
  long long lower_bound = 0;
  std::vector<std::vector<tgroom::EdgeId>> parts;
};
/// Offline SpanT_Euler through run_algorithm, as the service computes it.
GroomAnswer offline_groom(const Graph& g, int k,
                          tgroom::GroomingWorkspace* ws = nullptr);
/// The plan a `hold` groom keeps for `g`.
GroomingPlan held_plan(const Graph& g, const GroomAnswer& answer, int k);

// Request bodies: the line without its leading `{"id":N,`; line() adds it.
std::string groom_body(const Graph& g, int k,
                       std::optional<std::int64_t> route_key = std::nullopt,
                       bool hold = false, bool include_partition = false,
                       std::uint64_t seed = 1);
std::string inline_provision_body(const GroomingPlan& plan,
                                  const DemandPair& pair);
std::string held_body(bool provision, std::int64_t route_key,
                      std::int64_t plan_id,
                      const std::vector<DemandPair>& pairs,
                      bool include_plan = false);
std::string line(std::int64_t id, std::string_view body);

/// A uniformly random pair of distinct nodes in [0, n), normalized a < b.
DemandPair random_pair(Rng& rng, tgroom::NodeId n);

/// Integer value of top-level-or-nested key `"key":` (first occurrence).
std::optional<long long> int_field(std::string_view line,
                                   std::string_view key);
/// The raw JSON value text of key `"key":` running to the end of the line
/// minus the closing brace (used for the last member: partition, plan).
std::optional<std::string_view> tail_field(std::string_view line,
                                           std::string_view key);

/// A held plan's demand pairs, tracked by the generator so provisions add
/// pairs the plan does not hold and releases remove pairs it does.
class PairBook {
 public:
  PairBook() = default;
  explicit PairBook(const GroomingPlan& plan);
  std::size_t size() const { return pairs_.size(); }
  /// Picks `count` distinct pairs not held and adds them.
  std::vector<DemandPair> take_new(Rng& rng, int count);
  /// Picks `count` distinct held pairs and removes them.
  std::vector<DemandPair> take_held(Rng& rng, int count);

 private:
  bool held(const DemandPair& p) const;
  std::vector<DemandPair> pairs_;
  std::vector<char> member_;  // ring x ring membership bitmap
  tgroom::NodeId ring_ = 0;
};

/// One held-plan mutation as the generator issued it.
struct Mutation {
  bool provision = true;
  std::vector<DemandPair> pairs;
};
/// The balanced churn rule every held plan follows: provision 1-4 new pairs
/// while the plan is at or below its preload size, else release 1-4 held
/// pairs, so plans stay near kChurnPairs whatever the run length.
Mutation next_mutation(Rng& rng, PairBook& book, std::size_t base_size);

/// The 16 preloaded plan_churn plans (G(96, 2000) graph, answer, plan),
/// 8 per shard.
struct ChurnPlan {
  Graph graph;
  GroomAnswer answer;
  GroomingPlan plan;
  std::int64_t route_key = 0;
  int shard = 0;
  std::int64_t plan_id = 0;  // the id its shard assigns in preload order
};
std::vector<ChurnPlan> churn_plans(std::uint64_t seed, std::size_t shards);

}  // namespace cbench
