#include "service/protocol.hpp"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace tgroom {

const char* service_op_name(ServiceOp op) {
  switch (op) {
    case ServiceOp::kGroom: return "groom";
    case ServiceOp::kProvision: return "provision";
    case ServiceOp::kRelease: return "release";
    case ServiceOp::kStats: return "stats";
    case ServiceOp::kShutdown: return "shutdown";
    case ServiceOp::kHealth: return "health";
    case ServiceOp::kPromote: return "promote";
    case ServiceOp::kReplHandshake: return "repl_handshake";
    case ServiceOp::kReplFetch: return "repl_fetch";
    case ServiceOp::kReplSnapshot: return "repl_snapshot";
  }
  return "?";
}

const char* service_error_name(ServiceError code) {
  switch (code) {
    case ServiceError::kBadRequest: return "bad_request";
    case ServiceError::kOverloaded: return "overloaded";
    case ServiceError::kShuttingDown: return "shutting_down";
    case ServiceError::kDeadlineExceeded: return "deadline_exceeded";
    case ServiceError::kStoreIncompatible: return "store_incompatible";
    case ServiceError::kReadOnly: return "read_only";
    case ServiceError::kShardDown: return "shard_down";
    case ServiceError::kInternal: return "internal";
  }
  return "?";
}

namespace {

void write_id(JsonWriter& w, std::int64_t id, bool has_id) {
  if (has_id) {
    w.kv("id", static_cast<long long>(id));
  } else {
    w.key("id").null();
  }
}

}  // namespace

void begin_ok_response(JsonWriter& w, std::int64_t id, bool has_id,
                       ServiceOp op) {
  w.begin_object();
  write_id(w, id, has_id);
  w.kv("ok", true);
  w.kv("op", service_op_name(op));
}

std::string make_error_response(std::int64_t id, bool has_id,
                                ServiceError code,
                                const std::string& message) {
  JsonWriter w;
  write_error_response(w, id, has_id, code, message);
  return w.take();
}

void write_error_response(JsonWriter& w, std::int64_t id, bool has_id,
                          ServiceError code, const std::string& message) {
  w.begin_object();
  write_id(w, id, has_id);
  w.kv("ok", false);
  w.kv("error", service_error_name(code));
  w.kv("message", message);
  w.end_object();
}

void write_graph_json(JsonWriter& w, const Graph& g) {
  w.begin_object();
  w.kv("n", static_cast<long long>(g.node_count()));
  w.key("edges").begin_array();
  for (const Edge& e : g.edges()) {
    if (e.is_virtual) continue;
    w.begin_array()
        .value(static_cast<long long>(e.u))
        .value(static_cast<long long>(e.v))
        .end_array();
  }
  w.end_array();
  w.end_object();
}

void write_plan_json(JsonWriter& w, const GroomingPlan& plan) {
  w.begin_object();
  w.kv("ring_size", static_cast<long long>(plan.ring_size));
  w.kv("k", static_cast<long long>(plan.grooming_factor));
  w.key("pairs").begin_array();
  for (const GroomedPair& gp : plan.pairs) {
    w.begin_array()
        .value(static_cast<long long>(gp.pair.a))
        .value(static_cast<long long>(gp.pair.b))
        .value(static_cast<long long>(gp.wavelength))
        .value(static_cast<long long>(gp.timeslot))
        .end_array();
  }
  w.end_array();
  w.end_object();
}

void write_partition_json(JsonWriter& w, const EdgePartition& partition) {
  write_partition_json(w, partition.parts);
}

void write_partition_json(JsonWriter& w,
                          const std::vector<std::vector<EdgeId>>& parts) {
  w.begin_array();
  for (const auto& part : parts) {
    w.begin_array();
    for (EdgeId e : part) w.value(static_cast<long long>(e));
    w.end_array();
  }
  w.end_array();
}

void write_incremental_json(JsonWriter& w, const IncrementalStats& stats,
                            const GroomingPlan& plan, bool include_plan) {
  w.kv("new_sadms", static_cast<long long>(stats.new_sadms));
  w.kv("new_wavelengths", static_cast<long long>(stats.new_wavelengths));
  w.kv("reused_sites", static_cast<long long>(stats.reused_sites));
  w.kv("sadms", stats.sadms);
  w.kv("wavelengths", static_cast<long long>(stats.wavelengths));
  if (include_plan) {
    w.key("plan");
    write_plan_json(w, plan);
  }
}

void write_release_json(JsonWriter& w, const ReleaseStats& stats,
                        const GroomingPlan& plan, bool include_plan) {
  w.kv("released", static_cast<long long>(stats.released));
  w.kv("repair_moves", static_cast<long long>(stats.repair_moves));
  w.kv("freed_wavelengths",
       static_cast<long long>(stats.freed_wavelengths));
  w.kv("sadms_removed", stats.sadms_removed);
  w.kv("remaining", static_cast<long long>(plan.pairs.size()));
  w.kv("sadms", stats.sadms);
  w.kv("wavelengths", static_cast<long long>(stats.wavelengths));
  if (include_plan) {
    w.key("plan");
    write_plan_json(w, plan);
  }
}

namespace {

// ---- Request reader ----------------------------------------------------
//
// One JsonCursor pass over the line reads the first occurrence of every
// known member into a typed slot; repeated and unknown members are
// skipped, which still checks their syntax.  Only once the document has
// closed cleanly do the semantic checks run, in a fixed order over the
// slots, so a syntax error anywhere always wins over a semantic one.
// Graph edges, plan pairs and demand pairs are read as integer tuples
// into retained thread-local scratch: no tree, and a warm reader builds
// the graph in one degree-reserved pass.

// A member read as a scalar; a container keeps only its type.
struct Field {
  bool present = false;
  JsonValue::Type type = JsonValue::Type::kNull;
  bool boolean = false;
  JsonNumber number;
  std::string_view quoted;  // strings: the raw bytes, decoded by text_of()
};

// A member holding a list of fixed-arity integer tuples.  Tuples are kept
// up to the first malformed one (wrong shape, or an element as_int()
// refuses); its message waits in `error` for the semantic checks to
// report in its turn.
struct TupleList {
  explicit TupleList(std::vector<std::int64_t>& scratch) : values(scratch) {}
  bool present = false;
  bool is_array = false;
  std::vector<std::int64_t>& values;  // flattened tuples
  const char* error = nullptr;
};

struct ReaderScratch {
  std::vector<std::int64_t> edges, plan_pairs, add, remove;
  std::vector<NodeId> degree;
};
thread_local ReaderScratch t_scratch;

// An object member of scalar fields and one tuple list: a graph
// {"n", "edges"} or a plan {"ring_size", "k", "pairs"}.
struct NestedInput {
  explicit NestedInput(std::vector<std::int64_t>& scratch) : list(scratch) {}
  bool present = false;
  JsonValue::Type type = JsonValue::Type::kNull;
  Field fields[2];
  TupleList list;
};

struct RequestInput {
  Field op, id, deadline_ms, route_key, algorithm, k, seed, refine,
      smart_branches, hold, include_partition, plan_id, include_plan, all,
      repair, store_version, fingerprint_version, start_seq, last_crc,
      from_seq, max_records, ack_seq, follower;
  NestedInput graph{t_scratch.edges};
  NestedInput plan{t_scratch.plan_pairs};
  TupleList add{t_scratch.add};
  TupleList remove{t_scratch.remove};
};

constexpr std::pair<std::string_view, Field RequestInput::*> kFields[] = {
    {"op", &RequestInput::op},
    {"id", &RequestInput::id},
    {"deadline_ms", &RequestInput::deadline_ms},
    {"route_key", &RequestInput::route_key},
    {"algorithm", &RequestInput::algorithm},
    {"k", &RequestInput::k},
    {"seed", &RequestInput::seed},
    {"refine", &RequestInput::refine},
    {"smart_branches", &RequestInput::smart_branches},
    {"hold", &RequestInput::hold},
    {"include_partition", &RequestInput::include_partition},
    {"plan_id", &RequestInput::plan_id},
    {"include_plan", &RequestInput::include_plan},
    {"all", &RequestInput::all},
    {"repair", &RequestInput::repair},
    {"store_version", &RequestInput::store_version},
    {"fingerprint_version", &RequestInput::fingerprint_version},
    {"start_seq", &RequestInput::start_seq},
    {"last_crc", &RequestInput::last_crc},
    {"from_seq", &RequestInput::from_seq},
    {"max_records", &RequestInput::max_records},
    {"ack_seq", &RequestInput::ack_seq},
    {"follower", &RequestInput::follower},
};

// Walks an object's members; `read(key)` consumes the value of a key it
// takes and returns false for the rest, which are skipped.
template <typename Read>
void read_object(JsonCursor& c, Read&& read) {
  if (!c.enter_object()) return;
  do {
    if (!read(c.key())) c.skip();
  } while (c.next_member());
}

void read_field(JsonCursor& c, std::string_view line, Field& f) {
  f.present = true;
  f.type = c.peek();
  const std::size_t start = c.offset();
  switch (f.type) {
    case JsonValue::Type::kBool: f.boolean = c.boolean(); break;
    case JsonValue::Type::kNumber: f.number = c.number(); break;
    case JsonValue::Type::kString:
      c.string();
      f.quoted = line.substr(start, c.offset() - start);
      break;
    default: c.skip();
  }
}

// A string slot's decoded text.
std::string text_of(const Field& f) {
  JsonCursor c(f.quoted);
  return std::string(c.string());
}

void read_tuples(JsonCursor& c, TupleList& list, std::size_t arity,
                 const char* shape_error) {
  list.present = true;
  list.values.clear();
  list.is_array = c.peek() == JsonValue::Type::kArray;
  if (!list.is_array) {
    c.skip();
    return;
  }
  if (!c.enter_array()) return;
  do {
    std::int64_t tuple[4] = {0, 0, 0, 0};
    if (!list.error && c.integer_tuple(tuple, arity)) {
      for (std::size_t i = 0; i < arity; ++i) list.values.push_back(tuple[i]);
      continue;
    }
    if (list.error || c.peek() != JsonValue::Type::kArray) {
      c.skip();
      if (!list.error) list.error = shape_error;
      continue;
    }
    const char* problem = nullptr;  // first element as_int() refuses
    std::size_t count = 0;
    if (c.enter_array()) {
      do {
        if (count < arity && c.peek() == JsonValue::Type::kNumber) {
          const JsonNumber number = c.number();
          tuple[count] = number.integer;
          if (!number.exact && !problem) {
            problem = "JSON number is not an exact integer";
          }
        } else {
          if (count < arity && !problem) problem = "JSON value is not a number";
          c.skip();
        }
        ++count;
      } while (c.next_element());
    }
    if (count != arity) problem = shape_error;
    if (problem) {
      list.error = problem;
    } else {
      for (std::size_t i = 0; i < arity; ++i) list.values.push_back(tuple[i]);
    }
  } while (c.next_element());
}

void read_nested(JsonCursor& c, std::string_view line, NestedInput& in,
                 std::initializer_list<std::string_view> field_names,
                 std::string_view list_name, std::size_t arity,
                 const char* shape_error) {
  in.present = true;
  in.type = c.peek();
  if (in.type != JsonValue::Type::kObject) return c.skip();
  read_object(c, [&](std::string_view key) {
    if (key == list_name) {
      if (in.list.present) return false;
      read_tuples(c, in.list, arity, shape_error);
      return true;
    }
    Field* field = in.fields;
    for (std::string_view name : field_names) {
      if (key == name) {
        if (field->present) return false;
        read_field(c, line, *field);
        return true;
      }
      ++field;
    }
    return false;
  });
}

// Reads the document; false when it is valid JSON but not an object.
bool read_request(std::string_view line, RequestInput& in) {
  JsonCursor c(line);
  const bool is_object = c.peek() == JsonValue::Type::kObject;
  if (!is_object) {
    c.skip();
  } else {
    read_object(c, [&](std::string_view key) {
      if (key == "graph") {
        if (in.graph.present) return false;
        read_nested(c, line, in.graph, {"n"}, "edges", 2,
                    "graph edge must be a [u,v] pair");
      } else if (key == "plan") {
        if (in.plan.present) return false;
        read_nested(c, line, in.plan, {"ring_size", "k"}, "pairs", 4,
                    "plan pair must be [a,b,wavelength,timeslot]");
      } else if (key == "add" || key == "remove") {
        TupleList& list = key == "add" ? in.add : in.remove;
        if (list.present) return false;
        read_tuples(c, list, 2, "demand pair must be [a,b]");
      } else {
        for (const auto& [name, member] : kFields) {
          if (key != name) continue;
          if ((in.*member).present) return false;
          read_field(c, line, in.*member);
          return true;
        }
        return false;
      }
      return true;
    });
  }
  c.finish();
  return is_object;
}

// ---- semantic checks
//
// A failed check reports just its text — the message names the field and
// does not change when this file does.

[[noreturn]] void reject(const std::string& message) {
  throw CheckError(message);
}

void require(bool ok, const char* message) {
  if (!ok) reject(message);
}

// JsonValue::as_int()'s checks and messages, on a slot.
std::int64_t as_int(const Field& f) {
  require(f.type == JsonValue::Type::kNumber, "JSON value is not a number");
  require(f.number.exact, "JSON number is not an exact integer");
  return f.number.integer;
}

std::int64_t int_or(const Field& f, const char* name, std::int64_t fallback) {
  if (!f.present) return fallback;
  if (f.type != JsonValue::Type::kNumber) {
    reject(std::string("\"") + name + "\" must be an integer");
  }
  return as_int(f);
}

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// int_or() whose result must lie in [lo, hi].
std::int64_t int_in(const Field& f, const char* name, std::int64_t fallback,
                    std::int64_t lo, std::int64_t hi, const char* message) {
  const std::int64_t value = int_or(f, name, fallback);
  require(value >= lo && value <= hi, message);
  return value;
}

bool bool_or(const Field& f, const char* name, bool fallback) {
  if (!f.present) return fallback;
  if (f.type != JsonValue::Type::kBool) {
    reject(std::string("\"") + name + "\" must be a boolean");
  }
  return f.boolean;
}

constexpr std::int64_t kMaxNodes = 50'000'000;
constexpr std::int64_t kMaxK = 1'000'000;

// The one bound set of an inline plan, shared by the request reader and
// the replica's snapshot bootstrap: every value is range-checked as an
// int64 before it is narrowed to the plan's int fields.  Wavelengths must
// lie below the pair count — every plan the service hands out is dense
// (release renumbers after each change), and the bound keeps a hostile
// wavelength from sizing the per-wavelength indexes of a later extend.
GroomingPlan checked_plan(std::int64_t ring, std::int64_t k,
                          const std::vector<std::int64_t>& tuples) {
  require(ring >= 0, "plan.ring_size is required");
  require(ring <= kMaxNodes, "plan.ring_size must be in [0, 5e7]");
  require(k >= 1, "plan.k must be >= 1");
  require(k <= kMaxK, "plan.k must be in [1, 1e6]");
  const auto count = static_cast<std::int64_t>(tuples.size() / 4);
  GroomingPlan plan;
  plan.ring_size = static_cast<NodeId>(ring);
  plan.grooming_factor = static_cast<int>(k);
  plan.pairs.reserve(tuples.size() / 4);
  for (std::size_t i = 0; i + 4 <= tuples.size(); i += 4) {
    const std::int64_t a = tuples[i], b = tuples[i + 1];
    const std::int64_t wavelength = tuples[i + 2], timeslot = tuples[i + 3];
    require(a >= 0 && b >= 0 && a < ring && b < ring && a != b,
            "plan pair endpoints out of range");
    require(wavelength >= 0, "plan wavelength must be >= 0");
    require(wavelength < count,
            "plan wavelength must be below the plan's pair count");
    require(timeslot >= 0 && timeslot < k, "plan timeslot out of range");
    plan.pairs.push_back(GroomedPair{
        DemandPair{static_cast<NodeId>(std::min(a, b)),
                   static_cast<NodeId>(std::max(a, b))},
        static_cast<int>(wavelength), static_cast<int>(timeslot)});
  }
  return plan;
}

Graph build_graph(const NestedInput& g) {
  require(g.type == JsonValue::Type::kObject, "\"graph\" must be an object");
  require(g.fields[0].present, "graph.n is required");
  const std::int64_t n = as_int(g.fields[0]);
  require(n >= 0 && n <= kMaxNodes, "graph.n out of range");
  require(g.list.present && g.list.is_array,
          "graph.edges (array) is required");
  const std::vector<std::int64_t>& e = g.list.values;
  const std::size_t m = e.size() / 2;
  auto in_range = [n](std::int64_t x) { return x >= 0 && x < n; };
  // Edges before the first bad endpoint can be indexed by endpoint.
  std::size_t valid = 0;
  while (valid < m && in_range(e[2 * valid]) && in_range(e[2 * valid + 1]) &&
         e[2 * valid] != e[2 * valid + 1]) {
    ++valid;
  }
  auto& degree = t_scratch.degree;
  degree.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < 2 * valid; ++i) {
    ++degree[static_cast<std::size_t>(e[i])];
  }
  Graph graph(static_cast<NodeId>(n));
  graph.reserve_edges(static_cast<EdgeId>(m));
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    graph.reserve_degree(v, degree[static_cast<std::size_t>(v)]);
  }
  for (std::size_t i = 0; i < valid; ++i) {
    const auto u = static_cast<NodeId>(e[2 * i]);
    const auto v = static_cast<NodeId>(e[2 * i + 1]);
    require(graph.find_edge(u, v) == kInvalidEdge,
            "duplicate edge in graph.edges");
    graph.add_edge(u, v);
  }
  if (valid < m) {
    require(in_range(e[2 * valid]) && in_range(e[2 * valid + 1]),
            "edge endpoint out of range");
    reject("self-loop edges are not allowed");
  }
  if (g.list.error) reject(g.list.error);
  return graph;
}

GroomingPlan build_plan(const NestedInput& p) {
  require(p.type == JsonValue::Type::kObject, "\"plan\" must be an object");
  const std::int64_t ring = int_in(p.fields[0], "ring_size", -1, 0, kMax,
                                   "plan.ring_size is required");
  const std::int64_t k =
      int_in(p.fields[1], "k", -1, 1, kMax, "plan.k must be >= 1");
  require(p.list.present && p.list.is_array, "plan.pairs (array) is required");
  GroomingPlan plan = checked_plan(ring, k, p.list.values);
  if (p.list.error) reject(p.list.error);
  return plan;
}

// [[a,b],...] demand pairs; normalizes a < b, rejects a == b.
std::vector<DemandPair> build_pairs(const TupleList& list) {
  std::vector<DemandPair> pairs;
  pairs.reserve(list.values.size() / 2);
  for (std::size_t i = 0; i < list.values.size(); i += 2) {
    const std::int64_t a = list.values[i], b = list.values[i + 1];
    require(a >= 0 && b >= 0, "demand endpoints must be >= 0");
    require(a < kMaxNodes && b < kMaxNodes,
            "demand endpoints must be below 5e7");
    require(a != b, "demand pair {x,x} is meaningless");
    pairs.push_back(DemandPair{static_cast<NodeId>(std::min(a, b)),
                               static_cast<NodeId>(std::max(a, b))});
  }
  if (list.error) reject(list.error);
  return pairs;
}

void check_request(const RequestInput& in, ServiceRequest& request) {
  require(in.op.present && in.op.type == JsonValue::Type::kString,
          "\"op\" (string) is required");
  const std::string name = text_of(in.op);
  int op = 0;
  while (name != service_op_name(static_cast<ServiceOp>(op))) {
    if (++op > static_cast<int>(ServiceOp::kReplSnapshot)) {
      reject("unknown op '" + name + "'");
    }
  }
  request.op = static_cast<ServiceOp>(op);

  request.deadline_ms = int_in(in.deadline_ms, "deadline_ms", 0, 0, kMax,
                               "\"deadline_ms\" must be >= 0");
  if (in.route_key.present) {
    request.route_key = int_or(in.route_key, "route_key", 0);
    request.has_route_key = true;
  }

  switch (request.op) {
    case ServiceOp::kGroom: {
      require(in.graph.present, "\"graph\" is required for groom");
      request.graph = build_graph(in.graph);
      if (in.algorithm.present) {
        require(in.algorithm.type == JsonValue::Type::kString,
                "\"algorithm\" must be a string");
        const std::string algorithm = text_of(in.algorithm);
        auto id = parse_algorithm_name(algorithm);
        if (!id) reject("unknown algorithm '" + algorithm + "'");
        request.algorithm = *id;
      }
      request.k = static_cast<int>(
          int_in(in.k, "k", 16, 1, kMaxK, "\"k\" must be in [1, 1e6]"));
      request.seed = static_cast<std::uint64_t>(int_or(in.seed, "seed", 1));
      request.refine = bool_or(in.refine, "refine", false);
      request.smart_branches =
          bool_or(in.smart_branches, "smart_branches", false);
      request.hold = bool_or(in.hold, "hold", false);
      request.include_partition =
          bool_or(in.include_partition, "include_partition", false);
      break;
    }
    case ServiceOp::kProvision:
    case ServiceOp::kRelease: {
      const bool provision = request.op == ServiceOp::kProvision;
      require(in.plan.present != in.plan_id.present,
              provision
                  ? "provision needs exactly one of \"plan\"/\"plan_id\""
                  : "release needs exactly one of \"plan\"/\"plan_id\"");
      if (in.plan.present) {
        request.plan = build_plan(in.plan);
      } else {
        request.plan_id = as_int(in.plan_id);
        require(request.plan_id >= 0, "\"plan_id\" must be >= 0");
      }
      if (provision) {
        require(in.add.present, "\"add\" is required for provision");
        require(in.add.is_array, "\"add\" must be an array of [a,b] pairs");
        request.add = build_pairs(in.add);
        require(!request.add.empty(), "\"add\" lists no pairs");
        request.include_plan = bool_or(in.include_plan, "include_plan", false);
        break;
      }
      request.release_all = bool_or(in.all, "all", false);
      if (request.release_all) {
        require(!in.remove.present,
                "release takes \"remove\" or \"all\", not both");
        require(!in.plan.present,
                "\"all\" releases a held plan; use \"plan_id\"");
      } else {
        require(in.remove.present,
                "release needs \"remove\" pairs or \"all\":true");
        require(in.remove.is_array,
                "\"remove\" must be an array of [a,b] pairs");
        request.remove = build_pairs(in.remove);
        require(!request.remove.empty(), "\"remove\" lists no pairs");
      }
      request.repair = bool_or(in.repair, "repair", true);
      request.include_plan = bool_or(in.include_plan, "include_plan", false);
      break;
    }
    case ServiceOp::kReplHandshake: {
      request.repl_store_version =
          int_in(in.store_version, "store_version", -1, 0, kMax,
                 "\"store_version\" is required for repl_handshake");
      request.repl_fingerprint_version =
          int_in(in.fingerprint_version, "fingerprint_version", -1, 0, kMax,
                 "\"fingerprint_version\" is required for repl_handshake");
      request.repl_start_seq = static_cast<std::uint64_t>(int_in(
          in.start_seq, "start_seq", 0, 0, kMax, "\"start_seq\" must be >= 0"));
      const std::int64_t crc = int_or(in.last_crc, "last_crc", -1);
      if (crc >= 0) {
        require(crc <= 0xffffffffll, "\"last_crc\" must fit in 32 bits");
        request.repl_has_last_crc = true;
        request.repl_last_crc = static_cast<std::uint32_t>(crc);
      }
      break;
    }
    case ServiceOp::kReplFetch: {
      request.repl_from_seq = static_cast<std::uint64_t>(
          int_in(in.from_seq, "from_seq", -1, 0, kMax,
                 "\"from_seq\" (>= 0) is required for repl_fetch"));
      request.repl_max_records = int_in(in.max_records, "max_records", 0, 0,
                                        kMax, "\"max_records\" must be >= 0");
      request.repl_ack_seq = static_cast<std::uint64_t>(int_in(
          in.ack_seq, "ack_seq", 0, 0, kMax, "\"ack_seq\" must be >= 0"));
      if (in.follower.present) {
        require(in.follower.type == JsonValue::Type::kString,
                "\"follower\" must be a string");
        request.repl_follower = text_of(in.follower);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace

GroomingPlan plan_from_json(const JsonValue& v) {
  require(v.is_object(), "\"plan\" must be an object");
  const JsonValue* ring = v.find("ring_size");
  const JsonValue* k = v.find("k");
  const JsonValue* pairs = v.find("pairs");
  require(pairs != nullptr && pairs->is_array(),
          "plan.pairs (array) is required");
  std::vector<std::int64_t> tuples;
  tuples.reserve(pairs->array.size() * 4);
  for (const JsonValue& p : pairs->array) {
    require(p.is_array() && p.array.size() == 4,
            "plan pair must be [a,b,wavelength,timeslot]");
    for (const JsonValue& x : p.array) tuples.push_back(x.as_int());
  }
  return checked_plan(ring ? ring->as_int() : -1, k ? k->as_int() : -1,
                      tuples);
}

RequestParse parse_request(std::string_view line) {
  RequestParse out;
  RequestInput in;
  try {
    if (!read_request(line, in)) {
      out.error = "request must be a JSON object";
      return out;
    }
  } catch (const CheckError& e) {
    out.error = e.what();
    return out;
  }
  if (in.id.present) {
    if (in.id.type != JsonValue::Type::kNumber || !in.id.number.exact) {
      out.error = "\"id\" must be an integer";
      return out;
    }
    out.id = in.id.number.integer;
    out.has_id = true;
  }
  ServiceRequest request;
  request.id = out.id;
  request.has_id = out.has_id;
  try {
    check_request(in, request);
  } catch (const CheckError& e) {
    out.error = e.what();
    return out;
  }
  out.request = std::move(request);
  return out;
}

}  // namespace tgroom
