// Seeded corpus of request lines for the parser golden test
// (protocol_test.cpp) and the tool that records its expected outcomes
// (parse_golden.cpp).
//
// The corpus is one valid line per op and field, a set of well-formed
// lines that each fail one semantic check, and seeded mutations of all
// of them: byte flips, deletions, truncations; duplicated, reordered and
// unknown members; escaped keys and values; respelled numbers; and
// nesting at depths 63, 64 and 65.  Everything is a pure function of the
// seed, so the recorded outcomes stay valid until this file changes.
//
// Outcomes are summarized as one text record per line: accepted lines
// record a hash of a canonical dump (every ServiceRequest field, or the
// whole JsonValue tree), rejected lines record has_id, id and the
// message.  Only the public parse_request / parse_json API is used, so
// the same code builds against older trees to record their outcomes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "util/json.hpp"

namespace tgroom::parse_corpus {

struct CorpusLine {
  std::string tag;   // base name, or "<mutation>/<base name>"
  std::string text;  // the request line (no newline)
};

inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Printable ASCII verbatim (backslash doubled); every other byte as \xHH,
/// so a record is one tab-free text line whatever bytes it quotes.
inline std::string escape_bytes(std::string_view s) {
  std::string out;
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u == '\\') {
      out += "\\\\";
    } else if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

// ------------------------------------------------------------- dumps

inline std::string dump_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline void dump_tree(const JsonValue& v, std::string& out) {
  switch (v.type) {
    case JsonValue::Type::kNull: out += 'n'; break;
    case JsonValue::Type::kBool: out += v.boolean ? 't' : 'f'; break;
    case JsonValue::Type::kNumber: out += '#' + dump_number(v.number); break;
    case JsonValue::Type::kString:
      out += "s\"" + escape_bytes(v.string) + '"';
      break;
    case JsonValue::Type::kArray:
      out += '[';
      for (const JsonValue& e : v.array) {
        dump_tree(e, out);
        out += ',';
      }
      out += ']';
      break;
    case JsonValue::Type::kObject:
      out += '{';
      for (const auto& [key, value] : v.object) {
        out += '"' + escape_bytes(key) + "\":";
        dump_tree(value, out);
        out += ',';
      }
      out += '}';
      break;
  }
}

inline std::string dump_pairs(const std::vector<DemandPair>& pairs) {
  std::string out = "[";
  for (const DemandPair& p : pairs) {
    out += std::to_string(p.a) + '-' + std::to_string(p.b) + ',';
  }
  return out + ']';
}

/// Every field parse_request sets, in declaration order.
inline std::string dump_request(const RequestParse& parse) {
  const ServiceRequest& r = *parse.request;
  std::string out;
  auto field = [&out](const char* name, const std::string& value) {
    out += name;
    out += '=';
    out += value;
    out += ' ';
  };
  auto num = [](auto v) { return std::to_string(v); };
  field("parse_id", num(parse.id));
  field("parse_has_id", num(parse.has_id));
  field("id", num(r.id));
  field("has_id", num(r.has_id));
  field("op", service_op_name(r.op));
  std::string edges = "[";
  for (const Edge& e : r.graph.edges()) {
    edges += std::to_string(e.u) + '-' + std::to_string(e.v) +
             (e.is_virtual ? "v," : ",");
  }
  field("graph_n", num(r.graph.node_count()));
  field("graph_edges", edges + ']');
  field("algorithm", num(static_cast<int>(r.algorithm)));
  field("k", num(r.k));
  field("seed", num(r.seed));
  field("refine", num(r.refine));
  field("smart_branches", num(r.smart_branches));
  field("hold", num(r.hold));
  field("include_partition", num(r.include_partition));
  field("plan_id", num(r.plan_id));
  if (r.plan) {
    std::string pairs = "[";
    for (const GroomedPair& gp : r.plan->pairs) {
      pairs += std::to_string(gp.pair.a) + '-' + std::to_string(gp.pair.b) +
               '-' + std::to_string(gp.wavelength) + '-' +
               std::to_string(gp.timeslot) + ',';
    }
    field("plan", num(r.plan->ring_size) + '/' +
                      num(r.plan->grooming_factor) + '/' + pairs + ']');
  } else {
    field("plan", "none");
  }
  field("add", dump_pairs(r.add));
  field("include_plan", num(r.include_plan));
  field("remove", dump_pairs(r.remove));
  field("release_all", num(r.release_all));
  field("repair", num(r.repair));
  field("repl_store_version", num(r.repl_store_version));
  field("repl_fingerprint_version", num(r.repl_fingerprint_version));
  field("repl_start_seq", num(r.repl_start_seq));
  field("repl_has_last_crc", num(r.repl_has_last_crc));
  field("repl_last_crc", num(r.repl_last_crc));
  field("repl_from_seq", num(r.repl_from_seq));
  field("repl_max_records", num(r.repl_max_records));
  field("repl_ack_seq", num(r.repl_ack_seq));
  field("repl_follower", escape_bytes(r.repl_follower));
  field("route_key", num(r.route_key));
  field("has_route_key", num(r.has_route_key));
  field("raw", escape_bytes(r.raw));
  field("deadline_ms", num(r.deadline_ms));
  return out;
}

/// `message` without the "check failed: <expr> at <file>:<line> — "
/// prefix TGROOM_CHECK_MSG puts before its text.
inline std::string strip_check_wrapper(const std::string& message) {
  const std::string dash = " \xe2\x80\x94 ";  // " — "
  if (message.rfind("check failed: ", 0) != 0) return message;
  const std::size_t at = message.find(dash);
  return at == std::string::npos ? message : message.substr(at + dash.size());
}

/// "ok:<dump hash>" or "err:<has_id>:<id>:<message>".
inline std::string request_outcome(const RequestParse& parse,
                                   bool strip_wrapper = false) {
  if (parse.request) return "ok:" + hex64(fnv1a(dump_request(parse)));
  return "err:" + std::to_string(parse.has_id) + ':' +
         std::to_string(parse.id) + ':' +
         escape_bytes(strip_wrapper ? strip_check_wrapper(parse.error)
                                    : parse.error);
}

/// "ok:<tree hash>" or "err:<message>".
inline std::string json_outcome(std::string_view line) {
  try {
    std::string dump;
    dump_tree(parse_json(line), dump);
    return "ok:" + hex64(fnv1a(dump));
  } catch (const CheckError& e) {
    return std::string("err:") + escape_bytes(e.what());
  }
}

/// One golden record: index, tag, line hash, request and tree outcomes.
inline std::string record(std::size_t index, const CorpusLine& line,
                          bool strip_wrapper = false) {
  return std::to_string(index) + '\t' + line.tag + '\t' +
         hex64(fnv1a(line.text)) + '\t' +
         request_outcome(parse_request(line.text), strip_wrapper) + '\t' +
         json_outcome(line.text);
}

// ------------------------------------------------------------ corpus

class Rng64 {  // splitmix64: fixed output on every platform
 public:
  explicit Rng64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

using Members = std::vector<std::pair<std::string, std::string>>;

struct Base {
  std::string name;
  Members members;  // key (raw JSON string body) -> raw JSON value
};

inline std::string compose(const Members& members, const char* sep = ",",
                           const char* colon = ":") {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += sep;
    out += '"' + members[i].first + '"' + colon + members[i].second;
  }
  return out + '}';
}

inline std::string edge_list(const std::vector<std::pair<int, int>>& edges) {
  std::string out = "[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) out += ',';
    out += '[' + std::to_string(edges[i].first) + ',' +
           std::to_string(edges[i].second) + ']';
  }
  return out + ']';
}

inline std::vector<Base> corpus_bases() {
  const std::string g6 =
      R"({"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,5],[0,3]]})";
  const std::string plan6 =
      R"({"ring_size":6,"k":4,"pairs":)"
      R"([[0,1,0,0],[1,2,0,1],[2,3,0,2],[0,3,1,0]]})";
  // A 16-node graph of the size the service benches send.
  std::vector<std::pair<int, int>> e16;
  Rng64 rng(16);
  for (int u = 0; u < 16; ++u) {
    for (int v = u + 1; v < 16; ++v) {
      if (rng.below(3) == 0) e16.push_back({u, v});
    }
  }
  const std::string g16 =
      R"({"n":16,"edges":)" + edge_list(e16) + "}";
  auto groom = [&](Members extra) {
    Members m = {{"op", R"("groom")"}, {"id", "1"}, {"graph", g6}};
    m.insert(m.end(), extra.begin(), extra.end());
    return m;
  };
  auto prov = [&](Members extra) {
    Members m = {{"op", R"("provision")"}, {"id", "3"}};
    m.insert(m.end(), extra.begin(), extra.end());
    return m;
  };
  auto rel = [&](Members extra) {
    Members m = {{"op", R"("release")"}, {"id", "5"}};
    m.insert(m.end(), extra.begin(), extra.end());
    return m;
  };
  return {
      // ---- valid: one line per op and field
      {"groom_min", groom({{"k", "4"}})},
      {"groom_full",
       groom({{"algorithm", R"("SpanT_Euler")"}, {"k", "8"}, {"seed", "7"},
              {"refine", "true"}, {"smart_branches", "false"},
              {"hold", "true"}, {"include_partition", "true"},
              {"deadline_ms", "250"}, {"route_key", "99"}})},
      {"groom_noid", {{"op", R"("groom")"}, {"graph", g6}}},
      {"groom_algo", groom({{"algorithm", R"("wanggu")"}, {"k", "2"},
                            {"smart_branches", "true"}})},
      {"groom_n16", {{"op", R"("groom")"}, {"id", "1234"}, {"graph", g16},
                     {"k", "8"}, {"seed", "3"}}},
      {"groom_empty_graph", groom({{"graph", R"({"n":0,"edges":[]})"}})},
      {"prov_held", prov({{"plan_id", "1"}, {"add", "[[1,4],[5,2]]"},
                          {"include_plan", "true"}, {"route_key", "17"}})},
      {"prov_inline", prov({{"plan", plan6}, {"add", "[[1,4]]"},
                            {"deadline_ms", "500"}})},
      {"rel_held", rel({{"plan_id", "2"}, {"remove", "[[0,1],[3,2]]"},
                        {"repair", "false"}, {"include_plan", "true"}})},
      {"rel_all", rel({{"plan_id", "2"}, {"all", "true"},
                       {"route_key", "3"}})},
      {"rel_inline", rel({{"plan", plan6}, {"remove", "[[1,2]]"}})},
      {"rel_all_false", rel({{"plan_id", "2"}, {"all", "false"},
                             {"remove", "[[1,2]]"}})},
      {"stats", {{"op", R"("stats")"}, {"id", "8"}}},
      {"stats_noid", {{"op", R"("stats")"}}},
      {"shutdown", {{"op", R"("shutdown")"}, {"id", "9"}}},
      {"health", {{"op", R"("health")"}, {"id", "10"}, {"route_key", "4"}}},
      {"promote", {{"op", R"("promote")"}, {"id", "11"}}},
      {"repl_handshake",
       {{"op", R"("repl_handshake")"}, {"id", "12"}, {"store_version", "3"},
        {"fingerprint_version", "1"}, {"start_seq", "10"},
        {"last_crc", "305419896"}}},
      {"repl_handshake_min",
       {{"op", R"("repl_handshake")"}, {"store_version", "3"},
        {"fingerprint_version", "1"}}},
      {"repl_fetch",
       {{"op", R"("repl_fetch")"}, {"id", "13"}, {"from_seq", "10"},
        {"max_records", "64"}, {"ack_seq", "9"},
        {"follower", R"("replica-1")"}}},
      {"repl_fetch_min", {{"op", R"("repl_fetch")"}, {"from_seq", "0"}}},
      {"repl_snapshot", {{"op", R"("repl_snapshot")"}, {"id", "14"}}},
      {"negative_id", {{"op", R"("stats")"}, {"id", "-42"}}},
      // ---- well-formed JSON, one failed semantic check each
      {"bad_no_op", {{"id", "5"}}},
      {"bad_op_type", {{"op", "5"}, {"id", "5"}}},
      {"bad_op_name", {{"op", R"("warp")"}, {"id", "5"}}},
      {"bad_id_string", {{"op", R"("stats")"}, {"id", R"("x")"}}},
      {"bad_id_fraction", {{"op", R"("stats")"}, {"id", "1.5"}}},
      {"bad_deadline", groom({{"deadline_ms", "-1"}})},
      {"bad_route_key", groom({{"route_key", R"("r")"}})},
      {"bad_no_graph", {{"op", R"("groom")"}, {"id", "7"}, {"k", "4"}}},
      {"bad_k_zero", groom({{"k", "0"}})},
      {"bad_k_string", groom({{"k", R"("4")"}})},
      {"bad_k_fraction", groom({{"k", "4.5"}})},
      {"bad_seed", groom({{"seed", "true"}})},
      {"bad_refine", groom({{"refine", "1"}})},
      {"bad_algorithm_type", groom({{"algorithm", "5"}})},
      {"bad_algorithm_name", groom({{"algorithm", R"("nope")"}})},
      {"bad_graph_type", groom({{"graph", "[]"}})},
      {"bad_graph_no_n", groom({{"graph", R"({"edges":[]})"}})},
      {"bad_graph_n_type", groom({{"graph", R"({"n":"6","edges":[]})"}})},
      {"bad_graph_n_range", groom({{"graph", R"({"n":-1,"edges":[]})"}})},
      {"bad_graph_no_edges", groom({{"graph", R"({"n":4})"}})},
      {"bad_graph_edges_type", groom({{"graph", R"({"n":4,"edges":{}})"}})},
      {"bad_edge_shape", groom({{"graph", R"({"n":4,"edges":[[0,1],[2]]})"}})},
      {"bad_edge_type",
       groom({{"graph", R"({"n":4,"edges":[[0,1],[2,"3"]]})"}})},
      {"bad_edge_range", groom({{"graph", R"({"n":4,"edges":[[0,4]]})"}})},
      {"bad_edge_loop", groom({{"graph", R"({"n":4,"edges":[[2,2]]})"}})},
      {"bad_edge_dup",
       groom({{"graph", R"({"n":4,"edges":[[0,1],[1,2],[1,0],[0,9]]})"}})},
      {"bad_edge_order",
       groom({{"graph", R"({"edges":[[0,1],[0,5],[1]],"n":4})"}})},
      {"bad_prov_both", prov({{"plan_id", "1"}, {"plan", plan6},
                              {"add", "[[0,1]]"}})},
      {"bad_prov_neither", prov({{"add", "[[0,1]]"}})},
      {"bad_prov_plan_id", prov({{"plan_id", "-1"}, {"add", "[[0,1]]"}})},
      {"bad_prov_plan_id_type",
       prov({{"plan_id", R"("1")"}, {"add", "[[0,1]]"}})},
      {"bad_prov_no_add", prov({{"plan_id", "1"}})},
      {"bad_prov_add_type", prov({{"plan_id", "1"}, {"add", "{}"}})},
      {"bad_prov_add_empty", prov({{"plan_id", "1"}, {"add", "[]"}})},
      {"bad_prov_add_loop", prov({{"plan_id", "1"}, {"add", "[[2,2]]"}})},
      {"bad_prov_add_negative",
       prov({{"plan_id", "1"}, {"add", "[[-1,2]]"}})},
      {"bad_prov_add_shape",
       prov({{"plan_id", "1"}, {"add", "[[1,2],[1]]"}})},
      {"bad_prov_include_plan",
       prov({{"plan_id", "1"}, {"add", "[[1,2]]"}, {"include_plan", "1"}})},
      {"bad_plan_type", prov({{"plan", "[]"}, {"add", "[[0,1]]"}})},
      {"bad_plan_no_ring",
       prov({{"plan", R"({"k":4,"pairs":[]})"}, {"add", "[[0,1]]"}})},
      {"bad_plan_ring_type",
       prov({{"plan", R"({"ring_size":"6","k":4,"pairs":[]})"},
             {"add", "[[0,1]]"}})},
      {"bad_plan_k",
       prov({{"plan", R"({"ring_size":6,"k":0,"pairs":[]})"},
             {"add", "[[0,1]]"}})},
      {"bad_plan_no_pairs",
       prov({{"plan", R"({"ring_size":6,"k":4})"}, {"add", "[[0,1]]"}})},
      {"bad_plan_pair_shape",
       prov({{"plan", R"({"ring_size":6,"k":4,"pairs":[[0,1,0]]})"},
             {"add", "[[0,1]]"}})},
      {"bad_plan_pair_range",
       prov({{"plan", R"({"ring_size":6,"k":4,"pairs":[[0,6,0,0]]})"},
             {"add", "[[0,1]]"}})},
      {"bad_plan_wavelength",
       prov({{"plan", R"({"ring_size":6,"k":4,"pairs":[[0,1,-1,0]]})"},
             {"add", "[[0,1]]"}})},
      {"bad_plan_timeslot",
       prov({{"plan", R"({"ring_size":6,"k":4,"pairs":[[0,1,0,4]]})"},
             {"add", "[[0,1]]"}})},
      {"bad_rel_neither", rel({{"remove", "[[0,1]]"}})},
      {"bad_rel_both_modes",
       rel({{"plan_id", "1"}, {"remove", "[[0,1]]"}, {"all", "true"}})},
      {"bad_rel_no_mode", rel({{"plan_id", "1"}})},
      {"bad_rel_remove_type", rel({{"plan_id", "1"}, {"remove", "{}"}})},
      {"bad_rel_remove_empty", rel({{"plan_id", "1"}, {"remove", "[]"}})},
      {"bad_rel_all_inline", rel({{"plan", plan6}, {"all", "true"}})},
      {"bad_rel_repair",
       rel({{"plan_id", "1"}, {"remove", "[[0,1]]"}, {"repair", R"("no")"}})},
      {"bad_rel_all_type", rel({{"plan_id", "1"}, {"all", "1"}})},
      {"bad_hs_no_store",
       {{"op", R"("repl_handshake")"}, {"id", "1"},
        {"fingerprint_version", "1"}}},
      {"bad_hs_no_fp",
       {{"op", R"("repl_handshake")"}, {"id", "1"}, {"store_version", "3"}}},
      {"bad_hs_start",
       {{"op", R"("repl_handshake")"}, {"store_version", "3"},
        {"fingerprint_version", "1"}, {"start_seq", "-1"}}},
      {"bad_hs_crc",
       {{"op", R"("repl_handshake")"}, {"store_version", "3"},
        {"fingerprint_version", "1"}, {"last_crc", "4294967296"}}},
      {"bad_fetch_no_from", {{"op", R"("repl_fetch")"}, {"id", "2"}}},
      {"bad_fetch_max",
       {{"op", R"("repl_fetch")"}, {"from_seq", "1"}, {"max_records", "-1"}}},
      {"bad_fetch_ack",
       {{"op", R"("repl_fetch")"}, {"from_seq", "1"}, {"ack_seq", "-1"}}},
      {"bad_fetch_follower",
       {{"op", R"("repl_fetch")"}, {"from_seq", "1"}, {"follower", "7"}}},
  };
}

/// Number tokens outside strings: (offset, length) in `text`.
inline std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      std::size_t j = i + 1;
      while (j < text.size() &&
             ((text[j] >= '0' && text[j] <= '9') || text[j] == '.' ||
              text[j] == 'e' || text[j] == 'E' || text[j] == '+' ||
              text[j] == '-')) {
        ++j;
      }
      out.push_back({i, j - i});
      i = j - 1;
    }
  }
  return out;
}

inline std::string random_digits(Rng64& rng, std::size_t count) {
  std::string out(1, static_cast<char>('1' + rng.below(9)));
  while (out.size() < count) out += static_cast<char>('0' + rng.below(10));
  return out;
}

/// Nested arrays whose innermost value sits `levels` below the start.
inline std::string nested(std::size_t levels, bool objects) {
  std::string open, close;
  for (std::size_t i = 0; i < levels; ++i) {
    open += objects ? R"({"a":)" : "[";
    close += objects ? "}" : "]";
  }
  return open + "1" + close;
}

inline std::vector<CorpusLine> build_corpus(std::size_t mutations_per_base = 36,
                                            std::uint64_t seed = 2026) {
  const std::vector<Base> bases = corpus_bases();
  std::vector<CorpusLine> out;
  for (const Base& b : bases) out.push_back({b.name, compose(b.members)});
  // Whitespace between every token of a few bases.
  for (const char* name : {"groom_full", "prov_inline", "repl_fetch"}) {
    for (const Base& b : bases) {
      if (b.name == name) {
        out.push_back({"spaced/" + b.name,
                       " \t" + compose(b.members, " ,\n ", " \r: ") + " \n"});
      }
    }
  }
  // Top-level non-objects and nesting at the depth limit.
  for (const char* doc : {"[1,2]", "\"str\"", "5", "null", "true", "", " ",
                          "not json", "{}", "{\"op\":\"stats\"}x"}) {
    out.push_back({"document", doc});
  }
  for (std::size_t depth : {63u, 64u, 65u}) {
    out.push_back({"nest/top", nested(depth, false)});
    out.push_back({"nest/top_objects", nested(depth, true)});
  }

  const std::vector<std::string> junk_values = {
      "null", "true", "-2.5e3", R"("\u00e9")", R"([1,{"a":"b"}])",
      R"({"id":3})", "[]", "{}", R"("x")", "0"};
  const std::vector<std::string> escaped_strings = {
      R"("\ud83d\ude00")", R"("\ud83d")", R"("\ude00")", R"("\q")",
      R"("\u12")", R"("\u00zz")", R"("tab\there")", R"("\/\b\f\n\r")",
      R"("\ud83dx")", R"("\ud83dA")"};
  const std::string structural = "{}[]:,\"\\ 0123456789-+.eEtrufalsn";

  Rng64 rng(seed);
  for (const Base& b : bases) {
    const std::string text = compose(b.members);
    for (std::size_t m = 0; m < mutations_per_base; ++m) {
      std::string kind;
      std::string line;
      Members mem = b.members;
      std::size_t pick = rng.below(13);
      if (pick > 10) pick = 8;  // respelled numbers get three shares
      switch (pick) {
        case 0: {  // byte flip
          kind = "flip";
          line = text;
          const std::size_t at = rng.below(line.size());
          line[at] = rng.below(2) == 0
                         ? structural[rng.below(structural.size())]
                         : static_cast<char>(rng.below(256));
          break;
        }
        case 1: {  // delete 1-3 bytes
          kind = "delete";
          line = text;
          const std::size_t at = rng.below(line.size());
          line.erase(at, 1 + rng.below(3));
          break;
        }
        case 2:  // truncation
          kind = "truncate";
          line = text.substr(0, rng.below(text.size()));
          break;
        case 3: {  // duplicated member, same or different value
          kind = "duplicate";
          const auto member = mem[rng.below(mem.size())];
          auto copy = member;
          if (rng.below(2) == 0) {
            copy.second = junk_values[rng.below(junk_values.size())];
          }
          mem.insert(mem.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(mem.size() + 1)),
                     copy);
          line = compose(mem);
          break;
        }
        case 4: {  // reordered members
          kind = "reorder";
          for (std::size_t i = mem.size(); i > 1; --i) {
            std::swap(mem[i - 1], mem[rng.below(i)]);
          }
          line = compose(mem);
          break;
        }
        case 5: {  // unknown member
          kind = "unknown";
          mem.insert(mem.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(mem.size() + 1)),
                     {"x_" + std::to_string(rng.below(100)),
                      junk_values[rng.below(junk_values.size())]});
          line = compose(mem);
          break;
        }
        case 6: {  // one key character as a \u escape
          kind = "escape_key";
          auto& key = mem[rng.below(mem.size())].first;
          const std::size_t at = rng.below(key.size());
          const auto code =
              static_cast<unsigned>(static_cast<unsigned char>(key[at]));
          char buf[8];
          if (rng.below(2) == 0) {
            std::snprintf(buf, sizeof buf, "\\u%04x", code);
          } else {
            std::snprintf(buf, sizeof buf, "\\u%04X", code);
          }
          key.replace(at, 1, buf);
          line = compose(mem);
          break;
        }
        case 7: {  // escapes in a value: string members, or a new string
          kind = "escape_value";
          auto& member = mem[rng.below(mem.size())];
          if (member.second.size() > 2 && member.second.front() == '"' &&
              rng.below(2) == 0) {
            const std::size_t at = 1 + rng.below(member.second.size() - 2);
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(
                              member.second[at])));
            member.second.replace(at, 1, buf);
          } else {
            member.second = escaped_strings[rng.below(escaped_strings.size())];
          }
          line = compose(mem);
          break;
        }
        case 8: {  // a number respelled
          line = text;
          const auto tokens = number_tokens(line);
          if (tokens.empty()) {
            kind = "number_none";
            break;
          }
          const auto [at, len] = tokens[rng.below(tokens.size())];
          const std::string tok = line.substr(at, len);
          const bool neg = tok[0] == '-';
          std::string spelled;
          switch (rng.below(6)) {
            case 0: kind = "number_fraction"; spelled = tok + ".0"; break;
            case 1: kind = "number_exponent"; spelled = tok + "e0"; break;
            case 2:
              kind = "number_leading_zero";
              spelled = neg ? "-0" + tok.substr(1) : "0" + tok;
              break;
            case 3: kind = "number_negative_zero"; spelled = "-0"; break;
            case 4: kind = "number_huge"; spelled = "1e400"; break;
            default:
              kind = "number_digits";
              spelled =
                  (neg ? "-" : "") + random_digits(rng, 16 + rng.below(4));
          }
          line.replace(at, len, spelled);
          break;
        }
        case 9: {  // nesting at the depth limit in an unknown member
          kind = "nest";
          const std::size_t depth = 63 + rng.below(3);
          // The member value sits at depth 1; its innermost scalar at `depth`.
          mem.insert(mem.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(mem.size() + 1)),
                     {"deep", nested(depth - 1, rng.below(2) == 0)});
          line = compose(mem);
          break;
        }
        default: {  // two mutations: a member-level one, then a byte flip
          kind = "mixed";
          const auto copy = mem[rng.below(mem.size())];
          mem.insert(mem.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(mem.size() + 1)),
                     copy);
          line = compose(mem);
          const std::size_t at = rng.below(line.size());
          line[at] = structural[rng.below(structural.size())];
          break;
        }
      }
      out.push_back({kind + "/" + b.name, std::move(line)});
    }
  }
  return out;
}

}  // namespace tgroom::parse_corpus
