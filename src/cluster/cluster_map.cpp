#include "cluster/cluster_map.hpp"

#include "grooming/demand.hpp"
#include "util/json.hpp"

namespace tgroom::cluster {

namespace {

bool parse_address(std::string_view token, BackendAddress& addr,
                   std::string& error) {
  const std::size_t colon = token.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == token.size()) {
    error = "expected host:port, got '" + std::string(token) + "'";
    return false;
  }
  long port = 0;
  for (std::size_t i = colon + 1; i < token.size(); ++i) {
    const char c = token[i];
    if (c < '0' || c > '9') {
      error = "non-numeric port in '" + std::string(token) + "'";
      return false;
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      error = "port out of range in '" + std::string(token) + "'";
      return false;
    }
  }
  if (port == 0) {
    error = "port 0 in '" + std::string(token) +
            "' (the map needs concrete ports; use --port-file on the "
            "backends to learn ephemeral ones)";
    return false;
  }
  addr.host = std::string(token.substr(0, colon));
  addr.port = static_cast<int>(port);
  return true;
}

}  // namespace

bool parse_cluster_map(const std::string& spec, ClusterMap& map,
                       std::string& error) {
  map.shards.clear();
  if (spec.empty()) {
    error = "empty cluster map";
    return false;
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string_view group(spec.data() + start, end - start);
    ShardSpec shard;
    std::size_t mstart = 0;
    while (mstart <= group.size()) {
      std::size_t mend = group.find(',', mstart);
      if (mend == std::string_view::npos) mend = group.size();
      const std::string_view token = group.substr(mstart, mend - mstart);
      if (token.empty()) {
        error = "empty member in shard group " +
                std::to_string(map.shards.size());
        return false;
      }
      BackendAddress addr;
      if (!parse_address(token, addr, error)) return false;
      shard.members.push_back(std::move(addr));
      if (mend == group.size()) break;
      mstart = mend + 1;
    }
    if (shard.members.empty()) {
      error = "empty shard group " + std::to_string(map.shards.size());
      return false;
    }
    map.shards.push_back(std::move(shard));
    if (end == spec.size()) break;
    start = end + 1;
  }
  if (map.shards.size() > 65536) {
    error = "too many shard groups (max 65536)";
    return false;
  }
  // One address serving two positions is always a misconfiguration: the
  // router would route distinct keys to the same store.
  for (std::size_t i = 0; i < map.shards.size(); ++i) {
    for (std::size_t j = 0; j < map.shards[i].members.size(); ++j) {
      for (std::size_t k = 0; k < map.shards.size(); ++k) {
        for (std::size_t l = 0; l < map.shards[k].members.size(); ++l) {
          if ((i != k || j != l) &&
              map.shards[i].members[j] == map.shards[k].members[l]) {
            error = "duplicate address " + map.shards[i].members[j].str() +
                    " in cluster map";
            return false;
          }
        }
      }
    }
  }
  return true;
}

std::uint64_t pairs_route_key(const std::vector<DemandPair>& pairs) {
  // A splitmix sponge over (a, b) in request order.  The constant seed
  // keeps inline provision/release keys disjoint from graph fingerprints
  // in expectation; exactness doesn't matter — any stable function of
  // the request works, it only has to agree with itself.
  std::uint64_t h = 0x7067726f6f6d6b65ULL;  // "pgroomke"
  for (const DemandPair& p : pairs) {
    h = route_mix(h ^ (static_cast<std::uint64_t>(p.a) << 32 |
                       static_cast<std::uint64_t>(p.b)));
  }
  return h;
}

std::string strip_top_level_id(std::string_view line) {
  // Malformed lines come back unchanged; the router only strips lines
  // parse_request accepted.
  try {
    JsonCursor c(line);
    if (c.peek() != JsonValue::Type::kObject || !c.enter_object()) {
      return std::string(line);
    }
    std::size_t prev_end = 0;  // one past the previous member's value
    bool first = true;
    do {
      // The first member's key, or just past the ',' before a later one.
      const std::size_t member_start = c.offset();
      const bool is_id = c.key() == "id";
      c.skip();
      const std::size_t value_end = c.offset();
      if (is_id) {
        // Remove the member plus one adjacent comma: the leading one when
        // this is not the first member, the trailing one otherwise.
        const std::size_t cut_begin = first ? member_start : prev_end;
        std::size_t cut_end = value_end;
        if (first && c.next_member()) cut_end = c.offset();
        std::string out;
        out.reserve(line.size());
        out.append(line.substr(0, cut_begin));
        out.append(line.substr(cut_end));
        return out;
      }
      prev_end = value_end;
      first = false;
    } while (c.next_member());
  } catch (const CheckError&) {
  }
  return std::string(line);
}

std::string compose_with_id(std::string_view stripped,
                            std::int64_t internal_id) {
  try {
    JsonCursor c(stripped);
    if (c.peek() == JsonValue::Type::kObject) {
      const std::size_t open = c.offset();
      const bool empty = !c.enter_object();
      std::string out;
      out.reserve(stripped.size() + 24);
      out.append("{\"id\":").append(std::to_string(internal_id));
      if (!empty) out.push_back(',');
      out.append(stripped.substr(open + 1));
      return out;
    }
  } catch (const CheckError&) {
  }
  // Not an object (cannot happen for a parsed request); pass through.
  return std::string(stripped);
}

bool restore_response_id(std::string_view response, bool client_has_id,
                         std::int64_t client_id, std::string& out) {
  out.clear();
  constexpr std::string_view kPrefix = "{\"id\":";
  if (response.substr(0, kPrefix.size()) != kPrefix) return false;
  std::size_t i = kPrefix.size();
  // The id value is an integer or null — it ends at the ',' before the
  // next member or the '}' of an (improbable) id-only object.
  while (i < response.size() && response[i] != ',' && response[i] != '}') {
    ++i;
  }
  if (i >= response.size()) return false;
  out.reserve(response.size() + 8);
  out.append(kPrefix);
  if (client_has_id) {
    out.append(std::to_string(client_id));
  } else {
    out.append("null");
  }
  out.append(response.substr(i));
  return true;
}

}  // namespace tgroom::cluster
