// Static topology and routing math for the sharded grooming cluster.
//
// A cluster is N shard groups, each a primary plus zero or more replicas,
// all running `tgroom serve --shard-index i --shard-count N`.  The router
// (`tgroom route`, src/cluster/router.hpp) holds one immutable ClusterMap
// parsed from the --shards flag:
//
//   host:port[,host:port...];host:port[,host:port...];...
//
// — shard groups separated by ';', members by ',', the first member of
// each group the configured primary.  The map is static: membership never
// changes at runtime (failover re-elects a primary *within* a group, it
// never moves keys between groups), so routing is a pure function of the
// request and needs no coordination.
//
// Routing: every request reduces to a 64-bit key (an explicit `route_key`
// when the client sent one, the graph fingerprint for groom, a canonical
// pair hash for inline provision/release).  The key is finalized through
// splitmix64 — fingerprints carry a constant format-version top byte, so
// raw top bits would land every request on one shard — and the top 16
// mixed bits are range-mapped onto the N groups:
//
//   shard = (mix(key) >> 48) * N >> 16
//
// which is uniform for any N (not just powers of two) and, unlike mod,
// keeps the map monotone in the hash — adjacent hash space stays adjacent
// in shard space, which makes the pinned-mapping test's goldens stable to
// reason about.
//
// This header also owns the id-splice helpers the router forwards with:
// the router multiplexes many client requests over one pipelined backend
// connection, and backends answer in completion order, so every forwarded
// line carries a router-assigned id and the client's own id is spliced
// back into the response prefix before it leaves (responses always begin
// {"id":<int|null>, — service/protocol.cpp writes the id first precisely
// so this splice is an exact prefix operation, keeping the rest of the
// backend's bytes untouched).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tgroom {

struct DemandPair;

namespace cluster {

struct BackendAddress {
  std::string host;
  int port = 0;

  std::string str() const { return host + ":" + std::to_string(port); }
  bool operator==(const BackendAddress& o) const {
    return port == o.port && host == o.host;
  }
};

/// One shard group; members[0] is the configured primary, the rest are
/// replicas (failover may elect a different member at runtime, but the
/// map itself never changes).
struct ShardSpec {
  std::vector<BackendAddress> members;
};

struct ClusterMap {
  std::vector<ShardSpec> shards;
  std::size_t size() const { return shards.size(); }
};

/// Parses the --shards flag grammar above.  False with `error` set on a
/// malformed spec (empty group, missing port, port out of range, or a
/// duplicate address — one node serving two positions is always a
/// misconfiguration).
bool parse_cluster_map(const std::string& spec, ClusterMap& map,
                       std::string& error);

/// splitmix64 finalizer: the bijective mixer routing keys pass through so
/// structured keys (fingerprints with their constant version byte,
/// small-integer route_keys) spread over the whole 64-bit space.
inline std::uint64_t route_mix(std::uint64_t key) {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The owning shard for a routing key: top 16 mixed bits range-mapped
/// onto [0, nshards).  nshards must be in [1, 65536].
inline std::size_t shard_for_key(std::uint64_t key, std::size_t nshards) {
  return static_cast<std::size_t>((route_mix(key) >> 48) * nshards >> 16);
}

/// Canonical routing key for an inline (stateless) provision/release:
/// absorbs the demand pairs order-independently of nothing — pairs are
/// hashed in request order, which is deterministic because the router
/// hashes the same parsed request a single node would execute.
std::uint64_t pairs_route_key(const std::vector<DemandPair>& pairs);

// ---- id splice ----------------------------------------------------------

/// Removes the top-level "id" member from one request line, leaving valid
/// JSON (the adjacent comma goes with it).  Lines without a top-level id
/// come back unchanged.  The walk is a JsonCursor's: keys are compared
/// decoded, and values (strings, escapes, nested containers) are skipped
/// whole, so {"plan":{"id":1}} keeps its inner member.
std::string strip_top_level_id(std::string_view line);

/// The forwarded line: `stripped` (a strip_top_level_id result) with
/// `"id":<internal_id>` injected as the first member.
std::string compose_with_id(std::string_view stripped,
                            std::int64_t internal_id);

/// Splices the client's id back into a backend response.  `response`
/// must begin with {"id":<int|null> (every service response does); the
/// prefix through the id value is replaced with the client's id — or
/// null when the client sent none — and the remaining bytes pass through
/// untouched.  Returns false (leaving `out` empty) on a malformed prefix.
bool restore_response_id(std::string_view response, bool client_has_id,
                         std::int64_t client_id, std::string& out);

}  // namespace cluster
}  // namespace tgroom
