// Peer-probe interface between the AP runtime and the fleet's cooperative
// cache directory (DESIGN.md §5j).
//
// On a local cache miss the AP may, before paying the edge round trip,
// consult a directory for a *neighbor* AP that holds the object and relay
// the fetch over the LAN.  The runtime only sees this interface; the
// directory protocol (sharded UDP services, leases, epochs) lives in
// src/fleet, keeping core free of any fleet dependency.  All cross-AP state
// access stays protocol-only: the resolver answers with a location, never
// with a reference into another AP's store.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/url_hash.hpp"
#include "net/address.hpp"
#include "obs/span.hpp"

namespace ape::core {

// Where the directory believes a copy lives.  `epoch` is the answering
// shard's failover epoch — consumers treat answers as hints (bounded
// staleness), so the epoch is diagnostic, not a correctness token.
struct PeerLocation {
  std::uint32_t ap_id = 0;
  net::IpAddress ip;
  std::uint64_t epoch = 0;
};

class PeerResolver {
 public:
  virtual ~PeerResolver() = default;

  using LookupHandler = std::function<void(std::optional<PeerLocation>)>;

  // Resolves `key` to a neighbor AP believed to cache it (never the asking
  // AP itself); nullopt when no peer holds it or the directory is
  // unreachable.  `parent` parents the resolver's "dir.lookup" span.
  virtual void lookup_peer(UrlHash key, const obs::TraceContext& parent,
                           LookupHandler done) = 0;

  // Feedback from a failed redirect: the peer 404'd a key the directory
  // advertised (bounded staleness showing).  Implementations drop their
  // cached answer and count a stale redirect.
  virtual void note_stale(UrlHash key) = 0;
};

}  // namespace ape::core
