// Sharded cooperative-cache directory for multi-AP fleets (DESIGN.md §5j).
//
// Every AP mirrors its cache membership into a hash-sharded directory
// running on controller nodes; on a local miss the AP asks the key's shard
// for a *neighbor* that holds the object and relays the fetch over the LAN
// instead of paying the WAN round trip.  The directory is a hint service:
// answers are cached with a bounded-staleness TTL and a stale redirect
// degrades to the ordinary edge path, never to a client-visible error.
//
// Wire protocol (UDP, line-oriented text — same idiom as the Wi-Cache
// control plane in baselines/wicache_controller.hpp):
//
//   AP -> shard :5400   "PUBLISH <ap_id> <key> <ttl_s>"
//                       "RETRACT <ap_id> <key>"
//                       "LOOKUP <seq> <ap_id> <key>"
//                       "LEASE <seq> <ap_id> <ttl_s> <key> <key> ..."
//   shard -> AP :5401   "FOUND <seq> <shard> <epoch> <owner_ap>"
//                       "MISS <seq> <shard> <epoch>"
//                       "LEASEACK <seq> <shard> <epoch> <renewed>"
//
// Holdings are soft state under leases: a PUBLISH grants a lease of <ttl_s>
// seconds and the periodic LEASE round renews every key the AP still holds,
// so entries for crashed APs age out on their own.  Every reply carries the
// shard's failover *epoch*: a restarted shard comes back empty with a
// bumped epoch, and clients that see the bump replay PUBLISHes for all
// their holdings (duplicate PUBLISH is idempotent — it just refreshes the
// lease), repopulating the registry without any shard-side persistence.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/object_store.hpp"
#include "common/shard.hpp"
#include "common/url_hash.hpp"
#include "core/ap_runtime.hpp"
#include "core/peer_probe.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "sim/service_queue.hpp"

namespace ape::fleet {

inline constexpr net::Port kDirectoryShardPort = 5400;
inline constexpr net::Port kDirectoryClientPort = 5401;

// Bounded staleness: how long a FOUND/MISS answer may be reused without
// consulting the shard again.  Larger = fewer directory round trips, more
// stale redirects.
inline constexpr sim::Duration kLookupTtl = sim::seconds(2.0);
// A lookup whose reply never arrives (shard crashed / link down) resolves
// to "no peer" after this long; the miss path then proceeds to the edge.
// Covers the LAN RTT plus shard service time with margin.
inline constexpr sim::Duration kLookupTimeout = sim::milliseconds(10.0);
// Lease length granted by PUBLISH/LEASE, in seconds.
inline constexpr std::uint32_t kPublishTtlSeconds = 60;

// Stable key -> shard placement (FNV-1a over the key's hex text, the form
// the wire carries); every client and every shard must agree on
// `shard_count`.
[[nodiscard]] std::size_t shard_of(UrlHash key, std::size_t shard_count) noexcept;

// One directory shard: the authoritative (soft-state) registry for the keys
// that hash to it.  Lives on a controller node; all state is reached
// exclusively through the wire protocol above.
class DirectoryShard {
  APE_SHARD_CONTEXT(controller);

 public:
  DirectoryShard(net::Network& network, net::NodeId node, sim::ServiceQueue& cpu,
                 std::uint32_t shard_index, std::uint64_t epoch, obs::Observer* observer);
  ~DirectoryShard();
  DirectoryShard(const DirectoryShard&) = delete;
  DirectoryShard& operator=(const DirectoryShard&) = delete;

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint32_t shard_index() const noexcept { return shard_index_; }
  [[nodiscard]] std::size_t key_count() const noexcept { return holders_.size(); }
  [[nodiscard]] std::size_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::size_t publishes() const noexcept { return publishes_; }

 private:
  void on_datagram(const net::Datagram& dgram);
  void handle_publish(std::uint32_t ap, const std::string& key, std::uint32_t ttl_s);
  void handle_retract(std::uint32_t ap, const std::string& key);
  void handle_lookup(std::uint64_t seq, std::uint32_t asker, const std::string& key,
                     net::Endpoint reply_to);
  void handle_lease(std::uint64_t seq, std::uint32_t ap, std::uint32_t ttl_s,
                    const std::vector<std::string>& keys, net::Endpoint reply_to);
  void reply(net::Endpoint to, const std::string& text);

  APE_SHARD_SHARED net::Network& network_;
  APE_SHARD_LOCAL(controller) net::NodeId node_;
  APE_SHARD_LOCAL(controller) sim::ServiceQueue& cpu_;
  APE_SHARD_LOCAL(controller) std::uint32_t shard_index_;
  APE_SHARD_LOCAL(controller) std::uint64_t epoch_;
  // key -> holder AP -> lease expiry.  Ordered on both levels: lookups pick
  // the lowest live ap_id, so the choice is canonical across runs
  // (ape-lint: unordered-iter).
  APE_SHARD_LOCAL(controller) std::map<std::string, std::map<std::uint32_t, sim::Time>>
      holders_;
  APE_SHARD_LOCAL(controller) std::size_t lookups_ = 0;
  APE_SHARD_LOCAL(controller) std::size_t publishes_ = 0;

  // Fleet-only instruments (lazy handles: single-AP runs never see them).
  APE_SHARD_SHARED obs::Observer* observer_;
  struct HotMetrics {
    obs::CounterHandle publishes;
    obs::CounterHandle retracts;
    obs::CounterHandle lookups;
    obs::CounterHandle hits;
    obs::CounterHandle misses;
    obs::CounterHandle lease_renewals;
    obs::CounterHandle expired_drops;
  } hot_;
};

// Per-AP directory stub: implements the runtime's PeerResolver by speaking
// the shard protocol, mirrors the AP's cache membership (insert listener ->
// PUBLISH, removal listener -> RETRACT), renews leases, and caches lookup
// answers for kLookupTtl — the bounded staleness the peer-probe stage is
// designed to absorb.
class DirectoryClient final : public core::PeerResolver {
  APE_SHARD_CONTEXT(ap);

 public:
  struct Options {
    std::uint32_t ap_id = 0;
    std::vector<net::Endpoint> shards;               // shard_index -> service endpoint
    std::map<std::uint32_t, net::IpAddress> roster;  // ap_id -> AP HTTP address
    sim::Duration lease_interval = sim::seconds(20.0);
    obs::Observer* observer = nullptr;
  };

  DirectoryClient(net::Network& network, net::NodeId node, Options options);
  ~DirectoryClient() override;
  DirectoryClient(const DirectoryClient&) = delete;
  DirectoryClient& operator=(const DirectoryClient&) = delete;

  // Wires this client into the AP: peer-probe hook plus cache membership
  // mirroring.  The AP must be RAM-only (no flash tier) — with tiering an
  // eviction demotes to flash and the copy would still be servable, so
  // RETRACT-on-removal would under-advertise; the fleet testbed enforces
  // this.  Call once, before traffic.
  void attach(core::ApRuntime& ap);

  // --- core::PeerResolver --------------------------------------------------
  void lookup_peer(UrlHash key, const obs::TraceContext& parent,
                   LookupHandler done) override;
  void note_stale(UrlHash key) override;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] std::uint32_t ap_id() const noexcept { return options_.ap_id; }
  [[nodiscard]] const std::set<UrlHash>& holdings() const noexcept { return holdings_; }
  [[nodiscard]] std::uint64_t shard_epoch(std::size_t shard) const {
    return shard_epochs_.at(shard);
  }

 private:
  struct Pending {
    UrlHash key = 0;
    LookupHandler handler;  // closes the dir.lookup span when called
    sim::Simulator::EventId timeout = 0;
  };
  struct CachedAnswer {
    std::optional<core::PeerLocation> location;  // nullopt = cached MISS
    sim::Time expires{};
  };

  void on_datagram(const net::Datagram& dgram);
  void on_timeout(std::uint64_t seq);
  void resolve(std::uint64_t seq, std::optional<core::PeerLocation> location);
  void publish(UrlHash key);
  void retract(UrlHash key);
  void send_to_shard(std::size_t shard, const std::string& text);
  // Epoch bump seen in any reply from `shard`: replay PUBLISHes for every
  // holding that hashes there (the shard restarted empty).
  void check_epoch(std::size_t shard, std::uint64_t epoch);
  void schedule_lease();
  void renew_leases();

  APE_SHARD_SHARED net::Network& network_;
  APE_SHARD_LOCAL(ap) net::NodeId node_;
  APE_SHARD_LOCAL(ap) Options options_;
  APE_SHARD_LOCAL(ap) std::uint64_t next_seq_ = 1;
  APE_SHARD_LOCAL(ap) std::map<std::uint64_t, Pending> inflight_;
  APE_SHARD_LOCAL(ap) std::map<UrlHash, CachedAnswer> answers_;
  // Keys this AP's cache currently holds (mirrors the store's membership;
  // drives lease renewal and epoch replay).
  APE_SHARD_LOCAL(ap) std::set<UrlHash> holdings_;
  // Last epoch seen per shard; 0 = none yet (first observation never
  // triggers a replay).
  APE_SHARD_LOCAL(ap) std::vector<std::uint64_t> shard_epochs_;
  APE_SHARD_LOCAL(ap) sim::Simulator::EventId lease_event_ = 0;
  // Root span covering one lease round (open until the last LEASEACK
  // arrives; safety-closed in the destructor so traced runs validate).
  APE_SHARD_LOCAL(ap) obs::TraceContext lease_span_;
  APE_SHARD_LOCAL(ap) std::size_t lease_acks_outstanding_ = 0;

  APE_SHARD_SHARED obs::Observer* observer_;
  struct HotMetrics {
    obs::CounterHandle lookups;
    obs::CounterHandle lookup_hits;
    obs::CounterHandle lookup_misses;
    obs::CounterHandle lookup_timeouts;
    obs::CounterHandle answer_reuse;
    obs::CounterHandle publishes;
    obs::CounterHandle retracts;
    obs::CounterHandle stale_redirects;
    obs::CounterHandle epoch_replays;
    obs::CounterHandle lease_rounds;
  } hot_;
};

}  // namespace ape::fleet
