// Multi-AP fleet testbed (DESIGN.md §5j): N APE-CACHE access points on one
// LAN behind a shared uplink, a sharded cooperative-cache directory on
// controller nodes, and the single-AP testbed's DNS/edge back half (the
// shared testbed::Site, whose uplink here is the LAN switch).
//
//   clients --WiFi--> ap0..apN --LAN switch--> directory shards
//                          |--7 hops--> edge cache server
//                          |--upstream--> LDNS --> ADNS / CDN DNS
//
// Each AP runs the full single-AP ApRuntime (same node/CPU wiring as
// testbed::Testbed) with the peer-probe stage attached: on a local miss it
// consults its DirectoryClient and relays from a neighbor before paying the
// WAN.  The testbed adds fleet-only affordances on top: client roaming
// between APs (the client keeps its cached DNS answers — deliberately, that
// is the staleness the probe absorbs), directory shard failover with an
// epoch bump, and fleet.*/dir.* metric collection.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/shard.hpp"
#include "core/ap_runtime.hpp"
#include "fleet/directory.hpp"
#include "obs/slo.hpp"
#include "testbed/site.hpp"

namespace ape::fleet {

// The LAN hop is switch-local (AP <-> switch <-> AP ≈ 0.4 ms one way),
// which is what makes a peer relay land between a local hit and an edge
// fetch.
inline constexpr sim::Duration kLanOneWay = sim::microseconds(200);
inline constexpr double kLanBandwidth = 125e6;  // GigE switch

// `ape` is every AP's config; its flash tier is forcibly disabled: the
// directory equates removal with "copy gone", which a flash demotion would
// violate (see DirectoryClient::attach).
struct FleetParams : testbed::SiteParams {
  std::size_t ap_count = 4;
  std::size_t shard_count = 2;
  // false: no directory, APs are N isolated caches (the bench baseline the
  // fleet-wide hit ratio is compared against).
  bool enable_peer_probe = true;
  // DirectoryClient::Options::lease_interval; the other directory timings
  // keep their DirectoryClient::Options defaults.
  sim::Duration dir_lease_interval = sim::seconds(20.0);
};

class FleetTestbed : public testbed::Site {
  APE_SHARD_CONTEXT(controller);

 public:
  explicit FleetTestbed(FleetParams params);

  struct Client : Site::Client {
    std::uint32_t ap = 0;  // current attachment
  };

  Client& add_client(const std::string& name, std::uint32_t ap_index);

  // Moves the client's WiFi association to `new_ap`: the old radio link
  // goes down, a link to the new AP comes up (or back up), and the client
  // runtime re-homes its DNS/HTTP endpoints.  Cached DNS answers survive
  // the move by design.
  void roam(Client& client, std::uint32_t new_ap);

  // Crash-restarts directory shard `index`: the registry is lost and the
  // epoch bumps; clients replay their holdings when they first see the new
  // epoch in a reply.  Only valid when the shard's CPU is quiesced.
  void restart_shard(std::size_t index);

  // Failure injection: drops (or restores) the shard's LAN link, making
  // lookups to it time out client-side.
  void set_shard_reachable(std::size_t index, bool up);

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] const FleetParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t ap_count() const noexcept { return aps_.size(); }
  [[nodiscard]] core::ApRuntime& ap(std::size_t i) noexcept { return *aps_[i].runtime; }
  [[nodiscard]] net::IpAddress ap_ip(std::size_t i) const noexcept { return aps_[i].ip; }
  [[nodiscard]] DirectoryClient* directory(std::size_t i) noexcept {
    return aps_[i].directory.get();
  }
  // Per-AP analytics plane; null unless FleetParams::enable_analytics.
  [[nodiscard]] obs::CacheAnalytics* analytics(std::size_t i) noexcept {
    return aps_[i].analytics.get();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] DirectoryShard& shard(std::size_t i) noexcept { return *shards_[i].service; }
  // Fed every captured timeline window (enable_timeline runs only).
  [[nodiscard]] obs::SloEvaluator& slo() noexcept { return slo_; }

  // The site's metrics plus per-AP fleet.ap<i>.* gauges and per-shard
  // dir.shard<i>.* gauges.  Does NOT call ApRuntime::snapshot_metrics —
  // its ap.* gauge names are unqualified and N runtimes would clobber each
  // other.
  void collect_metrics() override;

 private:
  struct ApSlot {
    net::NodeId node{};
    net::IpAddress ip{};
    // Declared before `runtime`: the runtime's store listeners capture the
    // plane, so it must outlive the runtime (destruction is reverse order).
    std::unique_ptr<obs::CacheAnalytics> analytics;
    std::unique_ptr<core::ApRuntime> runtime;
    std::unique_ptr<DirectoryClient> directory;
  };
  struct ShardSlot {
    net::NodeId node{};
    net::IpAddress ip{};
    std::uint64_t epoch = 0;
    std::unique_ptr<sim::ServiceQueue> cpu;
    std::unique_ptr<DirectoryShard> service;
  };

  void build_aps();
  void build_directory();
  void on_window_captured() override;

  APE_SHARD_LOCAL(controller) FleetParams params_;
  APE_SHARD_LOCAL(controller) std::vector<ApSlot> aps_;
  APE_SHARD_LOCAL(controller) std::vector<ShardSlot> shards_;
  APE_SHARD_LOCAL(controller) std::vector<std::unique_ptr<Client>> clients_;

  APE_SHARD_LOCAL(controller) obs::SloEvaluator slo_;
  APE_SHARD_LOCAL(controller) std::size_t slo_windows_seen_ = 0;
};

}  // namespace ape::fleet
