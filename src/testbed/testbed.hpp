// The evaluation testbed of paper Fig. 9, in simulation:
//
//   phones/desktop --WiFi--> AP (GL-MT1300) --7 hops--> edge cache server
//                             |--upstream--> LDNS --> ADNS / CDN DNS
//                             |--12 hops--> Wi-Cache controller (EC2)
//
// A Testbed is the shared Site (site.hpp) with the AP as its uplink, plus
// the controller node that hosts the Wi-Cache controller.  One Testbed
// instance realizes one system-under-test (the AP either runs APE-CACHE
// with PACM, APE-CACHE with LRU, the Wi-Cache agent, or nothing but stock
// DNS forwarding), so experiments build one Testbed per compared system
// with identical seeds and workloads.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ape_lru_system.hpp"
#include "baselines/edge_cache_system.hpp"
#include "baselines/wicache_system.hpp"
#include "common/shard.hpp"
#include "core/ap_runtime.hpp"
#include "sim/resource_meter.hpp"
#include "testbed/site.hpp"

namespace ape::testbed {

enum class System { ApeCache, ApeCacheLru, WiCache, EdgeCache };

[[nodiscard]] const char* to_string(System system) noexcept;

inline constexpr std::size_t kWiCacheCapacityBytes = 5 * 1000 * 1000;

struct TestbedParams : SiteParams {
  System system = System::ApeCache;

  // Ablation hook: overrides the AP cache policy implied by `system`
  // (e.g. run the APE-CACHE workflow with GDSF or FIFO management).
  std::optional<core::ApRuntime::Policy> policy_override;
};

class Testbed : public Site {
  APE_SHARD_CONTEXT(controller);

 public:
  explicit Testbed(TestbedParams params);

  struct Client : Site::Client {
    std::unique_ptr<baselines::ObjectFetcher> fetcher;  // facade for `system`
  };

  // Adds a phone/emulator attached to the AP and returns its fetcher facade
  // matching the testbed's system.
  Client& add_client(const std::string& name);

  // --- accessors --------------------------------------------------------------
  [[nodiscard]] core::ApRuntime& ap() noexcept { return *ap_; }
  [[nodiscard]] baselines::WiCacheController* wicache_controller() noexcept {
    return wicache_controller_.get();
  }
  [[nodiscard]] baselines::WiCacheApAgent* wicache_agent() noexcept {
    return wicache_agent_.get();
  }
  [[nodiscard]] const TestbedParams& params() const noexcept { return params_; }
  [[nodiscard]] net::IpAddress ap_ip() const noexcept;

  // The site's metrics plus the AP's busy time and cache occupancy and
  // per-app C_a (ApRuntime::snapshot_metrics).
  void collect_metrics() override;

  // Resource meter over the AP (Fig. 2 / Fig. 14); call before running.
  [[nodiscard]] sim::ResourceMeter& meter_ap(sim::Duration interval, sim::Time until);

  // Pass-through forwarding accounting: charge the AP's CPU for client
  // traffic that merely transits it (edge fetches).
  void account_passthrough(std::size_t bytes);

  // Crash/restart model (flash-tier experiments): tears the ApRuntime down
  // and rebuilds it on the same node.  RAM state (cache, DNS record cache,
  // url_index) is lost; with `preserve_flash` the durable FlashMedia
  // survives and the new runtime replays its journal at mount (a *warm*
  // restart), without it the media is wiped first (a *cold* restart).
  // Only valid for APE systems, and only at a quiesced instant — no CPU or
  // flash work in flight (in-flight completions capture the old runtime).
  // The timeline and the SLO evaluator live in the Site and read only the
  // registry, so their windows stay exact across the restart.
  void restart_ap(bool preserve_flash);

  // Durable flash media handed to every ApRuntime incarnation; null when
  // the config has no flash tier.
  [[nodiscard]] store::FlashMedia* flash_media() noexcept { return flash_media_.get(); }

  // Cache-analytics plane (enable_analytics runs only; null otherwise).
  [[nodiscard]] obs::CacheAnalytics* analytics() noexcept { return analytics_.get(); }

 private:
  [[nodiscard]] bool ape_enabled() const noexcept {
    return params_.system == System::ApeCache || params_.system == System::ApeCacheLru;
  }
  void build_ap();

  APE_SHARD_LOCAL(controller) TestbedParams params_;
  APE_SHARD_LOCAL(controller) net::NodeId controller_node_{};
  APE_SHARD_LOCAL(controller) std::unique_ptr<sim::ServiceQueue> controller_cpu_;

  // Declared before ap_: the runtime's store listeners capture the plane,
  // so the plane must outlive the runtime (reverse destruction order).
  APE_SHARD_LOCAL(controller) std::unique_ptr<obs::CacheAnalytics> analytics_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<store::FlashMedia> flash_media_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<core::ApRuntime> ap_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<baselines::WiCacheController> wicache_controller_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<baselines::WiCacheApAgent> wicache_agent_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<sim::ResourceMeter> meter_;

  APE_SHARD_LOCAL(controller) std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace ape::testbed
