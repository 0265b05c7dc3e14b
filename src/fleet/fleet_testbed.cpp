#include "fleet/fleet_testbed.hpp"

#include <cassert>
#include <utility>

namespace ape::fleet {

FleetTestbed::FleetTestbed(FleetParams params)
    : Site(params, "lan-switch", net::IpAddress::from_octets(10, 0, 0, 1)),
      params_(std::move(params)) {
  assert(params_.ap_count > 0);
  assert(params_.shard_count > 0);
  // RETRACT must mean "copy gone"; a flash tier keeps serving demoted
  // copies, so the fleet runs RAM-only APs (see DirectoryClient::attach).
  params_.ape.flash_capacity_bytes = 0;

  aps_.resize(params_.ap_count);
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    ApSlot& slot = aps_[i];
    slot.node = topology().add_node("ap" + std::to_string(i));
    topology().add_link(slot.node, uplink(), net::LinkSpec{kLanOneWay, kLanBandwidth});
    slot.ip = net::IpAddress::from_octets(10, 10, static_cast<std::uint8_t>(i), 1);
    network().assign_ip(slot.node, slot.ip);
  }

  shards_.resize(params_.shard_count);
  for (std::size_t j = 0; j < shards_.size(); ++j) {
    ShardSlot& slot = shards_[j];
    slot.node = topology().add_node("dir-shard" + std::to_string(j));
    topology().add_link(slot.node, uplink(), net::LinkSpec{kLanOneWay, kLanBandwidth});
    slot.ip = net::IpAddress::from_octets(10, 30, static_cast<std::uint8_t>(j), 2);
    network().assign_ip(slot.node, slot.ip);
  }

  build_aps();
  if (params_.enable_peer_probe) build_directory();
}

void FleetTestbed::build_aps() {
  for (ApSlot& slot : aps_) {
    if (params_.enable_analytics) {
      slot.analytics = std::make_unique<obs::CacheAnalytics>(params_.analytics);
    }
    core::ApRuntime::Options options;
    options.config = params_.ape;
    options.upstream_dns = ldns_endpoint();
    options.enable_ape = true;
    options.policy = core::ApRuntime::Policy::Pacm;
    options.observer = &observer();
    options.analytics = slot.analytics.get();
    slot.runtime = std::make_unique<core::ApRuntime>(network(), tcp(), slot.node, options);
  }
}

void FleetTestbed::build_directory() {
  std::vector<net::Endpoint> shard_endpoints;
  shard_endpoints.reserve(shards_.size());
  for (ShardSlot& slot : shards_) {
    slot.epoch = 1;
    slot.cpu = std::make_unique<sim::ServiceQueue>(simulator(), 2);
    slot.service = std::make_unique<DirectoryShard>(
        network(), slot.node, *slot.cpu,
        static_cast<std::uint32_t>(&slot - shards_.data()), slot.epoch, &observer());
    shard_endpoints.push_back(net::Endpoint{slot.ip, kDirectoryShardPort});
  }

  std::map<std::uint32_t, net::IpAddress> roster;
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    roster.emplace(static_cast<std::uint32_t>(i), aps_[i].ip);
  }

  for (std::size_t i = 0; i < aps_.size(); ++i) {
    DirectoryClient::Options options;
    options.ap_id = static_cast<std::uint32_t>(i);
    options.shards = shard_endpoints;
    options.roster = roster;
    options.lease_interval = params_.dir_lease_interval;
    options.observer = &observer();
    aps_[i].directory =
        std::make_unique<DirectoryClient>(network(), aps_[i].node, std::move(options));
    aps_[i].directory->attach(*aps_[i].runtime);
  }
}

FleetTestbed::Client& FleetTestbed::add_client(const std::string& name,
                                               std::uint32_t ap_index) {
  assert(ap_index < aps_.size());
  Client& client = *clients_.emplace_back(std::make_unique<Client>());
  client.ap = ap_index;
  attach_client(client, name, aps_[ap_index].node, aps_[ap_index].ip, /*ape_enabled=*/true);
  return client;
}

void FleetTestbed::roam(Client& client, std::uint32_t new_ap) {
  assert(new_ap < aps_.size());
  if (new_ap == client.ap) return;
  // Bring the new association up first (re-arming a previous link if the
  // client roamed here before), then drop the old one.
  if (topology().link_exists(client.node, aps_[new_ap].node)) {
    topology().set_link_down(client.node, aps_[new_ap].node, false);
  } else {
    topology().add_link(client.node, aps_[new_ap].node,
                        net::LinkSpec{testbed::kWifiOneWay, testbed::kWifiBandwidth});
  }
  topology().set_link_down(client.node, aps_[client.ap].node, true);
  client.ap = new_ap;
  client.runtime->roam_to(net::Endpoint{aps_[new_ap].ip, net::kDnsPort}, aps_[new_ap].ip);
}

void FleetTestbed::restart_shard(std::size_t index) {
  assert(index < shards_.size());
  ShardSlot& slot = shards_[index];
  assert(slot.service != nullptr);
  assert(slot.cpu->busy_servers() == 0 && slot.cpu->queued() == 0 &&
         "restart_shard requires a quiesced shard (drain the sim first)");
  slot.service.reset();  // unbinds the UDP port; the registry dies with it
  ++slot.epoch;
  slot.service = std::make_unique<DirectoryShard>(network(), slot.node, *slot.cpu,
                                                  static_cast<std::uint32_t>(index),
                                                  slot.epoch, &observer());
}

void FleetTestbed::set_shard_reachable(std::size_t index, bool up) {
  assert(index < shards_.size());
  topology().set_link_down(shards_[index].node, uplink(), !up);
}

void FleetTestbed::collect_metrics() {
  Site::collect_metrics();
  obs::MetricsRegistry& m = observer().metrics();

  m.gauge("fleet.ap_count").set(static_cast<double>(aps_.size()));
  m.gauge("fleet.shard_count").set(static_cast<double>(shards_.size()));
  m.gauge("fleet.clients").set(static_cast<double>(clients_.size()));

  // Per-AP gauges under qualified names (ApRuntime::snapshot_metrics writes
  // unqualified ap.* gauges and is deliberately NOT called here — with N
  // runtimes sharing one registry the snapshots would clobber each other).
  std::size_t fleet_cache_bytes = 0;
  std::size_t fleet_cache_items = 0;
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    const std::string prefix = "fleet.ap" + std::to_string(i);
    const cache::CacheStore& store = aps_[i].runtime->data_cache();
    m.gauge(prefix + ".cache.bytes").set(static_cast<double>(store.used_bytes()));
    m.gauge(prefix + ".cache.items").set(static_cast<double>(store.entry_count()));
    m.gauge(prefix + ".cpu.busy_s").set(sim::to_seconds(aps_[i].runtime->cpu().busy_time()));
    if (aps_[i].analytics != nullptr) {
      // Gated like every analytics key: default runs emit none of these.
      const cache::CacheStatistics& stats = aps_[i].runtime->lookup_stats();
      for (std::size_t c = 0; c < kRemovalCauseCount; ++c) {
        const auto cause = static_cast<RemovalCause>(c);
        m.counter(prefix + ".cache.evict." + obs::to_string(cause)).set(stats.removals(cause));
      }
      aps_[i].analytics->record_metrics(m, prefix + ".");
    }
    fleet_cache_bytes += store.used_bytes();
    fleet_cache_items += store.entry_count();
  }
  m.gauge("fleet.cache.bytes").set(static_cast<double>(fleet_cache_bytes));
  m.gauge("fleet.cache.items").set(static_cast<double>(fleet_cache_items));

  for (std::size_t j = 0; j < shards_.size(); ++j) {
    const std::string prefix = "dir.shard" + std::to_string(j);
    m.gauge(prefix + ".keys").set(static_cast<double>(shards_[j].service != nullptr
                                                          ? shards_[j].service->key_count()
                                                          : 0));
    m.gauge(prefix + ".epoch").set(static_cast<double>(shards_[j].epoch));
  }
}

}  // namespace ape::fleet
