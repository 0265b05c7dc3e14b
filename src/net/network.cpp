// ape-lint: hot-path
#include "net/network.hpp"

#include <cassert>
#include <charconv>
#include <system_error>
#include <utility>

namespace ape::net {

std::string IpAddress::to_string() const {
  char buf[16];  // "255.255.255.255"
  char* out = buf;
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) *out++ = '.';
    out = std::to_chars(out, buf + sizeof buf, (v4 >> shift) & 0xFF).ptr;
  }
  return std::string(buf, out);
}

Result<IpAddress> IpAddress::parse(const std::string& dotted) {
  std::uint32_t octets[4];
  const char* pos = dotted.data();
  const char* const end = dotted.data() + dotted.size();
  for (int i = 0; i < 4; ++i) {
    if (pos == end) return make_error<IpAddress>("truncated IPv4 literal");
    const auto [next, ec] = std::from_chars(pos, end, octets[i]);
    if (ec != std::errc{} || octets[i] > 255) {
      return make_error<IpAddress>("invalid IPv4 octet");
    }
    pos = next;
    if (i < 3) {
      if (pos == end || *pos != '.') {
        return make_error<IpAddress>("expected '.' in IPv4 literal");
      }
      ++pos;
    }
  }
  if (pos != end) return make_error<IpAddress>("trailing characters in IPv4 literal");
  return IpAddress{(octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]};
}

std::string Endpoint::to_string() const {
  return ip.to_string() + ":" + std::to_string(port);
}

Network::Network(sim::Simulator& sim, Topology& topology) : sim_(sim), topology_(topology) {}

void Network::assign_ip(NodeId node, IpAddress ip) {
  assert(!ip_to_node_.contains(ip) && "IP already assigned");
  assert(!node_to_ip_.contains(node) && "node already has an IP");
  ip_to_node_.emplace(ip, node);
  node_to_ip_.emplace(node, ip);
}

std::optional<NodeId> Network::owner_of(IpAddress ip) const {
  auto it = ip_to_node_.find(ip);
  if (it == ip_to_node_.end()) return std::nullopt;
  return it->second;
}

std::optional<IpAddress> Network::ip_of(NodeId node) const {
  auto it = node_to_ip_.find(node);
  if (it == node_to_ip_.end()) return std::nullopt;
  return it->second;
}

void Network::bind_udp(NodeId node, Port port, DatagramHandler handler) {
  assert(handler);
  udp_bindings_[bind_key(node, port)] = std::move(handler);
}

void Network::unbind_udp(NodeId node, Port port) {
  udp_bindings_.erase(bind_key(node, port));
}

std::optional<sim::Duration> Network::transfer_delay(NodeId from, NodeId to,
                                                     std::size_t bytes) const {
  const auto info = topology_.path(from, to);
  if (!info) return std::nullopt;
  const sim::Duration serialize =
      info->bottleneck_bandwidth > 0.0
          ? sim::seconds(static_cast<double>(bytes) / info->bottleneck_bandwidth)
          : sim::Duration{0};
  return info->one_way_latency + serialize;
}

bool Network::send_datagram(NodeId from, Port source_port, Endpoint to, Payload payload) {
  ++counters_.datagrams_sent;
  const auto source_ip = ip_of(from);
  const auto dest_node = owner_of(to.ip);
  if (!source_ip || !dest_node) {
    ++counters_.datagrams_dropped;
    return false;
  }

  Datagram dgram;
  dgram.source = Endpoint{*source_ip, source_port};
  dgram.destination = to;
  dgram.payload = std::move(payload);

  const auto delay = transfer_delay(from, *dest_node, dgram.size_bytes());
  if (!delay) {
    ++counters_.datagrams_dropped;
    return false;
  }

  counters_.bytes_copied += dgram.size_bytes();
  const NodeId target = *dest_node;
  std::uint32_t slot;
  if (free_slot_ != kNoSlot) {
    slot = free_slot_;
    free_slot_ = in_flight_[slot].next_free;
    in_flight_[slot].next_free = kNoSlot;
    in_flight_[slot].dgram = std::move(dgram);
    ++counters_.arena_reuse;
  } else {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(InFlight{std::move(dgram), kNoSlot});
  }
  sim_.schedule_in(*delay, [this, target, slot] { deliver(target, slot); },
                   APE_EVT("net.datagram.deliver"));
  return true;
}

void Network::deliver(NodeId target, std::uint32_t slot) {
  // Move the datagram out before invoking the handler: handlers routinely
  // send datagrams of their own, which can grow (and reallocate) the
  // in-flight arena, so they must never see arena memory directly.
  Datagram d = std::move(in_flight_[slot].dgram);
  auto it = udp_bindings_.find(bind_key(target, d.destination.port));
  if (it == udp_bindings_.end()) {
    ++counters_.datagrams_dropped;
  } else {
    ++counters_.datagrams_delivered;
    it->second(d);
  }
  // Fresh indexed access — re-entrant sends may have moved the vector.
  InFlight& parked = in_flight_[slot];
  parked.next_free = free_slot_;
  free_slot_ = slot;
}

}  // namespace ape::net
