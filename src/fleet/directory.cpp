// ape-lint: hot-path
#include "fleet/directory.hpp"

#include <cassert>
#include <string_view>
#include <utility>

#include "common/parse.hpp"

namespace ape::fleet {

namespace {
net::Payload to_payload(const std::string& text) {
  return net::Payload(text.begin(), text.end());
}

// The wire protocol carries a key as its 16-digit hex text.
void append_key(std::string& line, UrlHash key) {
  line.append(render_url_hash(key).view());
}

FieldReader fields_of(const net::Payload& payload) {
  return FieldReader({reinterpret_cast<const char*>(payload.data()), payload.size()});
}

// Registry operations are cheap map work; same order of magnitude as the
// Wi-Cache controller's 200 µs per control message.
constexpr sim::Duration kShardServiceTime = sim::microseconds(150);
}  // namespace

std::size_t shard_of(UrlHash key, std::size_t shard_count) noexcept {
  assert(shard_count > 0);
  return static_cast<std::size_t>(hash_url(render_url_hash(key).view()) % shard_count);
}

// ---------------------------------------------------------------- shard

DirectoryShard::DirectoryShard(net::Network& network, net::NodeId node,
                               sim::ServiceQueue& cpu, std::uint32_t shard_index,
                               std::uint64_t epoch, obs::Observer* observer)
    : network_(network),
      node_(node),
      cpu_(cpu),
      shard_index_(shard_index),
      epoch_(epoch),
      observer_(observer) {
  assert(epoch_ > 0 && "epoch 0 means 'never seen' on the client side");
  if (observer_ != nullptr) {
    obs::MetricsRegistry& m = observer_->metrics();
    hot_.publishes = {m, "dir.shard.publishes"};
    hot_.retracts = {m, "dir.shard.retracts"};
    hot_.lookups = {m, "dir.shard.lookups"};
    hot_.hits = {m, "dir.shard.hits"};
    hot_.misses = {m, "dir.shard.misses"};
    hot_.lease_renewals = {m, "dir.shard.lease_renewals"};
    hot_.expired_drops = {m, "dir.shard.expired_drops"};
  }
  network_.bind_udp(node_, kDirectoryShardPort,
                    [this](const net::Datagram& d) { on_datagram(d); });
}

DirectoryShard::~DirectoryShard() {
  network_.unbind_udp(node_, kDirectoryShardPort);
}

void DirectoryShard::on_datagram(const net::Datagram& dgram) {
  // Malformed lines are dropped before they cost any shard CPU.
  FieldReader in = fields_of(dgram.payload);
  std::string_view verb;
  if (!in.word(verb)) return;
  if (verb == "PUBLISH") {
    std::uint32_t ap = 0, ttl_s = 0;
    std::string_view key;
    if (!(in.number(ap) && in.word(key) && in.number(ttl_s) && in.done())) return;
    cpu_.submit(kShardServiceTime,
                [this, ap, key = std::string(key), ttl_s] { handle_publish(ap, key, ttl_s); },
                APE_EVT("controller.dir.publish"));
  } else if (verb == "RETRACT") {
    std::uint32_t ap = 0;
    std::string_view key;
    if (!(in.number(ap) && in.word(key) && in.done())) return;
    cpu_.submit(kShardServiceTime,
                [this, ap, key = std::string(key)] { handle_retract(ap, key); },
                APE_EVT("controller.dir.retract"));
  } else if (verb == "LOOKUP") {
    std::uint64_t seq = 0;
    std::uint32_t asker = 0;
    std::string_view key;
    if (!(in.number(seq) && in.number(asker) && in.word(key) && in.done())) return;
    const net::Endpoint reply_to = dgram.source;
    cpu_.submit(kShardServiceTime,
                [this, seq, asker, key = std::string(key), reply_to] {
                  handle_lookup(seq, asker, key, reply_to);
                },
                APE_EVT("controller.dir.lookup"));
  } else if (verb == "LEASE") {
    std::uint64_t seq = 0;
    std::uint32_t ap = 0, ttl_s = 0;
    if (!(in.number(seq) && in.number(ap) && in.number(ttl_s))) return;
    std::vector<std::string> keys;
    for (std::string_view key; in.word(key);) keys.emplace_back(key);
    const net::Endpoint reply_to = dgram.source;
    cpu_.submit(kShardServiceTime, [this, seq, ap, ttl_s, keys = std::move(keys), reply_to] {
      handle_lease(seq, ap, ttl_s, keys, reply_to);
    }, APE_EVT("controller.dir.lease"));
  }
}

void DirectoryShard::handle_publish(std::uint32_t ap, const std::string& key,
                                    std::uint32_t ttl_s) {
  ++publishes_;
  hot_.publishes.add();
  // Idempotent: a duplicate PUBLISH (crash-recovery replay, lease re-add)
  // just refreshes the lease.
  holders_[key][ap] = network_.simulator().now() + sim::seconds(ttl_s);
}

void DirectoryShard::handle_retract(std::uint32_t ap, const std::string& key) {
  hot_.retracts.add();
  auto it = holders_.find(key);
  if (it == holders_.end()) return;
  it->second.erase(ap);
  if (it->second.empty()) holders_.erase(it);
}

void DirectoryShard::handle_lookup(std::uint64_t seq, std::uint32_t asker,
                                   const std::string& key, net::Endpoint reply_to) {
  ++lookups_;
  hot_.lookups.add();
  const sim::Time now = network_.simulator().now();
  const std::string head = std::to_string(seq) + " " + std::to_string(shard_index_) + " " +
                           std::to_string(epoch_);

  auto it = holders_.find(key);
  if (it != holders_.end()) {
    // Lazy lease expiry, then pick the lowest live ap_id that is not the
    // asker — canonical across runs because the maps are ordered.
    for (auto holder = it->second.begin(); holder != it->second.end();) {
      if (holder->second <= now) {
        hot_.expired_drops.add();
        holder = it->second.erase(holder);
      } else {
        ++holder;
      }
    }
    for (const auto& [ap, expiry] : it->second) {
      if (ap == asker) continue;
      hot_.hits.add();
      reply(reply_to, "FOUND " + head + " " + std::to_string(ap) + "\n");
      return;
    }
    if (it->second.empty()) holders_.erase(it);
  }
  hot_.misses.add();
  reply(reply_to, "MISS " + head + "\n");
}

void DirectoryShard::handle_lease(std::uint64_t seq, std::uint32_t ap, std::uint32_t ttl_s,
                                  const std::vector<std::string>& keys,
                                  net::Endpoint reply_to) {
  const sim::Time expiry = network_.simulator().now() + sim::seconds(ttl_s);
  std::size_t renewed = 0;
  for (const std::string& key : keys) {
    // A lease implies the AP holds the key, so an unknown key is re-added —
    // this also heals registries that restarted between lease rounds.
    holders_[key][ap] = expiry;
    ++renewed;
  }
  hot_.lease_renewals.add(renewed);
  reply(reply_to, "LEASEACK " + std::to_string(seq) + " " + std::to_string(shard_index_) +
                      " " + std::to_string(epoch_) + " " + std::to_string(renewed) + "\n");
}

void DirectoryShard::reply(net::Endpoint to, const std::string& text) {
  network_.send_datagram(node_, kDirectoryShardPort, to, to_payload(text));
}

// ---------------------------------------------------------------- client

DirectoryClient::DirectoryClient(net::Network& network, net::NodeId node, Options options)
    : network_(network),
      node_(node),
      options_(std::move(options)),
      shard_epochs_(options_.shards.size(), 0),
      observer_(options_.observer) {
  assert(!options_.shards.empty());
  if (observer_ != nullptr) {
    obs::MetricsRegistry& m = observer_->metrics();
    hot_.lookups = {m, "dir.lookups"};
    hot_.lookup_hits = {m, "dir.lookup_hits"};
    hot_.lookup_misses = {m, "dir.lookup_misses"};
    hot_.lookup_timeouts = {m, "dir.lookup_timeouts"};
    hot_.answer_reuse = {m, "dir.answer_reuse"};
    hot_.publishes = {m, "dir.publishes"};
    hot_.retracts = {m, "dir.retracts"};
    hot_.stale_redirects = {m, "dir.stale_redirects"};
    hot_.epoch_replays = {m, "dir.epoch_replays"};
    hot_.lease_rounds = {m, "dir.lease_rounds"};
  }
  network_.bind_udp(node_, kDirectoryClientPort,
                    [this](const net::Datagram& d) { on_datagram(d); });
  schedule_lease();
}

DirectoryClient::~DirectoryClient() {
  if (lease_event_ != 0) network_.simulator().cancel(lease_event_);
  if (auto* log = obs::tracing(observer_); log != nullptr) {
    log->close(lease_span_, network_.simulator().now());
  }
  for (auto& [seq, pending] : inflight_) {
    if (pending.timeout != 0) network_.simulator().cancel(pending.timeout);
  }
  network_.unbind_udp(node_, kDirectoryClientPort);
}

void DirectoryClient::attach(core::ApRuntime& ap) {
  assert(!ap.tiered() && "fleet APs must be RAM-only: RETRACT means 'copy gone', "
                         "a flash tier would keep serving demoted copies");
  ap.set_peer_probe(this, options_.ap_id);
  cache::CacheStore& store = ap.data_cache();
  // add_: the AP's own insert hooks (analytics size corrections) must keep
  // firing alongside the directory's PUBLISH.
  store.add_insert_listener([this](const cache::CacheEntry& entry) { publish(entry.key); });
  store.add_removal_listener([this](const cache::CacheEntry& entry, RemovalCause cause) {
    // Replaced is followed by the superseding insert's PUBLISH; retracting
    // in between would only add a useless un-advertise/re-advertise pair.
    if (cause == RemovalCause::Replaced) {
      holdings_.erase(entry.key);
      return;
    }
    retract(entry.key);
  });
}

void DirectoryClient::publish(UrlHash key) {
  holdings_.insert(key);
  hot_.publishes.add();
  if (auto* log = obs::tracing(observer_); log != nullptr) {
    // Zero-duration marker under whatever request is being served (the
    // insert happens synchronously inside it): the advertise itself is
    // fire-and-forget wire traffic, but traced runs can see *when* the
    // copy became discoverable relative to the request's critical path.
    const sim::Time now = network_.simulator().now();
    // ape-lint: allow(hot-alloc) -- a span key, in traced runs only
    std::string text = hash_to_string(key);
    obs::TraceContext span =
        log->open(log->current_context(), "dir.publish", "dir", std::move(text), now);
    log->close(span, now);
  }
  std::string line = "PUBLISH " + std::to_string(options_.ap_id) + " ";
  append_key(line, key);
  line += " " + std::to_string(kPublishTtlSeconds);
  send_to_shard(shard_of(key, options_.shards.size()), line);
}

void DirectoryClient::retract(UrlHash key) {
  holdings_.erase(key);
  hot_.retracts.add();
  std::string line = "RETRACT " + std::to_string(options_.ap_id) + " ";
  append_key(line, key);
  send_to_shard(shard_of(key, options_.shards.size()), line);
}

void DirectoryClient::send_to_shard(std::size_t shard, const std::string& text) {
  network_.send_datagram(node_, kDirectoryClientPort, options_.shards[shard],
                         to_payload(text));
}

void DirectoryClient::lookup_peer(UrlHash key, const obs::TraceContext& parent,
                                  LookupHandler done) {
  const sim::Time now = network_.simulator().now();
  if (auto it = answers_.find(key); it != answers_.end()) {
    if (it->second.expires > now) {
      // Bounded staleness: reuse within kLookupTtl, no wire traffic.  The
      // answer may point at an AP that evicted since — the relay's 404 path
      // (note_stale) absorbs that.
      hot_.answer_reuse.add();
      done(it->second.location);
      return;
    }
    answers_.erase(it);
  }

  hot_.lookups.add();
  const std::uint64_t seq = next_seq_++;
  if (auto* log = obs::tracing(observer_); log != nullptr) {
    // ape-lint: allow(hot-alloc) -- a span key, in traced runs only
    std::string text = hash_to_string(key);
    const obs::TraceContext span =
        log->open(parent, "dir.lookup", "dir", std::move(text), now);
    done = obs::close_on_call(log, span, network_.simulator(), std::move(done));
  }
  Pending pending{key, std::move(done), 0};
  pending.timeout =
      network_.simulator().schedule_in(
          kLookupTimeout, [this, seq] { on_timeout(seq); }, APE_EVT("ap.dir.lookup_timeout"));
  inflight_.emplace(seq, std::move(pending));
  std::string line =
      "LOOKUP " + std::to_string(seq) + " " + std::to_string(options_.ap_id) + " ";
  append_key(line, key);
  send_to_shard(shard_of(key, options_.shards.size()), line);
}

void DirectoryClient::note_stale(UrlHash key) {
  hot_.stale_redirects.add();
  answers_.erase(key);
}

void DirectoryClient::on_timeout(std::uint64_t seq) {
  auto it = inflight_.find(seq);
  if (it == inflight_.end()) return;
  Pending pending = std::move(it->second);
  inflight_.erase(it);
  hot_.lookup_timeouts.add();
  // Cache the non-answer too: while a shard is unreachable, each key pays
  // the timeout once per kLookupTtl instead of once per miss.
  answers_[pending.key] = {std::nullopt, network_.simulator().now() + kLookupTtl};
  pending.handler(std::nullopt);
}

void DirectoryClient::resolve(std::uint64_t seq, std::optional<core::PeerLocation> location) {
  auto it = inflight_.find(seq);
  if (it == inflight_.end()) return;  // reply raced the timeout; already resolved
  Pending pending = std::move(it->second);
  inflight_.erase(it);
  if (pending.timeout != 0) network_.simulator().cancel(pending.timeout);
  answers_[pending.key] = {location, network_.simulator().now() + kLookupTtl};
  if (location.has_value()) {
    hot_.lookup_hits.add();
  } else {
    hot_.lookup_misses.add();
  }
  pending.handler(location);
}

void DirectoryClient::on_datagram(const net::Datagram& dgram) {
  // "<verb> <seq> <shard> <epoch>" plus a verb-specific tail; a malformed
  // line is dropped whole, before it can touch the epoch table.
  FieldReader in = fields_of(dgram.payload);
  std::string_view verb;
  std::uint64_t seq = 0;
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  if (!(in.word(verb) && in.number(seq) && in.number(shard) && in.number(epoch))) return;
  std::uint32_t owner = 0;
  std::size_t renewed = 0;
  const bool well_formed = verb == "FOUND"      ? in.number(owner) && in.done()
                           : verb == "MISS"     ? in.done()
                           : verb == "LEASEACK" ? in.number(renewed) && in.done()
                                                : false;
  if (!well_formed || shard >= options_.shards.size()) return;
  check_epoch(shard, epoch);

  if (verb == "FOUND") {
    auto roster_it = options_.roster.find(owner);
    if (roster_it == options_.roster.end()) {
      resolve(seq, std::nullopt);  // unknown AP: treat as a miss
      return;
    }
    resolve(seq, core::PeerLocation{owner, roster_it->second, epoch});
  } else if (verb == "MISS") {
    resolve(seq, std::nullopt);
  } else if (lease_acks_outstanding_ > 0) {  // LEASEACK
    if (--lease_acks_outstanding_ == 0) {
      if (auto* log = obs::tracing(observer_); log != nullptr) {
        log->close(lease_span_, network_.simulator().now());
      }
      lease_span_ = obs::TraceContext{};
    }
  }
}

void DirectoryClient::check_epoch(std::size_t shard, std::uint64_t epoch) {
  if (epoch <= shard_epochs_[shard]) return;
  const bool first = shard_epochs_[shard] == 0;
  shard_epochs_[shard] = epoch;
  if (first) return;  // learning the initial epoch is not a failover
  // The shard restarted with an empty registry: replay our holdings that
  // hash to it.  Duplicate PUBLISHes are idempotent on the shard.
  hot_.epoch_replays.add();
  for (const UrlHash key : holdings_) {
    if (shard_of(key, options_.shards.size()) != shard) continue;
    std::string line = "PUBLISH " + std::to_string(options_.ap_id) + " ";
    append_key(line, key);
    line += " " + std::to_string(kPublishTtlSeconds);
    send_to_shard(shard, line);
  }
}

void DirectoryClient::schedule_lease() {
  lease_event_ = network_.simulator().schedule_in(options_.lease_interval, [this] {
    lease_event_ = 0;
    renew_leases();
    schedule_lease();
  }, APE_EVT("ap.dir.lease"));
}

void DirectoryClient::renew_leases() {
  hot_.lease_rounds.add();
  auto* log = obs::tracing(observer_);
  if (log != nullptr) {
    // One root span per round, held open until the last shard LEASEACKs;
    // a round that outlives the client is safety-closed in the dtor.
    log->close(lease_span_, network_.simulator().now());
    lease_span_ =
        log->open_root("dir.lease", "dir", "round", network_.simulator().now());
    lease_acks_outstanding_ = 0;
  }
  for (std::size_t shard = 0; shard < options_.shards.size(); ++shard) {
    std::string keys;
    for (const UrlHash key : holdings_) {
      if (shard_of(key, options_.shards.size()) != shard) continue;
      keys += ' ';
      append_key(keys, key);
    }
    if (keys.empty()) continue;
    ++lease_acks_outstanding_;
    send_to_shard(shard, "LEASE " + std::to_string(next_seq_++) + " " +
                             std::to_string(options_.ap_id) + " " +
                             std::to_string(kPublishTtlSeconds) + keys);
  }
  if (log != nullptr && lease_acks_outstanding_ == 0) {
    // Nothing to renew: the round is already over.
    log->close(lease_span_, network_.simulator().now());
    lease_span_ = obs::TraceContext{};
  }
}

}  // namespace ape::fleet
