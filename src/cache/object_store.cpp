// ape-lint: hot-path
#include "cache/object_store.hpp"

#include <cassert>
#include <utility>

namespace ape::cache {

CacheStore::CacheStore(std::size_t capacity_bytes, std::unique_ptr<EvictionPolicy> policy)
    : capacity_(capacity_bytes), policy_(std::move(policy)) {
  assert(policy_ && "a CacheStore needs an eviction policy");
}

CacheStore::InsertOutcome CacheStore::insert(CacheEntry entry, sim::Time now) {
  if (entry.size_bytes > capacity_) return InsertOutcome::TooLarge;

  // Replacing an existing entry frees its bytes first.
  if (auto it = entries_.find(entry.key); it != entries_.end()) {
    erase_internal(it->first, RemovalCause::Replaced);
  }
  // Expired entries are dead weight (unless retained for revalidation);
  // reclaim before asking the policy.
  if (!retain_expired_ && used_ + entry.size_bytes > capacity_) sweep_expired(now);

  if (used_ + entry.size_bytes > capacity_) {
    const std::size_t needed = used_ + entry.size_bytes - capacity_;
    auto victims = policy_->select_victims(*this, entry, needed);
    if (!victims) {
      ++rejections_;
      return InsertOutcome::Rejected;
    }
    std::size_t freed = 0;
    for (const UrlHash key : *victims) {
      auto it = entries_.find(key);
      if (it == entries_.end()) continue;
      freed += it->second.size_bytes;
      erase_internal(key, RemovalCause::Evicted);
      ++evictions_;
    }
    if (freed < needed) {
      // Policy under-delivered; reject rather than blow the byte budget.
      ++rejections_;
      return InsertOutcome::Rejected;
    }
  }

  entry.inserted = now;
  entry.last_access = now;
  used_ += entry.size_bytes;
  policy_->on_insert(entry);
  auto [it, _] = entries_.emplace(entry.key, std::move(entry));
  for (const auto& listener : insert_listeners_) listener(it->second);
  return InsertOutcome::Inserted;
}

const CacheEntry* CacheStore::get(UrlHash key, sim::Time now) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (it->second.expired_at(now)) {
    erase_internal(key, RemovalCause::Expired);
    return nullptr;
  }
  it->second.last_access = now;
  ++it->second.access_count;
  policy_->on_access(it->second);
  return &it->second;
}

const CacheEntry* CacheStore::peek(UrlHash key, sim::Time now) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.expired_at(now)) return nullptr;
  return &it->second;
}

const CacheEntry* CacheStore::lookup_any(UrlHash key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

bool CacheStore::erase(UrlHash key) {
  if (!entries_.contains(key)) return false;
  erase_internal(key, RemovalCause::Erased);
  return true;
}

void CacheStore::notify_removal(const CacheEntry& entry, RemovalCause cause) {
  for (const auto& listener : removal_listeners_) listener(entry, cause);
}

void CacheStore::erase_internal(UrlHash key, RemovalCause cause) {
  auto it = entries_.find(key);
  assert(it != entries_.end());
  assert(used_ >= it->second.size_bytes);
  used_ -= it->second.size_bytes;
  policy_->on_erase(key);
  notify_removal(it->second, cause);
  entries_.erase(it);
}

std::size_t CacheStore::sweep_expired(sim::Time now) {
  std::size_t reclaimed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.expired_at(now)) {
      reclaimed += it->second.size_bytes;
      used_ -= it->second.size_bytes;
      policy_->on_erase(it->first);
      notify_removal(it->second, RemovalCause::Expired);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return reclaimed;
}

void CacheStore::clear() {
  for (const auto& [key, entry] : entries_) {
    policy_->on_erase(key);
    notify_removal(entry, RemovalCause::Cleared);
  }
  entries_.clear();
  used_ = 0;
}

std::vector<const CacheEntry*> CacheStore::entries() const {
  std::vector<const CacheEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [_, entry] : entries_) out.push_back(&entry);
  return out;
}

}  // namespace ape::cache
