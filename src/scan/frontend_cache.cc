#include "scan/frontend_cache.h"

#include <algorithm>

namespace quicer::scan {

FrontendCertCache::FrontendCertCache(Config config, sim::Rng rng)
    : config_(config), rng_(rng), frontends_(std::max(1, config.frontends_per_cluster)) {}

void FrontendCertCache::EvictExpired(sim::Time now) {
  while (tail_ != kNone && slots_[tail_].last_touch + config_.ttl < now) {
    Release(tail_);
    ++ttl_evictions_;
  }
}

void FrontendCertCache::Unlink(std::uint32_t s) {
  const Slot& slot = slots_[s];
  (slot.prev == kNone ? head_ : slots_[slot.prev].next) = slot.next;
  (slot.next == kNone ? tail_ : slots_[slot.next].prev) = slot.prev;
}

void FrontendCertCache::PushFront(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.prev = kNone;
  slot.next = head_;
  (head_ == kNone ? tail_ : slots_[head_].prev) = s;
  head_ = s;
}

FrontendCertCache::Index::node_type FrontendCertCache::Release(std::uint32_t s) {
  Unlink(s);
  Slot& slot = slots_[s];
  slot.next = free_;
  free_ = s;
  if (last_ == s) last_ = kNone;
  return index_.extract(slot.domain);
}

void FrontendCertCache::Insert(const std::string& domain, std::size_t frontend, sim::Time now) {
  // Evict before taking a slot, so the tail's touch row — and its index
  // node — are the ones reused.
  Index::node_type node;
  if (index_.size() == config_.capacity) {
    node = Release(tail_);
    ++capacity_evictions_;
  }
  std::uint32_t s = free_;
  if (s != kNone) {
    free_ = slots_[s].next;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  slot.domain = domain;
  slot.last_touch = now;
  // A recycled slot keeps its row's storage; every machine starts cold.
  slot.machine_touch.assign(static_cast<std::size_t>(frontends_), -1);
  slot.machine_touch[frontend] = now;
  PushFront(s);
  last_ = s;
  if (node) {
    node.key() = domain;
    node.mapped() = s;
    index_.insert(std::move(node));
  } else {
    index_.emplace(domain, s);
  }
}

bool FrontendCertCache::OnConnection(const std::string& domain, sim::Time now) {
  EvictExpired(now);

  const auto frontend = static_cast<std::size_t>(rng_.UniformInt(0, frontends_ - 1));

  std::uint32_t s = last_;
  if (s == kNone || slots_[s].domain != domain) {
    const auto it = index_.find(domain);
    if (it == index_.end()) {
      ++misses_;
      if (config_.capacity == 0) {
        // The new entry would be its own LRU victim: nothing is stored.
        ++capacity_evictions_;
      } else {
        Insert(domain, frontend, now);
      }
      return false;
    }
    s = it->second;
    last_ = s;
  }

  if (s != head_) {
    Unlink(s);
    PushFront(s);
  }
  Slot& slot = slots_[s];
  sim::Time& machine_touch = slot.machine_touch[frontend];
  const bool hot = machine_touch >= 0 && machine_touch + config_.ttl >= now;
  machine_touch = now;
  slot.last_touch = now;
  if (hot) {
    ++hits_;
    return true;
  }
  // The cluster knows the domain but this machine fetched the certificate.
  ++misses_;
  return false;
}

}  // namespace quicer::scan
