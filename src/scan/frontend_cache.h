// Frontend certificate cache model.
//
// CDN frontends provision customer certificates on demand and keep them hot
// for a while (§4.3: popular Cloudflare domains like discord.com answer with
// *coalesced* ACK+SH — the certificate was cached — while cold domains take
// the Δt fetch path; the paper's own domains probed at 60 connections/minute
// saw 7.5 % coalesced responses).
//
// The model: a frontend cluster holds an LRU cache of certificate entries
// with a TTL; each incoming connection either hits (coalesced ACK+SH, Δt≈0)
// or misses (fetch, then insert). A cluster serves many domains, and one
// domain's probes spread over `frontends_per_cluster` machines, which is why
// even fast probing doesn't guarantee a hit.
//
// Layout. Entries live in a flat vector of slots. A slot holds the domain,
// its newest touch, the prev/next indices of an intrusive LRU list (head =
// most recent) and its own per-machine touch row. The index maps a domain to
// its slot; a memo of the last slot used short-cuts the index for runs of
// calls to one domain (compared by content, cleared when the slot is
// released). Released slots go on a free list threaded through `next` and
// keep their touch row, so a recycled slot resets the row to -1 instead of
// allocating it again.
//
// Invariants. Every live slot is in the index and on the LRU list, and
// nothing else is. The memo names the LRU head or nothing: every call that
// sets it also moves its slot to the head, and releasing the slot clears it,
// so a memo hit never relinks. A miss on a full cache releases the LRU tail
// *before* the new slot is taken — the same final state as inserting first
// and evicting the tail afterwards — so at most `capacity` touch rows are
// ever live (and the released tail's row and index node are the ones
// reused). A hit does one index lookup (none on a memo hit) and allocates
// nothing; neither does a miss on a full cache. Capacity 0 stores nothing:
// the new entry would be its own LRU victim. The TTL sweep of the tail comes
// first, then the frontend draw from the RNG, then the lookup — the draw
// order the model's results depend on.
//
// Hot path. OnConnection is inline in this header: in a run of calls to one
// domain nearly every call is a memo hit, and for those the call itself and
// its register saves cost as much as the model's work. Its one body keeps
// the common steps inline (tail check, draw, memo compare, touch) and calls
// out of line only for work a memo hit never does: releasing an expired
// tail and the index lookup with its insert or relink (frontend_cache.cc).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace quicer::scan {

/// LRU + TTL certificate cache of one frontend cluster.
class FrontendCertCache {
 public:
  struct Config {
    /// Entries the cluster keeps hot (per domain; machine slots inside).
    std::size_t capacity = 1024;
    /// Per-machine entry lifetime after the last touch on that machine.
    sim::Duration ttl = sim::Seconds(300);
    /// Machines behind the cluster VIP: a connection lands on one at random
    /// and each machine caches independently. Large clusters are why even
    /// 60 probes/minute only saw 7.5 % coalesced responses in the paper,
    /// while organically popular domains (discord.com: 91.9 %) are hot on
    /// every machine.
    int frontends_per_cluster = 4;
  };

  FrontendCertCache(Config config, sim::Rng rng);

  /// Records a connection for `domain` at `now`. Returns true on a cache hit
  /// (the frontend answers with a coalesced ACK+SH); on a miss the entry is
  /// inserted (certificate fetched).
  bool OnConnection(const std::string& domain, sim::Time now) {
    EvictExpired(now);
    const std::size_t frontend = DrawFrontend();
    std::uint32_t s = last_;
    if (s == kNone || slots_[s].domain != domain) {
      s = FindOrInsert(domain, frontend, now);
      if (s == kNone) return false;
    }
    return Touch(slots_[s], frontend, now);
  }

  std::size_t size() const { return index_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Entries dropped by the TTL sweep of the LRU tail.
  std::uint64_t ttl_evictions() const { return ttl_evictions_; }
  /// Entries dropped to make room for a new one (LRU order).
  std::uint64_t capacity_evictions() const { return capacity_evictions_; }
  double HitRate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Slot {
    std::string domain;
    sim::Time last_touch = 0;              // newest touch on any machine
    std::uint32_t prev = kNone;            // towards the LRU head
    std::uint32_t next = kNone;            // towards the tail; free-list link
    std::vector<sim::Time> machine_touch;  // per-machine last touch (-1 = cold)
  };

  using Index = std::unordered_map<std::string, std::uint32_t>;

  std::size_t DrawFrontend() {
    return static_cast<std::size_t>(rng_.UniformInt(0, frontends_ - 1));
  }
  /// Touches the cached `slot` on `frontend` at `now` and counts the call:
  /// a hit when that machine touched the domain within the TTL, else a miss
  /// (the cluster knows the domain but this machine fetches the
  /// certificate).
  bool Touch(Slot& slot, std::size_t frontend, sim::Time now) {
    sim::Time& machine_touch = slot.machine_touch[frontend];
    const bool hot = machine_touch >= 0 && machine_touch + config_.ttl >= now;
    machine_touch = now;
    slot.last_touch = now;
    hits_ += hot;
    misses_ += !hot;
    return hot;
  }
  /// The TTL sweep: drops LRU-tail entries untouched for longer than the TTL.
  void EvictExpired(sim::Time now) {
    while (tail_ != kNone && slots_[tail_].last_touch + config_.ttl < now) ReleaseExpiredTail();
  }
  void ReleaseExpiredTail();
  /// A call whose domain is not the memo's: returns the domain's slot, moved
  /// to the LRU head and memoised, or kNone after counting a miss and
  /// caching the domain (touched on `frontend` at `now`).
  std::uint32_t FindOrInsert(const std::string& domain, std::size_t frontend, sim::Time now);
  void Unlink(std::uint32_t s);
  void PushFront(std::uint32_t s);
  /// Unlinks `s`, puts it on the free list and hands back its index node.
  Index::node_type Release(std::uint32_t s);
  /// Caches `domain` (not indexed yet), touched on `frontend` at `now`, in
  /// a free or new slot at the LRU head.
  void Insert(const std::string& domain, std::size_t frontend, sim::Time now);

  Config config_;
  sim::Rng rng_;
  int frontends_;  // machines actually drawn from (at least 1)
  std::vector<Slot> slots_;
  Index index_;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
  std::uint32_t free_ = kNone;
  std::uint32_t last_ = kNone;  // memo: slot of the previous call's domain
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t ttl_evictions_ = 0;
  std::uint64_t capacity_evictions_ = 0;
};

}  // namespace quicer::scan
