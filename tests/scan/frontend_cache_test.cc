#include "scan/frontend_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

namespace quicer::scan {
namespace {

/// The node-based cache the flat-slot FrontendCertCache replaced, kept as
/// the reference model: a std::list in LRU order, an unordered_map from
/// domain to list node, a fresh touch vector per entry and insert-then-evict.
class ReferenceCache {
 public:
  ReferenceCache(FrontendCertCache::Config config, sim::Rng rng) : config_(config), rng_(rng) {}

  bool OnConnection(const std::string& domain, sim::Time now) {
    while (!lru_.empty() && lru_.back().last_touch + config_.ttl < now) {
      entries_.erase(lru_.back().domain);
      lru_.pop_back();
      ++ttl_evictions;
    }
    const int frontend =
        static_cast<int>(rng_.UniformInt(0, std::max(1, config_.frontends_per_cluster) - 1));
    auto it = entries_.find(domain);
    if (it != entries_.end()) {
      Entry entry = std::move(*it->second);
      lru_.erase(it->second);
      sim::Time& touch = entry.machine_touch[static_cast<std::size_t>(frontend)];
      const bool hot = touch >= 0 && touch + config_.ttl >= now;
      touch = now;
      entry.last_touch = now;
      lru_.push_front(std::move(entry));
      entries_[domain] = lru_.begin();
      return hot;
    }
    Entry entry;
    entry.domain = domain;
    entry.last_touch = now;
    entry.machine_touch.assign(static_cast<std::size_t>(config_.frontends_per_cluster), -1);
    entry.machine_touch[static_cast<std::size_t>(frontend)] = now;
    lru_.push_front(std::move(entry));
    entries_[domain] = lru_.begin();
    if (entries_.size() > config_.capacity) {
      entries_.erase(lru_.back().domain);
      lru_.pop_back();
      ++capacity_evictions;
    }
    return false;
  }

  std::size_t size() const { return entries_.size(); }

  std::uint64_t ttl_evictions = 0;
  std::uint64_t capacity_evictions = 0;

 private:
  struct Entry {
    std::string domain;
    sim::Time last_touch = 0;
    std::vector<sim::Time> machine_touch;
  };

  FrontendCertCache::Config config_;
  sim::Rng rng_;
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
};

FrontendCertCache::Config SingleMachine(std::size_t capacity = 8,
                                        sim::Duration ttl = sim::Seconds(60)) {
  FrontendCertCache::Config config;
  config.capacity = capacity;
  config.ttl = ttl;
  config.frontends_per_cluster = 1;
  return config;
}

TEST(FrontendCache, FirstConnectionMisses) {
  FrontendCertCache cache(SingleMachine(), sim::Rng(1));
  EXPECT_FALSE(cache.OnConnection("example.com", 0));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(FrontendCache, SecondConnectionHits) {
  FrontendCertCache cache(SingleMachine(), sim::Rng(1));
  cache.OnConnection("example.com", 0);
  EXPECT_TRUE(cache.OnConnection("example.com", sim::Seconds(1)));
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(FrontendCache, TtlExpiresEntries) {
  FrontendCertCache cache(SingleMachine(8, sim::Seconds(10)), sim::Rng(1));
  cache.OnConnection("example.com", 0);
  EXPECT_FALSE(cache.OnConnection("example.com", sim::Seconds(11)));
}

TEST(FrontendCache, TouchRefreshesTtl) {
  FrontendCertCache cache(SingleMachine(8, sim::Seconds(10)), sim::Rng(1));
  cache.OnConnection("example.com", 0);
  EXPECT_TRUE(cache.OnConnection("example.com", sim::Seconds(8)));
  EXPECT_TRUE(cache.OnConnection("example.com", sim::Seconds(16)));
}

TEST(FrontendCache, LruEvictsColdestWhenFull) {
  FrontendCertCache cache(SingleMachine(2), sim::Rng(1));
  cache.OnConnection("a.com", 0);
  cache.OnConnection("b.com", sim::Seconds(1));
  cache.OnConnection("a.com", sim::Seconds(2));  // touch a
  cache.OnConnection("c.com", sim::Seconds(3));  // evicts b
  EXPECT_TRUE(cache.OnConnection("a.com", sim::Seconds(4)));
  EXPECT_FALSE(cache.OnConnection("b.com", sim::Seconds(5)));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FrontendCache, ClusterDilutionReproducesSevenPercentCoalesced) {
  // The paper's own domains, probed at 60 connections/minute, saw only
  // 7.5 % coalesced responses: a Cloudflare colo has many machines and each
  // caches independently — the probe stream barely warms any one of them.
  FrontendCertCache::Config config;
  config.capacity = 8192;
  config.ttl = sim::Seconds(300);
  config.frontends_per_cluster = 4096;
  FrontendCertCache diluted(config, sim::Rng(5));
  config.frontends_per_cluster = 1;
  FrontendCertCache single(config, sim::Rng(5));
  for (int i = 0; i < 6000; ++i) {
    const sim::Time now = sim::Seconds(i);  // 60/minute
    diluted.OnConnection("mine.example", now);
    single.OnConnection("mine.example", now);
  }
  EXPECT_GT(single.HitRate(), 0.99);
  // ~300 probes per TTL window over 4096 machines -> ~7 %.
  EXPECT_GT(diluted.HitRate(), 0.03);
  EXPECT_LT(diluted.HitRate(), 0.15);
}

TEST(FrontendCache, PopularDomainStaysHotterThanColdOne) {
  FrontendCertCache::Config config;
  config.capacity = 512;
  config.ttl = sim::Seconds(120);
  config.frontends_per_cluster = 8;
  FrontendCertCache cache(config, sim::Rng(9));
  int popular_hits = 0;
  int popular_total = 0;
  int cold_hits = 0;
  int cold_total = 0;
  for (int minute = 0; minute < 600; ++minute) {
    const sim::Time now = sim::Seconds(minute * 60);
    // Popular domain: 40 connections a minute keep every machine hot.
    for (int c = 0; c < 40; ++c) {
      ++popular_total;
      if (cache.OnConnection("discord.example", now + c * 1500)) ++popular_hits;
    }
    // Cold domain: one probe every two minutes.
    if (minute % 2 == 0) {
      ++cold_total;
      if (cache.OnConnection("tinyurl.example", now)) ++cold_hits;
    }
  }
  const double popular_rate = static_cast<double>(popular_hits) / popular_total;
  const double cold_rate = static_cast<double>(cold_hits) / cold_total;
  // Fig 9's observation: discord.com 91.9 % coalesced, tinyurl.com 17.7 %.
  EXPECT_GT(popular_rate, 0.8);
  EXPECT_LT(cold_rate, 0.4);
  EXPECT_GT(popular_rate, cold_rate + 0.2);
}

/// Feeds one seeded stream to the cache and the reference model and requires
/// the same answer and size after every call. The stream mixes runs of one
/// domain, a hot set and a pool larger than any capacity under test (short
/// and heap-allocated names), gaps of 0-5 s with occasional 400 s jumps, and
/// call times up to a minute behind the stream clock. With `min_run` > 0 a
/// domain keeps the stream for `min_run` to 2 * `min_run` calls before the
/// next pick — the long memo runs that never leave the inline body.
void ExpectMatchesReference(std::size_t capacity, int frontends, sim::Duration ttl,
                            std::uint64_t seed, int min_run = 0) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity << ", frontends " << frontends
                                  << ", ttl " << ttl << " us, seed " << seed << ", min_run "
                                  << min_run);
  FrontendCertCache::Config config;
  config.capacity = capacity;
  config.ttl = ttl;
  config.frontends_per_cluster = frontends;
  FrontendCertCache cache(config, sim::Rng(seed));
  ReferenceCache reference(config, sim::Rng(seed));

  std::vector<std::string> pool;
  for (int i = 0; i < 96; ++i) {
    pool.push_back(i % 3 == 0 ? "certificate-domain-" + std::to_string(i) + ".example"
                              : "d" + std::to_string(i) + ".example");
  }
  sim::Rng stream(seed * 7919 + 1);
  std::size_t domain = 0;
  std::int64_t run_left = 0;
  sim::Time clock = 0;
  std::uint64_t hits = 0;
  for (int call = 0; call < 6000; ++call) {
    if (min_run == 0 || --run_left < 0) {
      const double pick = stream.NextDouble();
      if (min_run > 0 || pick >= 0.5) {
        domain = static_cast<std::size_t>(
            pick < 0.8 ? stream.UniformInt(0, 3)
                       : stream.UniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
      }
      if (min_run > 0) run_left = stream.UniformInt(min_run, 2 * min_run) - 1;
    }
    clock += stream.Bernoulli(0.05) ? sim::Seconds(400) : stream.UniformInt(0, 5) * sim::kSecond;
    const sim::Time now =
        stream.Bernoulli(0.25) ? clock - stream.UniformInt(0, 59) * sim::kSecond : clock;
    const bool hit = cache.OnConnection(pool[domain], now);
    ASSERT_EQ(hit, reference.OnConnection(pool[domain], now)) << "call " << call;
    ASSERT_EQ(cache.size(), reference.size()) << "call " << call;
    hits += hit ? 1 : 0;
  }
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), 6000 - hits);
  EXPECT_EQ(cache.ttl_evictions(), reference.ttl_evictions);
  EXPECT_EQ(cache.capacity_evictions(), reference.capacity_evictions);
}

TEST(FrontendCache, MatchesReferenceModel) {
  std::uint64_t seed = 1;
  for (std::size_t capacity : {0, 1, 2, 64}) {
    // 64, 4096 and 16384 are the study's cluster sizes (power-of-two draws).
    for (int frontends : {1, 3, 64, 4096, 16384}) {
      // 2 s is shorter than most of the stream's gaps; 300 s outlives all
      // but the 400 s jumps.
      for (sim::Duration ttl : {sim::Seconds(2), sim::Seconds(300)}) {
        ExpectMatchesReference(capacity, frontends, ttl, seed++);
      }
    }
  }
}

TEST(FrontendCache, MatchesReferenceModelOnLongSingleDomainRuns) {
  std::uint64_t seed = 101;
  for (std::size_t capacity : {1, 2, 64}) {
    for (int frontends : {1, 3, 64, 16384}) {
      for (sim::Duration ttl : {sim::Seconds(2), sim::Seconds(300)}) {
        ExpectMatchesReference(capacity, frontends, ttl, seed++, /*min_run=*/100);
      }
    }
  }
}

/// A call of a targeted case and the answer it must give.
struct Call {
  const char* domain;
  sim::Time now;
  bool hit;
};

/// Replays `calls` on a cache and the reference model; both must give the
/// listed answer and the same size after every call.
FrontendCertCache ReplayAgainstReference(FrontendCertCache::Config config,
                                         const std::vector<Call>& calls) {
  FrontendCertCache cache(config, sim::Rng(1));
  ReferenceCache reference(config, sim::Rng(1));
  for (std::size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "call " << i << ": " << calls[i].domain << " at "
                                    << calls[i].now << " us");
    EXPECT_EQ(cache.OnConnection(calls[i].domain, calls[i].now), calls[i].hit);
    EXPECT_EQ(reference.OnConnection(calls[i].domain, calls[i].now), calls[i].hit);
    EXPECT_EQ(cache.size(), reference.size());
  }
  EXPECT_EQ(cache.ttl_evictions(), reference.ttl_evictions);
  EXPECT_EQ(cache.capacity_evictions(), reference.capacity_evictions);
  return cache;
}

TEST(FrontendCache, TailTouchedExactlyOneTtlAgoIsStillLive) {
  // b is the tail, a the memoised head. At last_touch + ttl == now the tail
  // is live, so the repeat call to a evicts nothing.
  const FrontendCertCache cache = ReplayAgainstReference(
      SingleMachine(8, sim::Seconds(10)), {{"b.com", 0, false},
                                           {"a.com", sim::Seconds(5), false},
                                           {"a.com", sim::Seconds(10), true}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.ttl_evictions(), 0u);
}

TEST(FrontendCache, TailExpiresOneTickAfterItsTtl) {
  // One tick later the tail b has expired: the repeat call to a must sweep
  // it out before it hits.
  const FrontendCertCache cache = ReplayAgainstReference(
      SingleMachine(8, sim::Seconds(10)), {{"b.com", 0, false},
                                           {"a.com", sim::Seconds(5), false},
                                           {"a.com", sim::Seconds(10) + 1, true}});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.ttl_evictions(), 1u);
}

TEST(FrontendCache, ExpiredMemoSlotThatIsAlsoTheTailMisses) {
  // Capacity 1: the memoised head is the tail. Live at its TTL boundary, it
  // expires a tick later, is released and the call misses and re-inserts.
  const FrontendCertCache cache = ReplayAgainstReference(
      SingleMachine(1, sim::Seconds(10)), {{"a.com", 0, false},
                                           {"a.com", sim::Seconds(10), true},
                                           {"a.com", sim::Seconds(20) + 1, false},
                                           {"a.com", sim::Seconds(21), true}});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.ttl_evictions(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(FrontendCache, ReinsertedDomainIsColdOnEveryMachine) {
  // Capacity 1: each new domain evicts the previous one and takes over its
  // slot. A mirror of the cache's RNG tells which machine each call lands
  // on, so every call must hit exactly when its machine was touched since
  // the domain's (re-)insertion — a recycled slot keeps no stale touches.
  constexpr int kMachines = 8;
  FrontendCertCache::Config config = SingleMachine(1, sim::Seconds(3600));
  config.frontends_per_cluster = kMachines;
  FrontendCertCache cache(config, sim::Rng(3));
  sim::Rng mirror(3);
  sim::Time now = 0;
  for (const char* domain : {"a.example", "b.example", "a.example", "b.example"}) {
    std::vector<bool> touched(kMachines, false);
    int cold = kMachines;
    while (cold > 0) {
      const auto machine = static_cast<std::size_t>(mirror.UniformInt(0, kMachines - 1));
      now += sim::kSecond;
      EXPECT_EQ(cache.OnConnection(domain, now), static_cast<bool>(touched[machine]))
          << domain << " on machine " << machine;
      if (!touched[machine]) --cold;
      touched[machine] = true;
    }
    EXPECT_EQ(cache.size(), 1u);
  }
  EXPECT_EQ(cache.capacity_evictions(), 3u);
  EXPECT_EQ(cache.ttl_evictions(), 0u);
}

TEST(FrontendCache, CountsEvictionsByCause) {
  FrontendCertCache cache(SingleMachine(2, sim::Seconds(10)), sim::Rng(1));
  cache.OnConnection("a.com", 0);
  cache.OnConnection("b.com", sim::Seconds(1));
  cache.OnConnection("c.com", sim::Seconds(2));  // evicts a (capacity)
  EXPECT_EQ(cache.capacity_evictions(), 1u);
  EXPECT_EQ(cache.ttl_evictions(), 0u);
  cache.OnConnection("c.com", sim::Seconds(30));  // b and c expired first
  EXPECT_EQ(cache.ttl_evictions(), 2u);
  EXPECT_EQ(cache.capacity_evictions(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace quicer::scan
