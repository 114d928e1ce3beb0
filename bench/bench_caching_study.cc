// §4.3 "The instant ACK deployment at Cloudflare" — certificate caching by
// popularity. The paper compares coalesced-ACK+SH shares across domains of
// different request rates: discord.com 91.9 %, cloudflare.com 50.5 %,
// tinyurl.com 17.7 %, docker.com 0.7 %; its own domains probed at 1/min
// almost never coalesce (0.1 %), at 60/min slightly more (7.5 %).
//
// Reproduced with the frontend certificate-cache model: one cluster, domains
// with different organic request rates, plus probe streams at the paper's
// two rates.
//
// Sweep mapping: domain, frontend-cache capacity, TTL, cluster size
// (frontends_per_cluster) and probe rate are extra axes — the full §4.3
// sensitivity grids. One cluster simulation threads one RNG through all
// domains minute by minute, so it runs once per (capacity, ttl, frontends,
// probe-rate) tuple: the spec's memo key is that tuple, the six domain
// points of a tuple share one memo, and each extracts its coalesced share
// from the memoized simulation. RunSweep starts every tuple's simulation
// before any tuple's second domain, so the 54 simulations run in parallel.
// The paper-comparison column reads the base tuple (capacity 65536, TTL
// 300 s, 4096 frontends, 1 probe/min), which reproduces the pre-axis values
// exactly.
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>

#include "bench_common.h"
#include "core/report.h"
#include "obs/telemetry.h"
#include "registry.h"
#include "scan/frontend_cache.h"

namespace {

using namespace quicer;

struct DomainLoad {
  const char* name;
  double organic_per_minute;  // background traffic keeping the cert hot
  double paper_share;         // observed coalesced share
};

constexpr DomainLoad kDomains[] = {
    {"discord.example", 20000.0, 91.9},
    {"cloudflare.example", 600.0, 50.5},
    {"tinyurl.example", 160.0, 17.7},
    {"docker.example", 6.0, 0.7},
    {"own-domain (1/min probes)", 0.0, 0.1},
    {"own-domain (60/min probes)", 0.0, 7.5},
};
constexpr int kDomainCount = 6;

/// The base cluster the paper comparison reads; the sensitivity axes sweep
/// around it.
constexpr std::int64_t kBaseCapacity = 1 << 16;
constexpr std::int64_t kBaseTtlSeconds = 300;
constexpr std::int64_t kBaseFrontends = 4096;
constexpr std::int64_t kBaseProbePerMin = 1;

struct CacheOutcome {
  int probe_hits[kDomainCount] = {0};
  int probe_total[kDomainCount] = {0};
};

/// (capacity, ttl, frontends_per_cluster, probes/min) of one simulation.
using ClusterKey = std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>;

ClusterKey KeyOf(const core::SweepPoint& point) {
  return {point.Extra("cache_capacity")->value, point.Extra("cache_ttl_s")->value,
          point.Extra("frontends_per_cluster")->value, point.Extra("probe_per_min")->value};
}

/// Simulate 3 hours; organic traffic arrives uniformly, probes on their
/// schedule. Coalesced share is measured on the probe stream at
/// `probe_per_min` connections/minute (the paper measures at 1/min), except
/// for the fast-probe row, whose 60/min rate is its identity. Self-contained
/// per key: fixed seeds, so the outcome is independent of which other keys
/// run (or of sharding).
CacheOutcome SimulateCluster(const ClusterKey& key) {
  const auto [capacity, ttl_seconds, frontends, probe_per_min] = key;
  scan::FrontendCertCache::Config config;
  config.capacity = static_cast<std::size_t>(capacity);
  config.ttl = sim::Seconds(ttl_seconds);
  config.frontends_per_cluster = static_cast<int>(frontends);
  scan::FrontendCertCache cache(config, sim::Rng(11));

  CacheOutcome outcome;
  const int minutes = 3 * 60;
  sim::Rng rng(23);
  // Built once: a name past the small-string buffer would otherwise be
  // allocated on every call.
  std::string names[kDomainCount];
  for (int d = 0; d < kDomainCount; ++d) names[d] = kDomains[d].name;

  for (int minute = 0; minute < minutes; ++minute) {
    const sim::Time base = sim::Seconds(minute * 60);
    for (int d = 0; d < kDomainCount; ++d) {
      // Organic load.
      const double rate = kDomains[d].organic_per_minute;
      const int arrivals = static_cast<int>(rate) +
                           (rng.Bernoulli(rate - static_cast<int>(rate)) ? 1 : 0);
      for (int a = 0; a < arrivals; ++a) {
        cache.OnConnection(names[d], base + rng.UniformInt(0, 59) * sim::kSecond);
      }
      // Probe stream.
      const int probes = d == 5 ? 60 : static_cast<int>(probe_per_min);
      for (int p = 0; p < probes; ++p) {
        ++outcome.probe_total[d];
        if (cache.OnConnection(names[d], base + p * sim::kSecond)) {
          ++outcome.probe_hits[d];
        }
      }
    }
  }
  obs::Count(obs::kScanFrontendCacheHits, cache.hits());
  obs::Count(obs::kScanFrontendCacheMisses, cache.misses());
  obs::Count(obs::kScanFrontendCacheTtlEvictions, cache.ttl_evictions());
  obs::Count(obs::kScanFrontendCacheCapacityEvictions, cache.capacity_evictions());
  return outcome;
}

double Share(const core::PointSummary& summary) { return summary.values().mean(); }

}  // namespace

QUICER_BENCH("caching_study", "Cloudflare certificate caching by domain popularity") {
  core::PrintTitle("Cloudflare certificate caching by domain popularity (Fig 9 context)");

  core::SweepSpec spec;
  spec.name = "caching_study";
  // Sensitivity axes around the base cluster: a capacity below the domain
  // count forces LRU evictions of the cold domains; shorter/longer TTLs
  // shift how much organic load a domain needs to stay hot; fewer machines
  // behind the VIP make every stream (organic and probes) far more likely
  // to land on a warm machine; faster probing warms machines on its own.
  core::SweepExtraAxis capacities{"cache_capacity",
                                  {{"2", 2}, {"4", 4}, {"65536", kBaseCapacity}}};
  core::SweepExtraAxis ttls{"cache_ttl_s",
                            {{"60s", 60}, {"300s", kBaseTtlSeconds}, {"900s", 900}}};
  core::SweepExtraAxis frontends{
      "frontends_per_cluster",
      {{"64", 64}, {"4096", kBaseFrontends}, {"16384", 16384}}};
  core::SweepExtraAxis probe_rates{"probe_per_min",
                                   {{"1/min", kBaseProbePerMin}, {"60/min", 60}}};
  core::SweepExtraAxis domains;
  domains.name = "domain";
  for (int d = 0; d < kDomainCount; ++d) domains.values.push_back({kDomains[d].name, d});
  spec.axes.extras = {capacities, ttls, frontends, probe_rates, domains};
  spec.repetitions = 1;
  spec.metrics = {
      {"coalesced_share_pct", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.memo_key = [](const core::SweepPoint& point) {
    const auto [capacity, ttl_s, machines, probe_rate] = KeyOf(point);
    return std::to_string(capacity) + '/' + std::to_string(ttl_s) + '/' +
           std::to_string(machines) + '/' + std::to_string(probe_rate);
  };
  spec.runner = [](const core::SweepRunContext& run) {
    const CacheOutcome& outcome =
        run.memo.Get([&] { return SimulateCluster(KeyOf(run.point)); });
    const auto d = static_cast<std::size_t>(run.point.Extra("domain")->value);
    return std::vector<double>{100.0 * outcome.probe_hits[d] / outcome.probe_total[d]};
  };
  const auto result = bench::Run(spec, ctx);
  if (!result) return 0;

  auto cell = [&](std::int64_t capacity, std::int64_t ttl_s, std::int64_t machines,
                  std::int64_t probe_rate, int domain) {
    return result->Find([&](const core::SweepPoint& p) {
      return p.Extra("cache_capacity")->value == capacity &&
             p.Extra("cache_ttl_s")->value == ttl_s &&
             p.Extra("frontends_per_cluster")->value == machines &&
             p.Extra("probe_per_min")->value == probe_rate &&
             p.Extra("domain")->value == domain;
    });
  };
  auto base_cell = [&](std::int64_t capacity, std::int64_t ttl_s, int domain) {
    return cell(capacity, ttl_s, kBaseFrontends, kBaseProbePerMin, domain);
  };

  std::printf("%28s  %18s  %18s\n", "domain (load)", "coalesced [%]", "paper [%]");
  for (int d = 0; d < kDomainCount; ++d) {
    std::printf("%28s  %18.1f  %18.1f\n", kDomains[d].name,
                Share(*base_cell(kBaseCapacity, kBaseTtlSeconds, d)), kDomains[d].paper_share);
  }
  std::printf("\nShape check: coalesced (cached-certificate) share grows monotonically with\n"
              "the domain's request rate; probe-only domains stay cold except when probed\n"
              "fast enough to warm a few machines of the cluster.\n");

  core::PrintHeading("Sensitivity: coalesced share [%] across cache capacity x TTL");
  std::printf("%28s", "domain \\ (capacity, ttl)");
  for (const core::SweepAxisValue& capacity : capacities.values) {
    for (const core::SweepAxisValue& ttl : ttls.values) {
      std::printf("  %6s/%-4s", capacity.label.c_str(), ttl.label.c_str());
    }
  }
  std::printf("\n");
  for (int d = 0; d < kDomainCount; ++d) {
    std::printf("%28s", kDomains[d].name);
    for (const core::SweepAxisValue& capacity : capacities.values) {
      for (const core::SweepAxisValue& ttl : ttls.values) {
        std::printf("  %11.1f", Share(*base_cell(capacity.value, ttl.value, d)));
      }
    }
    std::printf("\n");
  }
  std::printf("\nShape check: a capacity below the domain count evicts the cold domains\n"
              "entirely; longer TTLs mostly help the mid-popularity domains (enough\n"
              "organic load to touch machines, not enough to keep them hot at 60 s).\n");

  core::PrintHeading(
      "Sensitivity: coalesced share [%] across cluster size x probe rate");
  std::printf("%28s", "domain \\ (machines, rate)");
  for (const core::SweepAxisValue& machines : frontends.values) {
    for (const core::SweepAxisValue& rate : probe_rates.values) {
      std::printf("  %5s@%-6s", machines.label.c_str(), rate.label.c_str());
    }
  }
  std::printf("\n");
  for (int d = 0; d < kDomainCount; ++d) {
    std::printf("%28s", kDomains[d].name);
    for (const core::SweepAxisValue& machines : frontends.values) {
      for (const core::SweepAxisValue& rate : probe_rates.values) {
        std::printf("  %12.1f", Share(*cell(kBaseCapacity, kBaseTtlSeconds, machines.value,
                                            rate.value, d)));
      }
    }
    std::printf("\n");
  }
  std::printf("\nShape check: shrinking the cluster concentrates both organic and probe\n"
              "traffic on fewer machines, so even cold domains warm up; on large\n"
              "clusters only a fast probe stream lifts its own hit share (the paper's\n"
              "60/min observation), and popular domains stay hot regardless.\n");
  return 0;
}
