#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "scan/cdn_model.h"
#include "scan/population.h"
#include "scan/prober.h"
#include "stats/stats.h"

namespace quicer::scan {
namespace {

TEST(CdnModel, Table5AsnMapping) {
  EXPECT_EQ(CdnFromAsn(13335), Cdn::kCloudflare);
  EXPECT_EQ(CdnFromAsn(209242), Cdn::kCloudflare);
  EXPECT_EQ(CdnFromAsn(16625), Cdn::kAkamai);
  EXPECT_EQ(CdnFromAsn(20940), Cdn::kAkamai);
  EXPECT_EQ(CdnFromAsn(14618), Cdn::kAmazon);
  EXPECT_EQ(CdnFromAsn(16509), Cdn::kAmazon);
  EXPECT_EQ(CdnFromAsn(54113), Cdn::kFastly);
  EXPECT_EQ(CdnFromAsn(15169), Cdn::kGoogle);
  EXPECT_EQ(CdnFromAsn(396982), Cdn::kGoogle);
  EXPECT_EQ(CdnFromAsn(32934), Cdn::kMeta);
  EXPECT_EQ(CdnFromAsn(8075), Cdn::kMicrosoft);
  EXPECT_EQ(CdnFromAsn(64512), Cdn::kOthers);  // unlisted
}

TEST(CdnModel, Table1GroundTruth) {
  EXPECT_EQ(GetCdnProfile(Cdn::kCloudflare).domain_count, 247407);
  EXPECT_NEAR(GetCdnProfile(Cdn::kCloudflare).iack_share, 0.999, 1e-9);
  EXPECT_NEAR(GetCdnProfile(Cdn::kAmazon).iack_share, 0.41, 1e-9);
  EXPECT_NEAR(GetCdnProfile(Cdn::kAkamai).iack_share, 0.322, 1e-9);
  EXPECT_NEAR(GetCdnProfile(Cdn::kGoogle).iack_share, 0.115, 1e-9);
  EXPECT_DOUBLE_EQ(GetCdnProfile(Cdn::kFastly).iack_share, 0.0);
  EXPECT_DOUBLE_EQ(GetCdnProfile(Cdn::kMeta).iack_share, 0.0);
  EXPECT_DOUBLE_EQ(GetCdnProfile(Cdn::kMicrosoft).iack_share, 0.0);
}

TEST(CdnModel, AckShDelaySampling) {
  sim::Rng rng(1);
  const auto& cloudflare = GetCdnProfile(Cdn::kCloudflare);
  EXPECT_DOUBLE_EQ(SampleAckShDelayMs(cloudflare, rng, /*coalesced=*/true), 0.0);
  std::vector<double> delays;
  for (int i = 0; i < 5001; ++i) delays.push_back(SampleAckShDelayMs(cloudflare, rng, false));
  EXPECT_NEAR(stats::Median(delays), 3.2, 0.5);  // Fig 8 median
}

TEST(CdnModel, AkamaiSlowerThanCloudflare) {
  sim::Rng rng(2);
  std::vector<double> akamai;
  std::vector<double> cloudflare;
  for (int i = 0; i < 2000; ++i) {
    akamai.push_back(SampleAckShDelayMs(GetCdnProfile(Cdn::kAkamai), rng, false));
    cloudflare.push_back(SampleAckShDelayMs(GetCdnProfile(Cdn::kCloudflare), rng, false));
  }
  EXPECT_GT(stats::Median(akamai), stats::Median(cloudflare) * 3);
}

TEST(CdnModel, ReportedAckDelayVsRttFig10) {
  sim::Rng rng(3);
  const auto& cloudflare = GetCdnProfile(Cdn::kCloudflare);
  int coalesced_exceeds = 0;
  int iack_exceeds = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (SampleReportedAckDelayMs(cloudflare, 10.0, rng, true) > 10.0) ++coalesced_exceeds;
    if (SampleReportedAckDelayMs(cloudflare, 10.0, rng, false) > 10.0) ++iack_exceeds;
  }
  // Fig 10: 99.9 % of coalesced ACK+SH carry an ack delay exceeding the RTT.
  EXPECT_NEAR(static_cast<double>(coalesced_exceeds) / n, 0.999, 0.01);
  EXPECT_NEAR(static_cast<double>(iack_exceeds) / n, 0.90, 0.02);
}

TEST(Population, CountsScaleWithSize) {
  TrancoPopulation population(100000, 1);
  // Cloudflare: ~247407/1M -> ~24740 at 100k; allow 10 % slack.
  const int cloudflare = population.CountQuic(Cdn::kCloudflare);
  EXPECT_NEAR(cloudflare, 24740, 2500);
  const int akamai = population.CountQuic(Cdn::kAkamai);
  EXPECT_NEAR(akamai, 53, 25);
}

TEST(Population, DeterministicForSeed) {
  TrancoPopulation a(10000, 7);
  TrancoPopulation b(10000, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 997) {
    EXPECT_EQ(a.domains()[i].cdn, b.domains()[i].cdn);
    EXPECT_EQ(a.domains()[i].iack_enabled, b.domains()[i].iack_enabled);
  }
}

// Pins every stored field of a 200k population, so a layout change or a
// dropped RNG draw (the AS-number draw is kept though its value is not
// stored) that shifts the stream fails here before it moves any export.
TEST(Population, StreamMatchesRecordedDigest) {
  TrancoPopulation population(200000, 3);
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Domain& domain : population.domains()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &domain.cache_probability, sizeof(bits));
    mix(static_cast<std::uint64_t>(domain.rank));
    mix(static_cast<std::uint64_t>(domain.cdn));
    mix(domain.speaks_quic ? 1 : 0);
    mix(domain.iack_enabled ? 1 : 0);
    mix(bits);
  }
  EXPECT_EQ(hash, 0xebd6e343d2fce3d3ULL);
}

TEST(Population, IackShareMatchesGroundTruth) {
  TrancoPopulation population(200000, 3);
  int cloudflare_total = 0;
  int cloudflare_iack = 0;
  for (const Domain& domain : population.domains()) {
    if (!domain.speaks_quic || domain.cdn != Cdn::kCloudflare) continue;
    ++cloudflare_total;
    if (domain.iack_enabled) ++cloudflare_iack;
  }
  ASSERT_GT(cloudflare_total, 1000);
  EXPECT_NEAR(static_cast<double>(cloudflare_iack) / cloudflare_total, 0.999, 0.005);
}

TEST(Population, PopularDomainsCacheMore) {
  TrancoPopulation population(100000, 5);
  std::vector<double> top;
  std::vector<double> tail;
  for (const Domain& domain : population.domains()) {
    if (!domain.speaks_quic || domain.cdn != Cdn::kCloudflare) continue;
    if (domain.rank <= 10000) {
      top.push_back(domain.cache_probability);
    } else if (domain.rank > 90000) {
      tail.push_back(domain.cache_probability);
    }
  }
  ASSERT_FALSE(top.empty());
  ASSERT_FALSE(tail.empty());
  EXPECT_GT(stats::Mean(top), stats::Mean(tail));
}

TEST(Prober, NonQuicDomainFails) {
  Domain domain;
  domain.rank = 1;
  domain.speaks_quic = false;
  Prober prober(1);
  EXPECT_FALSE(prober.Probe(domain, Vantage::kHamburg, 0).success);
}

TEST(Prober, WfcDomainShowsCoalescedAckSh) {
  Domain domain;
  domain.rank = 10;
  domain.speaks_quic = true;
  domain.cdn = Cdn::kFastly;  // 0 % IACK
  domain.iack_enabled = false;
  Prober prober(1);
  const ProbeResult result = prober.Probe(domain, Vantage::kHamburg, 0);
  EXPECT_TRUE(result.success);
  EXPECT_FALSE(result.iack_observed);
  EXPECT_TRUE(result.coalesced);
}

TEST(Prober, IackDomainObservedAsIackWhenUncached) {
  Domain domain;
  domain.rank = 10;
  domain.speaks_quic = true;
  domain.cdn = Cdn::kCloudflare;
  domain.iack_enabled = true;
  domain.cache_probability = 0.0;
  Prober prober(1);
  const ProbeResult result = prober.Probe(domain, Vantage::kSaoPaulo, 0);
  EXPECT_TRUE(result.iack_observed);
  EXPECT_GT(result.ack_sh_delay_ms, 0.0);
}

TEST(Prober, DeterministicPerDomainVantageDay) {
  Domain domain;
  domain.rank = 42;
  domain.speaks_quic = true;
  domain.cdn = Cdn::kAmazon;
  domain.iack_enabled = true;
  domain.cache_probability = 0.3;
  Prober prober(9);
  const ProbeResult a = prober.Probe(domain, Vantage::kHongKong, 2);
  const ProbeResult b = prober.Probe(domain, Vantage::kHongKong, 2);
  EXPECT_EQ(a.iack_observed, b.iack_observed);
  EXPECT_DOUBLE_EQ(a.rtt_ms, b.rtt_ms);
  EXPECT_DOUBLE_EQ(a.ack_sh_delay_ms, b.ack_sh_delay_ms);
}

TEST(Prober, GoogleMostlyReachableFromSaoPaulo) {
  // Appendix G: Google IACK frontends are near only from São Paulo.
  EXPECT_LT(MedianRttMs(Vantage::kSaoPaulo, Cdn::kGoogle),
            MedianRttMs(Vantage::kHamburg, Cdn::kGoogle));
}

TEST(Prober, ObservedIackStateVariesForAmazon) {
  // Table 1: Amazon's deployment varies up to 18 % across measurements.
  Domain domain;
  domain.rank = 77;
  domain.speaks_quic = true;
  domain.cdn = Cdn::kAmazon;
  domain.iack_enabled = true;
  int flips = 0;
  const int n = 2000;
  for (int day = 0; day < n; ++day) {
    if (!ObservedIackState(domain, static_cast<std::uint64_t>(day), 0, 1)) ++flips;
  }
  EXPECT_GT(flips, n / 50);
  EXPECT_LT(flips, n / 4);
}

TEST(Prober, CloudflareStateAlmostNeverFlips) {
  Domain domain;
  domain.rank = 5;
  domain.speaks_quic = true;
  domain.cdn = Cdn::kCloudflare;
  domain.iack_enabled = true;
  int flips = 0;
  for (int day = 0; day < 2000; ++day) {
    if (!ObservedIackState(domain, static_cast<std::uint64_t>(day), 0, 1)) ++flips;
  }
  EXPECT_LT(flips, 10);
}

}  // namespace
}  // namespace quicer::scan
