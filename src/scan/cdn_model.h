// CDN deployment models for the macroscopic measurements (§4.3, Appendix G).
//
// The paper scans the Tranco Top-1M with QScanner, maps responding IPs to
// CDNs via origin AS (Table 5), and classifies instant-ACK behaviour per
// CDN (Table 1), the ACK->ServerHello delay distribution (Fig 8/14), and
// the reported ACK Delay relative to the RTT (Fig 10). Since the real
// Internet is not available here, these published distributions are encoded
// as the *ground truth* of a synthetic population; the prober then measures
// them back through the same classification pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace quicer::scan {

enum class Cdn : std::uint8_t {
  kAkamai,
  kAmazon,
  kCloudflare,
  kFastly,
  kGoogle,
  kMeta,
  kMicrosoft,
  kOthers,
};

inline constexpr std::array<Cdn, 8> kAllCdns = {
    Cdn::kAkamai, Cdn::kAmazon, Cdn::kCloudflare, Cdn::kFastly,
    Cdn::kGoogle, Cdn::kMeta,   Cdn::kMicrosoft,  Cdn::kOthers,
};

std::string_view Name(Cdn cdn);

/// Ground-truth behaviour of one CDN's QUIC frontends.
struct CdnProfile {
  Cdn cdn;
  std::string_view name;
  /// Origin AS numbers (Table 5). "Others" matches anything unlisted.
  std::vector<std::uint32_t> as_numbers;
  /// Tranco Top-1M domains responding over QUIC (Table 1, "Domains #").
  int domain_count;
  /// Share of those domains with instant ACK enabled (Table 1, %).
  double iack_share;
  /// Maximum observed variation across vantage points/days (Table 1, %).
  double iack_variation;
  /// Median delay between instant ACK and ServerHello [ms] (Fig 8) and the
  /// log-normal sigma of that delay.
  double ack_sh_delay_median_ms;
  double ack_sh_delay_sigma;
  /// Share of IACK-enabled responses arriving as *coalesced* ACK+SH
  /// (certificate already cached on the frontend).
  double coalesce_share;
  /// Fig 10: share of coalesced ACK+SH whose reported ACK Delay exceeds the
  /// RTT, and the same for separate instant ACKs.
  double ack_delay_exceeds_rtt_coalesced;
  double ack_delay_exceeds_rtt_iack;
};

const CdnProfile& GetCdnProfile(Cdn cdn);

/// Maps an origin AS number to a CDN (Table 5); unlisted ASes are "Others".
Cdn CdnFromAsn(std::uint32_t asn);

/// Samples an ACK->ServerHello delay (ms) for a domain of this CDN. A
/// coalesced response returns 0 (plotted as zero delay in Fig 8).
double SampleAckShDelayMs(const CdnProfile& profile, sim::Rng& rng, bool coalesced);

/// Samples the ACK Delay field value [ms] a frontend reports, given the
/// path RTT and whether the response was coalesced (Fig 10 behaviour).
double SampleReportedAckDelayMs(const CdnProfile& profile, double rtt_ms, sim::Rng& rng,
                                bool coalesced);

}  // namespace quicer::scan
