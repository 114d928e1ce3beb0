// Synthetic Tranco-style domain population.
//
// Builds a ranked list of domains, assigns the CDN-hosted subset according
// to the per-CDN counts of Table 1 (scaled to the population size), and
// derives per-domain ground truth: instant-ACK deployment (with the
// day/vantage variation the paper observed, up to 18 % for Amazon), and
// certificate-cache popularity (popular domains are more likely served a
// coalesced ACK+SH — the effect behind Fig 9's discord.com vs tinyurl.com
// difference).
#pragma once

#include <cstdint>
#include <vector>

#include "scan/cdn_model.h"
#include "sim/rng.h"

namespace quicer::scan {

/// One ranked domain. Fields are ordered by alignment so a 1M-domain
/// population takes 16 MB.
struct Domain {
  /// Probability the certificate is cached on the frontend at probe time.
  double cache_probability = 0.0;
  int rank = 0;              // 1-based Tranco rank
  Cdn cdn = Cdn::kOthers;
  bool speaks_quic = false;  // non-CDN, non-QUIC domains fail the probe
  /// Stable per-domain IACK deployment decision.
  bool iack_enabled = false;
};
static_assert(sizeof(Domain) == 16);

class TrancoPopulation {
 public:
  /// Builds a population of `size` ranked domains with `seed` determinism.
  TrancoPopulation(std::size_t size, std::uint64_t seed);

  const std::vector<Domain>& domains() const { return domains_; }

  /// Domains hosted by `cdn` that respond over QUIC.
  int CountQuic(Cdn cdn) const;

  std::size_t size() const { return domains_.size(); }

  /// Scale factor applied to Table 1 counts (population / 1M).
  double scale() const { return scale_; }

 private:
  std::vector<Domain> domains_;
  double scale_ = 1.0;
};

/// Per-day / per-vantage deployment flip: with probability derived from the
/// CDN's observed variation, the measured IACK state differs from the
/// stable ground truth (load balancing across heterogeneous frontends).
bool ObservedIackState(const Domain& domain, std::uint64_t day, std::uint64_t vantage,
                       std::uint64_t seed);

}  // namespace quicer::scan
