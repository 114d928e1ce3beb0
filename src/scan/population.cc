#include "scan/population.h"

#include <algorithm>
#include <cmath>

#include "scan/prober.h"

namespace quicer::scan {

TrancoPopulation::TrancoPopulation(std::size_t size, std::uint64_t seed) {
  sim::Rng rng(seed);
  domains_.resize(size);
  scale_ = static_cast<double>(size) / 1'000'000.0;

  // Build the pool of CDN slots scaled from Table 1, then deal them onto
  // ranks; popular ranks preferentially land on the big CDNs, coarsely
  // matching reality (Cloudflare dominates the long tail too).
  std::vector<Cdn> slots;
  for (Cdn cdn : kAllCdns) {
    const CdnProfile& profile = GetCdnProfile(cdn);
    const int count = std::max(1, static_cast<int>(std::lround(profile.domain_count * scale_)));
    for (int i = 0; i < count; ++i) slots.push_back(cdn);
  }
  // Deterministic shuffle.
  for (std::size_t i = slots.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(i - 1)));
    std::swap(slots[i - 1], slots[j]);
  }

  std::size_t slot = 0;
  for (std::size_t i = 0; i < size; ++i) {
    Domain& domain = domains_[i];
    domain.rank = static_cast<int>(i) + 1;
    // Spread QUIC-speaking domains uniformly over the ranked list.
    const bool gets_cdn = slot < slots.size() &&
                          rng.Bernoulli(static_cast<double>(slots.size()) /
                                        static_cast<double>(size));
    if (!gets_cdn) continue;

    const CdnProfile& profile = GetCdnProfile(slots[slot++]);
    domain.speaks_quic = true;
    domain.cdn = profile.cdn;
    // Draw the origin AS (Table 5) but do not store it: nothing reads it,
    // and dropping the draw would shift every later draw and so every scan
    // export.
    rng.UniformInt(0, profile.as_numbers.empty()
                          ? 1023
                          : static_cast<int>(profile.as_numbers.size()) - 1);
    domain.iack_enabled = rng.Bernoulli(profile.iack_share);
    // Popularity-dependent certificate caching: only genuinely hot domains
    // (the discord.com case: 91.9 % coalesced) keep their certificate on the
    // frontend; a cold 1M scan almost always sees the fetch path, which is
    // why the paper still measures 99.9 % separate IACKs for Cloudflare.
    const double hot = std::exp(-static_cast<double>(domain.rank) /
                                (0.0005 * static_cast<double>(size) + 1.0));
    domain.cache_probability =
        std::clamp(profile.coalesce_share * 3.5 * hot + 0.001, 0.0, 0.95);
  }
  // Assign any remaining slots to the tail (rounding slack).
  for (std::size_t i = 0; i < size && slot < slots.size(); ++i) {
    if (domains_[i].speaks_quic) continue;
    Domain& domain = domains_[i];
    const CdnProfile& profile = GetCdnProfile(slots[slot++]);
    domain.speaks_quic = true;
    domain.cdn = profile.cdn;
    domain.iack_enabled = rng.Bernoulli(profile.iack_share);
    domain.cache_probability = 0.001;
  }
}

int TrancoPopulation::CountQuic(Cdn cdn) const {
  int count = 0;
  for (const Domain& domain : domains_) {
    if (domain.speaks_quic && domain.cdn == cdn) ++count;
  }
  return count;
}

bool ObservedIackState(const Domain& domain, std::uint64_t day, std::uint64_t vantage,
                       std::uint64_t seed) {
  const CdnProfile& profile = GetCdnProfile(domain.cdn);

  // Appendix G: Google's IACK-enabled frontends are only significantly
  // reachable from São Paulo — which is why Google's max variation (11.5 %)
  // equals its whole deployment share.
  if (domain.cdn == Cdn::kGoogle && domain.iack_enabled &&
      vantage != static_cast<std::uint64_t>(Vantage::kSaoPaulo)) {
    sim::Rng far(seed ^ (static_cast<std::uint64_t>(domain.rank) * 0xd6e8feb86659fd93ULL) ^
                 (day * 0x2545f4914f6cdd1dULL) ^ vantage);
    if (far.Bernoulli(0.9)) return false;
  }

  if (profile.iack_variation <= 0.0) return domain.iack_enabled;
  // Google's published variation (11.5 % = its whole share) is entirely the
  // vantage effect handled above; no additional per-measurement churn.
  if (domain.cdn == Cdn::kGoogle) return domain.iack_enabled;

  // The observed variation is *per measurement*, not per domain: anycast
  // routes whole frontend clusters differently by day and vantage (Amazon:
  // up to 18 percentage points across measurements). Draw one downward bias
  // per (cdn, day, vantage) — the stable ground truth is the maximum, as in
  // Table 1's "enabled (max.)" column — and flip a correlated share of the
  // enabled domains off, scaled so the published variation is reachable.
  if (!domain.iack_enabled) return false;
  sim::Rng measurement(seed ^ (static_cast<std::uint64_t>(domain.cdn) * 0x9e3779b97f4a7c15ULL) ^
                       (day * 0xb5297a4d3a2d9fefULL) ^ (vantage * 0x68e31da4bb794b45ULL));
  const double bias = measurement.Uniform(0.0, 1.0);
  const double flip_probability =
      std::min(1.0, bias * profile.iack_variation / std::max(profile.iack_share, 0.01));

  sim::Rng domain_rng(seed ^ (static_cast<std::uint64_t>(domain.rank) * 0x94d049bb133111ebULL) ^
                      (day * 0xbf58476d1ce4e5b9ULL) ^ (vantage * 0x68e31da4bb794b45ULL));
  return !domain_rng.Bernoulli(flip_probability);
}

}  // namespace quicer::scan
