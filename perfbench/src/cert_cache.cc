// cert_cache: the §4.3 certificate-caching study grid on
// scan::FrontendCertCache. Unit of work: one OnConnection call.
//
// 54 cluster keys (capacity {2, 4, 65536} x TTL {60, 300, 900} s x
// frontends {64, 4096, 16384} x probe rate {1, 60}/min), each with the six
// domains' organic loads and probe streams of the caching_study bench, over
// 3 simulated hours. One round is one simulated minute on every key; the
// first minutes fill the caches and belong to set-up. A round's arrivals are
// generated before its timer starts, so the timed work is the cache calls.
#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "scan/frontend_cache.h"
#include "sim/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using quicer::scan::FrontendCertCache;
namespace sim = quicer::sim;

struct DomainLoad {
  const char* name;
  int organic_per_minute;
};

constexpr std::array<DomainLoad, 6> kDomains = {{{"discord", 20000},
                                                 {"cloudflare", 600},
                                                 {"tinyurl", 160},
                                                 {"docker", 6},
                                                 {"own-slow-probe", 0},
                                                 {"own-fast-probe", 0}}};
constexpr int kDomainCount = static_cast<int>(kDomains.size());
/// The last domain is probed at 60/min on every key (the paper's fast probe).
constexpr int kFastProbeDomain = kDomainCount - 1;
constexpr int kMinutes = 3 * 60;
/// Minutes simulated during set-up: the base TTL's worth of cache fill.
constexpr int kWarmupMinutes = 5;

struct Cluster {
  FrontendCertCache::Config config;
  int probe_per_min = 1;
  std::uint64_t cache_seed = 0;
  std::uint64_t arrival_seed = 0;
  std::optional<FrontendCertCache> cache;
  sim::Rng arrivals;
  // The current minute's calls, in call order.
  std::vector<sim::Time> times;
  std::vector<std::uint8_t> domains;  // domain index | 0x80 for probes
};

class CertCache final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    // Domain names carry the seed, so every seed hashes different keys.
    const std::string tag = std::to_string(DeriveSeed(seed, 0) % 1000000);
    for (const DomainLoad& d : kDomains) names_.push_back(std::string(d.name) + "-" + tag + ".example");
    std::uint64_t key = 0;
    for (std::int64_t capacity : {2, 4, 65536}) {
      for (std::int64_t ttl_s : {60, 300, 900}) {
        for (int frontends : {64, 4096, 16384}) {
          for (int probe_rate : {1, 60}) {
            Cluster c;
            c.config.capacity = static_cast<std::size_t>(capacity);
            c.config.ttl = sim::Seconds(ttl_s);
            c.config.frontends_per_cluster = frontends;
            c.probe_per_min = probe_rate;
            c.cache_seed = DeriveSeed(seed, 100 + key);
            c.arrival_seed = DeriveSeed(seed, 200 + key);
            ++key;
            clusters_.push_back(std::move(c));
          }
        }
      }
    }
    calls_per_round_ = 0;
    for (const Cluster& c : clusters_) calls_per_round_ += CallsPerMinute(c);
    Rewind();
  }

  std::size_t cycle() const override { return kMinutes - kWarmupMinutes; }

  void Rewind() override {
    for (Cluster& c : clusters_) {
      c.cache.emplace(c.config, sim::Rng(c.cache_seed));
      c.arrivals = sim::Rng(c.arrival_seed);
    }
    for (int minute = 0; minute < kWarmupMinutes; ++minute) {
      Generate(minute);
      for (Cluster& c : clusters_) Replay(c, nullptr);
    }
  }

  void WarmUp() override {}

  void PrepareRound(std::size_t index) override {
    Generate(kWarmupMinutes + static_cast<int>(index));
  }

  RoundOutcome RunRound(std::size_t index) override {
    Digest digest;
    digest.Add(index);
    for (Cluster& c : clusters_) {
      std::array<std::uint32_t, 2 * kDomainCount> hits{};
      {
        Span span("scan.frontend_cache.on_connection_batch");
        Replay(c, &hits);
      }
      for (std::uint32_t h : hits) digest.Add(h);
      digest.Add(c.cache->size());
      if (counting_) entries_max_ = std::max<std::uint64_t>(entries_max_, c.cache->size());
    }
    return {digest.value(), calls_per_round_};
  }

  void SetTraced(bool) override {}

  std::size_t counting_rounds() const override { return 5; }

  void BeginCounting() override {
    counting_ = true;
    entries_max_ = 0;
    start_hits_ = TotalHits();
    start_calls_ = TotalCalls();
  }

  void EndCounting() override {
    counting_ = false;
    counted_hits_ = TotalHits() - start_hits_;
    counted_calls_ = TotalCalls() - start_calls_;
  }

  void Report(const SpanTotals& spans, std::uint64_t rounds,
              std::vector<LayerMetric>& out) override {
    const double traced_calls = static_cast<double>(rounds * calls_per_round_);
    out.push_back({"frontend_cache.ns_per_call",
                   TotalNs(spans, "scan.frontend_cache.on_connection_batch") / traced_calls,
                   "ns"});
    out.push_back({"frontend_cache.calls", static_cast<double>(counted_calls_), "count"});
    out.push_back({"frontend_cache.hit_ratio",
                   static_cast<double>(counted_hits_) / static_cast<double>(counted_calls_),
                   "ratio"});
    out.push_back({"frontend_cache.entries_max", static_cast<double>(entries_max_), "count"});
  }

 private:
  static std::uint64_t CallsPerMinute(const Cluster& c) {
    std::uint64_t calls = 0;
    for (int d = 0; d < kDomainCount; ++d) {
      calls += static_cast<std::uint64_t>(kDomains[static_cast<std::size_t>(d)].organic_per_minute);
      calls += static_cast<std::uint64_t>(d == kFastProbeDomain ? 60 : c.probe_per_min);
    }
    return calls;
  }

  /// Draws every key's calls of `minute`: per domain its organic arrivals
  /// at uniform seconds, then its probe stream one per second.
  void Generate(int minute) {
    const sim::Time base = sim::Seconds(minute * 60);
    for (Cluster& c : clusters_) {
      c.times.clear();
      c.domains.clear();
      for (int d = 0; d < kDomainCount; ++d) {
        for (int a = 0; a < kDomains[static_cast<std::size_t>(d)].organic_per_minute; ++a) {
          c.times.push_back(base + c.arrivals.UniformInt(0, 59) * sim::kSecond);
          c.domains.push_back(static_cast<std::uint8_t>(d));
        }
        const int probes = d == kFastProbeDomain ? 60 : c.probe_per_min;
        for (int p = 0; p < probes; ++p) {
          c.times.push_back(base + p * sim::kSecond);
          c.domains.push_back(static_cast<std::uint8_t>(d | 0x80));
        }
      }
    }
  }

  /// Feeds the generated calls to the cache; counts hits per (domain,
  /// organic|probe) when `hits` is given.
  void Replay(Cluster& c, std::array<std::uint32_t, 2 * kDomainCount>* hits) {
    FrontendCertCache& cache = *c.cache;
    const std::size_t n = c.times.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t d = c.domains[i];
      const bool hit = cache.OnConnection(names_[d & 0x7f], c.times[i]);
      if (hits != nullptr && hit) ++(*hits)[static_cast<std::size_t>((d & 0x7f) * 2 + (d >> 7))];
    }
  }

  std::uint64_t TotalHits() const {
    std::uint64_t total = 0;
    for (const Cluster& c : clusters_) total += c.cache->hits();
    return total;
  }
  std::uint64_t TotalCalls() const {
    std::uint64_t total = 0;
    for (const Cluster& c : clusters_) total += c.cache->hits() + c.cache->misses();
    return total;
  }

  std::vector<std::string> names_;
  std::vector<Cluster> clusters_;
  std::uint64_t calls_per_round_ = 0;
  bool counting_ = false;
  std::uint64_t entries_max_ = 0;
  std::uint64_t start_hits_ = 0;
  std::uint64_t start_calls_ = 0;
  std::uint64_t counted_hits_ = 0;
  std::uint64_t counted_calls_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCertCache() { return std::make_unique<CertCache>(); }

}  // namespace perfbench
