// Macroscopic scan: probe a synthetic Tranco population from one vantage
// point, classify instant-ACK deployment per CDN, and show the ACK->SH
// delay distribution — a miniature of the paper's §4.3 measurement.
//
//   ./macro_scan [population_size]   (default 20000)
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/report.h"
#include "scan/population.h"
#include "scan/prober.h"
#include "stats/stats.h"

using namespace quicer;

int main(int argc, char** argv) {
  const std::size_t size = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20000;
  std::printf("Scanning a %zu-domain Tranco-style population from Sao Paulo...\n", size);

  scan::TrancoPopulation population(size, 1);
  scan::Prober prober(3);

  std::map<scan::Cdn, int> total;
  std::map<scan::Cdn, int> iack;
  std::vector<double> cloudflare_delays;

  for (const scan::Domain& domain : population.domains()) {
    if (!domain.speaks_quic) continue;
    const scan::ProbeResult result = prober.Probe(domain, scan::Vantage::kSaoPaulo, 0);
    if (!result.success) continue;
    ++total[domain.cdn];
    if (result.iack_observed) {
      ++iack[domain.cdn];
      if (domain.cdn == scan::Cdn::kCloudflare) {
        cloudflare_delays.push_back(result.ack_sh_delay_ms);
      }
    }
  }

  std::printf("\n%12s  %8s  %10s\n", "CDN", "probed", "IACK [%]");
  for (scan::Cdn cdn : scan::kAllCdns) {
    if (total[cdn] == 0) continue;
    std::printf("%12s  %8d  %10.1f\n", std::string(scan::Name(cdn)).c_str(), total[cdn],
                100.0 * iack[cdn] / total[cdn]);
  }

  if (!cloudflare_delays.empty()) {
    std::printf("\nCloudflare ACK->ServerHello delay (median %.1f ms, '|'):\n",
                stats::Median(cloudflare_delays));
    std::printf("  0 ms [%s] 12 ms\n",
                core::RenderScatter(cloudflare_delays, 0.0, 12.0, 48).c_str());
  }
  return 0;
}
