// google-benchmark micro suite: cost of the engine's hot paths — full
// handshakes, 10 KB exchanges, the RTT estimator, PTO computation, ACK-range
// bookkeeping, the event queue (§4.1's "QUIC stack delays" analogue for
// this implementation) and the scan layer's frontend certificate cache.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/pto_model.h"
#include "quic/ack_manager.h"
#include "recovery/pto.h"
#include "recovery/rtt_estimator.h"
#include "scan/frontend_cache.h"
#include "sim/event_queue.h"

namespace {

using namespace quicer;

void BM_FullHandshake10KB(benchmark::State& state) {
  const bool iack = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::ExperimentConfig config;
    config.client = clients::ClientImpl::kQuicGo;
    config.behavior = iack ? quic::ServerBehavior::kInstantAck
                           : quic::ServerBehavior::kWaitForCertificate;
    config.rtt = sim::Millis(9);
    config.response_body_bytes = 10 * 1024;
    config.seed = seed++;
    benchmark::DoNotOptimize(core::RunExperiment(config));
  }
}
BENCHMARK(BM_FullHandshake10KB)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_AckHeavyTransfer(benchmark::State& state) {
  // A 1 MB download generates hundreds of ACK round trips plus MAX_DATA
  // updates — the ledger/ack-manager steady state the arena and pools exist
  // for (the handshake benches above barely touch it).
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::ExperimentConfig config;
    config.client = clients::ClientImpl::kQuicGo;
    config.rtt = sim::Millis(9);
    config.response_body_bytes = 1024 * 1024;
    config.seed = seed++;
    benchmark::DoNotOptimize(core::RunExperiment(config));
  }
}
BENCHMARK(BM_AckHeavyTransfer)->Unit(benchmark::kMicrosecond);

void BM_RttEstimatorSample(benchmark::State& state) {
  recovery::RttEstimator rtt;
  sim::Duration sample = sim::Millis(9);
  for (auto _ : state) {
    rtt.AddSample(sample, sim::Millis(1));
    benchmark::DoNotOptimize(rtt.smoothed());
    sample = sample == sim::Millis(9) ? sim::Millis(11) : sim::Millis(9);
  }
}
BENCHMARK(BM_RttEstimatorSample);

void BM_PtoComputation(benchmark::State& state) {
  recovery::RttEstimator rtt;
  rtt.AddSample(sim::Millis(9), 0);
  recovery::PtoConfig config;
  int backoff = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(recovery::PtoPeriodWithBackoff(
        rtt, config, quic::PacketNumberSpace::kHandshake, false, backoff));
    backoff = (backoff + 1) % 4;
  }
}
BENCHMARK(BM_PtoComputation);

void BM_AckManagerReceiveAndBuild(benchmark::State& state) {
  quic::AckManager manager(quic::PacketNumberSpace::kAppData, quic::AckPolicy{});
  std::uint64_t pn = 0;
  for (auto _ : state) {
    manager.OnPacketReceived(pn, true, static_cast<sim::Time>(pn));
    ++pn;
    if (pn % 2 == 0) benchmark::DoNotOptimize(manager.BuildAck(static_cast<sim::Time>(pn)));
  }
}
BENCHMARK(BM_AckManagerReceiveAndBuild);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  sim::EventQueue queue;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) queue.Schedule(i, [] {});
    queue.RunUntilIdle();
  }
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_PtoEvolutionModel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputePtoEvolution(sim::Millis(9), sim::Millis(4), 50));
  }
}
BENCHMARK(BM_PtoEvolutionModel);

void BM_FrontendCacheOnConnection(benchmark::State& state) {
  // Arg 0: hit-heavy — six domains in runs of 64 calls on a warm 4096-machine
  // cluster, nearly every call a hit. Arg 1: LRU cycling — six domains in
  // turn through a capacity-2 cache of 64 machines, every call a miss that
  // evicts the tail.
  const bool cycling = state.range(0) != 0;
  scan::FrontendCertCache::Config config;
  config.capacity = cycling ? 2 : 1024;
  config.ttl = sim::Seconds(300);
  config.frontends_per_cluster = cycling ? 64 : 4096;
  scan::FrontendCertCache cache(config, sim::Rng(7));
  std::vector<std::string> domains;
  for (int d = 0; d < 6; ++d) {
    domains.push_back("frontend-domain-" + std::to_string(d) + ".example");
  }
  const std::size_t run = cycling ? 1 : 64;
  sim::Time now = 0;
  std::size_t call = 0;
  auto next = [&] {
    now += sim::Millis(1);
    return cache.OnConnection(domains[(call++ / run) % domains.size()], now);
  };
  if (!cycling) {
    for (int i = 0; i < 300000; ++i) next();  // touch (almost) every machine
  }
  for (auto _ : state) benchmark::DoNotOptimize(next());
}
BENCHMARK(BM_FrontendCacheOnConnection)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
