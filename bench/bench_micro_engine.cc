// google-benchmark micro suite: cost of the engine's hot paths — full
// handshakes, 10 KB exchanges, the RTT estimator, PTO computation, ACK-range
// bookkeeping, the sent-packet ledger's ACK path, the event queue (§4.1's
// "QUIC stack delays" analogue for this implementation), the scan layer's
// frontend certificate cache and its RNG draw, the JSON number codec and the
// sweep loop's per-repetition overhead.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/json.h"
#include "core/pto_model.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "quic/ack_manager.h"
#include "recovery/pto.h"
#include "recovery/rtt_estimator.h"
#include "recovery/sent_packets.h"
#include "scan/frontend_cache.h"
#include "scan/population.h"
#include "scan/sweep_runners.h"
#include "sim/arena.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

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
  // updates — the ledger/ack-manager steady state and about a thousand
  // datagrams placed on the run arena (the handshake benches above barely
  // touch it).
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
  // Built ACKs place their ranges on the arena, which a run resets between
  // repetitions; here it is reset every kResetEvery packets so the bench
  // measures placement into warm chunks, not unbounded growth.
  constexpr std::uint64_t kResetEvery = 4096;
  quic::AckManager manager(quic::PacketNumberSpace::kAppData, quic::AckPolicy{});
  sim::Arena arena;
  std::uint64_t pn = 0;
  for (auto _ : state) {
    manager.OnPacketReceived(pn, true, static_cast<sim::Time>(pn));
    ++pn;
    if (pn % 2 == 0) {
      benchmark::DoNotOptimize(manager.BuildAck(static_cast<sim::Time>(pn), arena));
    }
    if (pn % kResetEvery == 0) arena.Reset();
  }
}
BENCHMARK(BM_AckManagerReceiveAndBuild);

void BM_SentPacketLedgerAck(benchmark::State& state) {
  // Steady state with N packets in flight: each iteration sends two packets
  // and receives an ACK (one canonical range) of the two oldest, so N stays
  // constant. Reported per iteration: two sends plus one ACK.
  const auto in_flight = static_cast<std::uint64_t>(state.range(0));
  recovery::SentPacketLedger ledger;
  recovery::AckResult result;
  std::uint64_t next_pn = 0;
  sim::Time now = 0;
  const auto send = [&] {
    recovery::SentPacket packet;
    packet.packet_number = next_pn++;
    packet.sent_time = now;
    packet.bytes = 1200;
    packet.ack_eliciting = true;
    packet.in_flight = true;
    ledger.OnPacketSent(packet);
  };
  for (std::uint64_t i = 0; i < in_flight; ++i) send();
  quic::PnRange range;
  quic::AckFrame ack;
  ack.ranges = {&range, 1};
  std::uint64_t oldest = 0;
  for (auto _ : state) {
    now += 10;
    send();
    send();
    ack.largest_acked = oldest + 1;
    range = quic::PnRange{oldest, oldest + 1};
    ledger.OnAckReceivedInto(ack, now, result);
    oldest += 2;
    benchmark::DoNotOptimize(result.newly_acked.data());
  }
}
BENCHMARK(BM_SentPacketLedgerAck)->Arg(4)->Arg(80)->Arg(512);

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

void BM_RngUniformInt(benchmark::State& state) {
  // One draw in [0, range), range read at run time as the frontend cache
  // reads its cluster size. Arg 4096: a power-of-two range (masked); arg
  // 60: any other range (divided), as the arrival draws of the caching
  // study use.
  const std::int64_t hi = state.range(0) - 1;
  sim::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.UniformInt(0, hi));
}
BENCHMARK(BM_RngUniformInt)->Arg(4096)->Arg(60);

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

void BM_JsonNumberAppend(benchmark::State& state) {
  // 4096 seeded doubles, half of them finite random bit patterns (mostly
  // 17-digit outputs) and half millisecond-scale delays rounded to 1 µs
  // (short outputs), written into one string per pass; reported per value.
  constexpr std::size_t kValues = 4096;
  std::mt19937_64 rng(42);
  std::vector<double> values;
  values.reserve(kValues);
  while (values.size() < kValues) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    values.push_back(v);
    values.push_back(static_cast<double>(rng() % 200000000) / 1000.0);
  }
  std::string out;
  while (state.KeepRunningBatch(kValues)) {
    out.clear();
    for (double v : values) core::AppendJsonNumber(out, v);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JsonNumberAppend);

void BM_RunSweepCheapRunner(benchmark::State& state) {
  // 4 points × 16384 repetitions of a constant runner at parallelism 1:
  // the sweep loop's own cost per repetition (scheduling, slot writes and
  // the in-order fold), reported per repetition.
  constexpr std::size_t kPoints = 4;
  constexpr std::size_t kRepetitions = 16384;
  core::SweepSpec spec;
  spec.name = "micro_cheap_runner";
  spec.axes.extras = {{"k", {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}}};
  spec.repetitions = static_cast<int>(kRepetitions);
  spec.metrics = {{"v", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const core::SweepRunContext&) { return std::vector<double>{1.0}; };
  while (state.KeepRunningBatch(kPoints * kRepetitions)) {
    benchmark::DoNotOptimize(core::RunSweep(spec, /*max_parallelism=*/1));
  }
}
BENCHMARK(BM_RunSweepCheapRunner);

void BM_ProbeRunnerRepetition(benchmark::State& state) {
  // scan::ProbeRunner + MatchPointCdn over the five Fig 8 CDN points ×
  // 16384 repetitions of a fixed population at parallelism 1: a scan
  // repetition through the sweep engine, filtered skips (most of them) and
  // probes alike, reported per repetition.
  constexpr std::size_t kRepetitions = 16384;
  const std::vector<scan::Cdn> cdns = {scan::Cdn::kAkamai, scan::Cdn::kAmazon,
                                       scan::Cdn::kCloudflare, scan::Cdn::kGoogle,
                                       scan::Cdn::kOthers};
  core::SweepSpec spec;
  spec.name = "micro_probe_runner";
  spec.axes.extras = {scan::CdnAxis(cdns)};
  spec.repetitions = static_cast<int>(kRepetitions);
  spec.metrics = {{"ack_sh_delay_ms", core::MetricMode::kTrace, /*exclude_negative=*/false,
                   nullptr}};
  spec.runner = scan::ProbeRunner(
      std::make_shared<const scan::TrancoPopulation>(kRepetitions, 3), /*prober_seed=*/11,
      scan::MatchPointCdn(),
      {[](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& r) {
        if (!r.success || (!r.iack_observed && !r.coalesced)) return core::NoSample();
        return r.ack_sh_delay_ms;
      }});
  while (state.KeepRunningBatch(cdns.size() * kRepetitions)) {
    benchmark::DoNotOptimize(core::RunSweep(spec, /*max_parallelism=*/1));
  }
}
BENCHMARK(BM_ProbeRunnerRepetition);

void BM_TrancoPopulationBuild(benchmark::State& state) {
  // scan::TrancoPopulation over 100,000 ranks: the CDN slot pool, its
  // shuffle and the per-domain ground-truth draws, reported per build.
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan::TrancoPopulation(100'000, 3).domains().data());
  }
}
BENCHMARK(BM_TrancoPopulationBuild)->Unit(benchmark::kMicrosecond);

/// One shard of the §4.3 scan as the sharded path writes it: the Table 1
/// sweep (8 CDN points, about 7,200 0/1 iack samples in summary mode) and
/// the Fig 8 sweep (5 CDN points, about 7,100 16-17-digit ACK->SH delays in
/// trace mode) over 25,000 ranks of one (day, vantage), run by
/// scan::ProbeRunner once.
const std::vector<core::SweepResult>& ScanShardResults() {
  static const std::vector<core::SweepResult> results = [] {
    constexpr std::size_t kRanks = 25'000;
    const auto population = std::make_shared<const scan::TrancoPopulation>(kRanks, 5);
    const std::vector<scan::Cdn> fig08_cdns = {scan::Cdn::kAkamai, scan::Cdn::kAmazon,
                                               scan::Cdn::kCloudflare, scan::Cdn::kGoogle,
                                               scan::Cdn::kOthers};
    core::SweepSpec table1;
    table1.name = "table1";
    table1.axes.extras = {scan::DayAxis(1), scan::VantageAxis({scan::Vantage::kHamburg}),
                          scan::CdnAxis({scan::kAllCdns.begin(), scan::kAllCdns.end()})};
    table1.metrics = {{"iack_observed", core::MetricMode::kSummary, false, nullptr}};
    table1.runner = scan::ProbeRunner(
        population, /*prober_seed=*/11, scan::MatchPointCdn(),
        {[](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& r) {
          if (!r.success) return core::NoSample();
          return r.iack_observed ? 1.0 : 0.0;
        }});
    core::SweepSpec fig08 = table1;
    fig08.name = "fig08";
    fig08.axes.extras.back() = scan::CdnAxis(fig08_cdns);
    fig08.metrics = {{"ack_sh_delay_ms", core::MetricMode::kTrace, false, nullptr}};
    fig08.runner = scan::ProbeRunner(
        population, /*prober_seed=*/11, scan::MatchPointCdn(),
        {[](const core::SweepPoint&, const scan::Domain&, const scan::ProbeResult& r) {
          if (!r.success || (!r.iack_observed && !r.coalesced)) return core::NoSample();
          return r.ack_sh_delay_ms;
        }});
    std::vector<core::SweepResult> out;
    for (core::SweepSpec* spec : {&table1, &fig08}) {
      spec->repetitions = static_cast<int>(kRanks);
      spec->reservoir_capacity = kRanks;
      out.push_back(core::RunSweep(*spec, /*max_parallelism=*/1));
    }
    return out;
  }();
  return results;
}

void BM_SweepPartialSerialize(benchmark::State& state) {
  // SweepPartialJson over one scan shard's two results, per shard.
  const std::vector<core::SweepResult>& results = ScanShardResults();
  for (auto _ : state) {
    for (const core::SweepResult& result : results) {
      benchmark::DoNotOptimize(core::SweepPartialJson(result));
    }
  }
}
BENCHMARK(BM_SweepPartialSerialize)->Unit(benchmark::kMicrosecond);

void BM_SweepPartialParse(benchmark::State& state) {
  // ParseSweepPartialJson over one scan shard's two documents, per shard.
  std::vector<std::string> documents;
  for (const core::SweepResult& result : ScanShardResults()) {
    documents.push_back(core::SweepPartialJson(result));
  }
  for (auto _ : state) {
    for (const std::string& document : documents) {
      benchmark::DoNotOptimize(core::ParseSweepPartialJson(document));
    }
  }
}
BENCHMARK(BM_SweepPartialParse)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
