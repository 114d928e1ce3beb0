// Steady-state allocation regression test for whole repeated repetitions.
//
// The engine's hot paths do not allocate: the event queue recycles slots,
// every wire object a run sends (packet and frame lists, ACK ranges, ledger
// frame spans) lives on the run arena, and RunContext resets the link and
// both endpoints in place instead of re-constructing them.
// The end-to-end promise is that once a context has warmed up, an entire
// repetition — schedule, handshake, certificate fetch, response transfer,
// reset — performs no heap allocation at all. This binary replaces global
// operator new/delete with counting versions to pin that down; any
// regression (a container reconstructed instead of reset, a closure
// outgrowing its inline buffer, a per-run string) shows up as a nonzero
// count.
//
// This file must stay its own test binary: the global replacement operators
// affect every allocation in the process.

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/loss_scenarios.h"
#include "obs/telemetry.h"

namespace {

std::size_t g_alloc_count = 0;
bool g_counting = false;

struct AllocationScope {
  AllocationScope() {
    g_alloc_count = 0;
    g_counting = true;
  }
  ~AllocationScope() { g_counting = false; }
  std::size_t count() const { return g_alloc_count; }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_alloc_count;
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace quicer::core {
namespace {

ExperimentConfig QuietConfig(std::uint64_t seed) {
  ExperimentConfig config;
  config.client = clients::ClientImpl::kQuicGo;
  config.rtt = sim::Millis(9);
  config.response_body_bytes = 10 * 1024;
  config.seed = seed;
  // The one per-run allocation the engine deliberately keeps is the metrics
  // extract: ExperimentResult steals the client trace's qlog update vector,
  // so the trace must re-reserve it next run. Suppress metrics logging (the
  // early-return happens before any reserve) so the test isolates the
  // engine itself; packet capture is off for the same reason.
  quic::ConnectionConfig client = clients::MakeClientConfig(config.client, config.http);
  client.trace.metrics_exposure = 0.0;
  client.trace.capture_packets = false;
  config.client_config_override = client;
  return config;
}

TEST(RunContextAlloc, RepeatedRepetitionsAreAllocationFree) {
  RunContext context;

  // Warm-up: grow every container (queue slots, build scratch, ledger and
  // ack buffers, arena chunks, trace capacity) to the working set of each
  // seed.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ExperimentResult result = context.Run(QuietConfig(seed));
    ASSERT_TRUE(result.completed);
  }

  // Steady state: replay the same seeds. Runs are deterministic per seed, so
  // the warmed working set covers them exactly — any allocation is churn.
  AllocationScope scope;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      context.Run(QuietConfig(seed));
    }
  }
  EXPECT_EQ(scope.count(), 0u);
}

TEST(RunContextAlloc, LossyHandshakeWithPtoIsAllocationFree) {
  // The Fig 6 loss scenario: the tail of the first server flight is lost,
  // so PTOs fire and send probes that bundle outstanding data, and loss
  // detection declares packets lost and re-queues their frames. Probes,
  // retransmissions and the per-PTO trace note must stay allocation-free
  // once the context is warm.
  // Built up front: a loss pattern is a std::set, so making one allocates.
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ExperimentConfig config = QuietConfig(seed);
    config.loss = FirstServerFlightTailLoss(config.behavior, config.certificate_bytes,
                                            config.http);
    configs.push_back(config);
  }
  RunContext context;
  int ptos = 0;
  int retransmitted_frames = 0;
  for (const ExperimentConfig& config : configs) {
    ExperimentResult result = context.Run(config);
    ASSERT_TRUE(result.completed);
    ptos += result.client.pto_expirations + result.server.pto_expirations;
    retransmitted_frames += result.client.retransmitted_frames + result.server.retransmitted_frames;
  }
  // The scenario really exercises the recovery paths under test.
  EXPECT_GT(ptos, 0);
  EXPECT_GT(retransmitted_frames, 0);

  AllocationScope scope;
  for (int round = 0; round < 3; ++round) {
    for (const ExperimentConfig& config : configs) context.Run(config);
  }
  EXPECT_EQ(scope.count(), 0u);
}

TEST(RunContextAlloc, BulkTransferOverQueuedLossyLinkIsAllocationFree) {
  // The per-datagram steady state of a bulk transfer: a 1 MB body over the
  // ge-asym-queued link of examples/netem_gilbert_asym.json (bursty
  // Gilbert-Elliott loss both ways, 2/20 Mbit/s asymmetric path, an 8-packet
  // tail-drop FIFO downstream). Hundreds of datagrams are in flight, ACKs
  // carry many ranges, the netem FIFO cycles, and most transfers end in an
  // idle-timeout close — none of it may allocate once the context is warm.
  netem::LinkModel link;
  for (int dir : {netem::kUp, netem::kDown}) {
    link.loss[dir].kind = netem::LossModel::Kind::kGilbertElliott;
    link.loss[dir].p = 0.05;
    link.loss[dir].r = 0.25;
  }
  link.queue[netem::kDown].kind = netem::QueueModel::Kind::kFifo;
  link.queue[netem::kDown].depth_pkts = 8;
  link.path[netem::kUp].bandwidth_bps = 2e6;
  link.path[netem::kDown].bandwidth_bps = 20e6;
  link.path[netem::kUp].one_way_delay = sim::Millis(25);
  link.path[netem::kDown].one_way_delay = sim::Millis(15);

  std::vector<ExperimentConfig> configs;
  for (quic::ServerBehavior behavior :
       {quic::ServerBehavior::kWaitForCertificate, quic::ServerBehavior::kInstantAck}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ExperimentConfig config = QuietConfig(seed);
      config.behavior = behavior;
      config.response_body_bytes = 1 << 20;
      config.link = link;
      configs.push_back(config);
    }
  }
  RunContext context;
  std::uint64_t datagrams = 0;
  for (const ExperimentConfig& config : configs) {
    const ExperimentResult result = context.Run(config);
    datagrams += result.server.datagrams_sent + result.client.datagrams_sent;
  }
  // Bulk traffic really flowed (hundreds of datagrams per transfer).
  EXPECT_GT(datagrams, 100u * configs.size());

  AllocationScope scope;
  for (int round = 0; round < 2; ++round) {
    for (const ExperimentConfig& config : configs) context.Run(config);
  }
  EXPECT_EQ(scope.count(), 0u) << "allocations per transfer: "
                               << static_cast<double>(scope.count()) / (2.0 * configs.size());
}

TEST(RunContextAlloc, ReusedContextMatchesFreshContext) {
  // Reset-in-place must be invisible: a context that just ran seed 3 and is
  // reset to seed 5 produces the byte-for-byte metrics of a cold context
  // running seed 5.
  RunContext warm;
  warm.Run(QuietConfig(3));
  const ExperimentResult reused = warm.Run(QuietConfig(5));

  RunContext cold;
  const ExperimentResult fresh = cold.Run(QuietConfig(5));

  EXPECT_EQ(reused.completed, fresh.completed);
  EXPECT_EQ(reused.end_time, fresh.end_time);
  EXPECT_EQ(reused.client.first_response_byte, fresh.client.first_response_byte);
  EXPECT_EQ(reused.client.handshake_confirmed, fresh.client.handshake_confirmed);
  EXPECT_EQ(reused.client.datagrams_sent, fresh.client.datagrams_sent);
  EXPECT_EQ(reused.client.rtt_samples, fresh.client.rtt_samples);
  EXPECT_EQ(reused.server.datagrams_sent, fresh.server.datagrams_sent);
  EXPECT_EQ(reused.realized_cert_delay, fresh.realized_cert_delay);
  EXPECT_EQ(reused.client_to_server.datagrams_delivered,
            fresh.client_to_server.datagrams_delivered);
}

TEST(RunContextAlloc, TelemetryCountingStaysAllocationFree) {
  // EnableProcess is sticky for the rest of the process, so this test is
  // declared last. With telemetry live the hot paths count events, arena
  // placements, netem queue depths and loss-detection activity — each count a
  // branch plus an array increment on a registry created here, outside the
  // counting scope. A steady-state repetition must stay allocation-free
  // with the instrumentation armed.
  obs::EnableProcess();
  obs::EnsureThisThread();

  RunContext context;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ExperimentResult result = context.Run(QuietConfig(seed));
    ASSERT_TRUE(result.completed);
  }

  AllocationScope scope;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      context.Run(QuietConfig(seed));
    }
  }
  EXPECT_EQ(scope.count(), 0u);

  // And the counters actually moved — the zero-alloc loop above was
  // measuring instrumented code, not a disabled path.
  EXPECT_GT(obs::Snapshot()[obs::kEventsRun], 0u);
}

}  // namespace
}  // namespace quicer::core
