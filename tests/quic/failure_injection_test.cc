// Failure injection: the engine must stay live (complete or cleanly abort)
// under hostile conditions — random loss in both directions, extreme delays,
// pathological configurations.
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace quicer::core {
namespace {

ExperimentConfig Robust(clients::ClientImpl impl = clients::ClientImpl::kQuicGo) {
  ExperimentConfig config;
  config.client = impl;
  config.rtt = sim::Millis(20);
  config.response_body_bytes = 10 * 1024;
  config.time_limit = sim::Seconds(120);
  return config;
}

TEST(FailureInjection, RandomLossBothDirectionsStillCompletes) {
  for (double rate : {0.05, 0.1, 0.2}) {
    int completed = 0;
    const int runs = 10;
    for (int i = 0; i < runs; ++i) {
      ExperimentConfig config = Robust();
      config.behavior =
          i % 2 == 0 ? quic::ServerBehavior::kInstantAck : quic::ServerBehavior::kWaitForCertificate;
      config.seed = 100 + static_cast<std::uint64_t>(i);
      config.link.loss[netem::kUp] = {netem::LossModel::Kind::kBernoulli, rate};
      config.link.loss[netem::kDown] = {netem::LossModel::Kind::kBernoulli, rate};
      const ExperimentResult result = RunExperiment(config);
      if (result.completed) ++completed;
    }
    EXPECT_GE(completed, runs - 1) << "loss rate " << rate;
  }
}

TEST(FailureInjection, EveryClientSurvivesTenPercentLoss) {
  for (clients::ClientImpl impl : clients::kAllClients) {
    ExperimentConfig config = Robust(impl);
    config.behavior = quic::ServerBehavior::kInstantAck;
    config.link.loss[netem::kDown] = {netem::LossModel::Kind::kBernoulli, 0.1};
    config.seed = 7;
    const ExperimentResult result = RunExperiment(config);
    // quiche may abort via its CID quirk under retransmissions — a clean
    // abort is acceptable; a hang is not.
    EXPECT_TRUE(result.completed || result.client.aborted) << clients::Name(impl);
  }
}

TEST(FailureInjection, ExtremeCertStoreDelay) {
  ExperimentConfig config = Robust();
  config.behavior = quic::ServerBehavior::kInstantAck;
  config.cert_fetch_delay = sim::Seconds(2);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed);
  // The client kept probing the whole time (PTO backoff).
  EXPECT_GT(result.client.probe_datagrams_sent, 1);
  EXPECT_GT(result.TtfbMs(), 2000.0);
}

TEST(FailureInjection, VeryHighRttCompletes) {
  ExperimentConfig config = Robust();
  config.rtt = sim::Millis(600);
  config.time_limit = sim::Seconds(60);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed);
}

TEST(FailureInjection, TinyBandwidthCompletes) {
  ExperimentConfig config = Robust();
  config.bandwidth_bps = 64 * 1024;  // 64 kbit/s
  config.response_body_bytes = 4096;
  config.time_limit = sim::Seconds(120);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed);
}

TEST(FailureInjection, ZeroByteResponseBody) {
  ExperimentConfig config = Robust();
  config.response_body_bytes = 0;  // headers only
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.client.first_stream_byte, 0);
}

TEST(FailureInjection, EverythingLostTimesOutCleanly) {
  ExperimentConfig config = Robust();
  config.link.loss[netem::kDown] = {netem::LossModel::Kind::kBernoulli, 1.0};
  config.time_limit = sim::Seconds(10);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_FALSE(result.completed);
  // One in-flight backoff event may run past the deadline before the loop
  // observes it.
  EXPECT_LE(result.end_time, sim::Seconds(20));
  // The client backed off exponentially rather than flooding.
  EXPECT_LT(result.client.probe_datagrams_sent, 40);
}

TEST(FailureInjection, LossOfClientHelloRecovers) {
  ExperimentConfig config = Robust();
  sim::LossPattern pattern;
  pattern.DropIndices(sim::Direction::kClientToServer, {1});
  config.loss = pattern;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed);
  // Recovery needed the client's default PTO.
  EXPECT_GT(result.TtfbMs(), 200.0);
}

TEST(FailureInjection, LossOfInstantAckIsHarmless) {
  // If only the instant ACK is lost, the flight still arrives and the
  // connection behaves like WFC.
  ExperimentConfig config = Robust();
  config.behavior = quic::ServerBehavior::kInstantAck;
  config.cert_fetch_delay = sim::Millis(30);
  sim::LossPattern pattern;
  pattern.DropIndices(sim::Direction::kServerToClient, {1});
  config.loss = pattern;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed);
}

TEST(FailureInjection, RepeatedLossOfServerFlightBacksOffExponentially) {
  ExperimentConfig config = Robust();
  config.behavior = quic::ServerBehavior::kInstantAck;
  sim::LossPattern pattern;
  // Lose the flight and its first two retransmissions.
  pattern.DropIndices(sim::Direction::kServerToClient, {2, 3, 4, 5, 6, 7});
  config.loss = pattern;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.server.pto_expirations, 1);
  // Server default PTO 200 ms with doubling: > 600 ms before success.
  EXPECT_GT(result.TtfbMs(), 500.0);
}

TEST(FailureInjection, PaddedInstantAckConsumesBudget) {
  // §5: a padded instant ACK (PMTUD probe) spends 1200 B of the 3x budget.
  ExperimentConfig plain = Robust();
  plain.behavior = quic::ServerBehavior::kInstantAck;
  plain.certificate_bytes = tls::kLargeCertificateBytes;
  plain.cert_fetch_delay = sim::Millis(50);
  ExperimentConfig padded = plain;
  padded.pad_instant_ack = true;
  const ExperimentResult r_plain = RunExperiment(plain);
  const ExperimentResult r_padded = RunExperiment(padded);
  ASSERT_TRUE(r_plain.completed && r_padded.completed);
  EXPECT_GE(r_padded.TtfbMs() + 0.01, r_plain.TtfbMs());
}

}  // namespace
}  // namespace quicer::core
