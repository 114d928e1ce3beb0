// Harness-level tests: configuration plumbing, metric extraction, and the
// handshake-mode matrix.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include "stats/stats.h"

namespace quicer::core {
namespace {

TEST(Experiment, LinkStatsPopulated) {
  ExperimentConfig config;
  config.response_body_bytes = 10 * 1024;
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.client_to_server.datagrams_sent, 0u);
  EXPECT_GT(result.server_to_client.datagrams_sent, result.client_to_server.datagrams_sent)
      << "a download sends more server->client datagrams";
  EXPECT_EQ(result.client_to_server.datagrams_dropped, 0u);
}

TEST(Experiment, TimeLimitRespected) {
  ExperimentConfig config;
  config.link.loss[netem::kUp] = {netem::LossModel::Kind::kBernoulli, 1.0};
  config.time_limit = sim::Seconds(3);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.end_time, sim::Seconds(10));
}

TEST(Experiment, ClientConfigOverrideApplied) {
  ExperimentConfig config;
  quic::ConnectionConfig override = clients::MakeClientConfig(config.client, config.http);
  override.pto.default_pto = sim::Millis(123);
  config.client_config_override = override;
  RunExperiment(config, [](const quic::ClientConnection& client,
                           const quic::ServerConnection&) {
    EXPECT_EQ(client.config().pto.default_pto, sim::Millis(123));
  });
}

TEST(Experiment, CertificateSizePropagatesToBothEndpoints) {
  ExperimentConfig config;
  config.certificate_bytes = tls::kLargeCertificateBytes;
  RunExperiment(config, [](const quic::ClientConnection& client,
                           const quic::ServerConnection& server) {
    EXPECT_EQ(client.config().tls.certificate, tls::kLargeCertificateBytes);
    EXPECT_EQ(server.config().tls.certificate, tls::kLargeCertificateBytes);
  });
}

TEST(Experiment, RealizedCertDelayIncludesFetchAndSigning) {
  ExperimentConfig config;
  config.cert_fetch_delay = sim::Millis(40);
  config.signing = tls::SigningModel{sim::Millis(3), 0.0};
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.realized_cert_delay, sim::Millis(43));
}

TEST(Experiment, ResponseTtfbEqualsTtfbUnderHttp1) {
  ExperimentConfig config;
  config.http = http::Version::kHttp1;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_DOUBLE_EQ(result.TtfbMs(), result.ResponseTtfbMs());
}

TEST(Experiment, ResponseTtfbLaterThanTtfbUnderHttp3) {
  ExperimentConfig config;
  config.http = http::Version::kHttp3;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_LT(result.TtfbMs(), result.ResponseTtfbMs());
}

TEST(Experiment, BandwidthShapesTransferTime) {
  ExperimentConfig slow;
  slow.response_body_bytes = 100 * 1024;
  slow.bandwidth_bps = 1e6;
  ExperimentConfig fast = slow;
  fast.bandwidth_bps = 100e6;
  const ExperimentResult r_slow = RunExperiment(slow);
  const ExperimentResult r_fast = RunExperiment(fast);
  ASSERT_TRUE(r_slow.completed && r_fast.completed);
  EXPECT_GT(r_slow.client.response_complete, 2 * r_fast.client.response_complete);
}

// Mode matrix: every client completes under every handshake mode.
struct ModeCase {
  clients::ClientImpl client;
  HandshakeMode mode;
};

class ModeMatrix : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ModeMatrix, Completes) {
  ExperimentConfig config;
  config.client = GetParam().client;
  config.mode = GetParam().mode;
  config.response_body_bytes = 10 * 1024;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed) << clients::Name(GetParam().client);
}

std::vector<ModeCase> ModeCases() {
  std::vector<ModeCase> cases;
  for (clients::ClientImpl impl : clients::kAllClients) {
    for (HandshakeMode mode :
         {HandshakeMode::k1Rtt, HandshakeMode::k0Rtt, HandshakeMode::kRetry}) {
      cases.push_back({impl, mode});
    }
  }
  return cases;
}

std::string ModeCaseName(const ::testing::TestParamInfo<ModeCase>& info) {
  std::string name(clients::Name(info.param.client));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  switch (info.param.mode) {
    case HandshakeMode::k1Rtt: name += "_1rtt"; break;
    case HandshakeMode::k0Rtt: name += "_0rtt"; break;
    case HandshakeMode::kRetry: name += "_retry"; break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllClientsModes, ModeMatrix, ::testing::ValuesIn(ModeCases()),
                         ModeCaseName);

TEST(HandshakeModeNames, RoundTripsEveryEnumValue) {
  for (HandshakeMode mode :
       {HandshakeMode::k1Rtt, HandshakeMode::k0Rtt, HandshakeMode::kRetry}) {
    const std::string_view label = ToString(mode);
    EXPECT_NE(label, "?");
    const auto parsed = HandshakeModeFromString(label);
    ASSERT_TRUE(parsed.has_value()) << label;
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(HandshakeModeFromString("definitely-not-a-mode").has_value());
  EXPECT_FALSE(HandshakeModeFromString("").has_value());
}

}  // namespace
}  // namespace quicer::core
