#include <gtest/gtest.h>

#include "core/experiment.h"

namespace quicer::core {
namespace {

TEST(IdleTimeout, DeadConnectionClosesAtDeadline) {
  ExperimentConfig config;
  config.rtt = sim::Millis(9);
  config.link.loss[netem::kDown] = {netem::LossModel::Kind::kBernoulli, 1.0};
  config.link.loss[netem::kUp] = {netem::LossModel::Kind::kBernoulli, 1.0};
  quic::ConnectionConfig client = clients::MakeClientConfig(config.client, config.http);
  client.idle_timeout = sim::Seconds(5);
  config.client_config_override = client;
  config.time_limit = sim::Seconds(60);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.client.aborted);
  EXPECT_EQ(result.client.abort_reason, "idle timeout");
}

TEST(IdleTimeout, ActivityKeepsConnectionAlive) {
  // A 10 MB transfer takes ~9 s at 10 Mbit/s; a 3 s idle timeout must not
  // fire because datagrams keep arriving.
  ExperimentConfig config;
  config.rtt = sim::Millis(20);
  config.response_body_bytes = http::kLargeFileBytes;
  config.time_limit = sim::Seconds(60);
  quic::ConnectionConfig client = clients::MakeClientConfig(config.client, config.http);
  client.idle_timeout = sim::Seconds(3);
  client.trace.capture_packets = false;
  config.client_config_override = client;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.client.aborted);
}

TEST(IdleTimeout, ZeroDisablesTheTimer) {
  ExperimentConfig config;
  config.rtt = sim::Millis(9);
  config.link.loss[netem::kDown] = {netem::LossModel::Kind::kBernoulli, 1.0};
  quic::ConnectionConfig client = clients::MakeClientConfig(config.client, config.http);
  client.idle_timeout = 0;
  config.client_config_override = client;
  config.time_limit = sim::Seconds(40);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.client.abort_reason, "idle timeout");
}

TEST(IdleTimeout, DefaultIsThirtySeconds) {
  quic::ConnectionConfig config;
  EXPECT_EQ(config.idle_timeout, sim::Seconds(30));
}

}  // namespace
}  // namespace quicer::core
