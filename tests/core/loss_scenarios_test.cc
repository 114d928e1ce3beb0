#include "core/loss_scenarios.h"

#include <gtest/gtest.h>

namespace quicer::core {
namespace {

TEST(LossScenarios, SmallCertFlightIsTwoDatagrams) {
  EXPECT_EQ(ServerFlightDatagrams(tls::kSmallCertificateBytes, http::Version::kHttp1), 2);
  EXPECT_EQ(ServerFlightDatagrams(tls::kSmallCertificateBytes, http::Version::kHttp3), 2);
}

TEST(LossScenarios, LargeCertFlightIsLonger) {
  EXPECT_GE(ServerFlightDatagrams(tls::kLargeCertificateBytes, http::Version::kHttp1), 5);
}

TEST(LossScenarios, Fig6WfcDropsDatagramTwo) {
  // "loss of packet 2 (WFC)" — the flight tail after the coalesced ACK+SH.
  const auto pattern = FirstServerFlightTailLoss(quic::ServerBehavior::kWaitForCertificate,
                                                 tls::kSmallCertificateBytes,
                                                 http::Version::kHttp1);
  EXPECT_FALSE(pattern.ShouldDrop(sim::Direction::kServerToClient, 1));
  EXPECT_TRUE(pattern.ShouldDrop(sim::Direction::kServerToClient, 2));
  EXPECT_FALSE(pattern.ShouldDrop(sim::Direction::kServerToClient, 3));
  EXPECT_EQ(pattern.IndexedDropCount(sim::Direction::kServerToClient), 1u);
}

TEST(LossScenarios, Fig6IackDropsDatagramsTwoAndThree) {
  // "loss of packets 2 and 3 (IACK)" — datagram 1 is the instant ACK.
  const auto pattern = FirstServerFlightTailLoss(quic::ServerBehavior::kInstantAck,
                                                 tls::kSmallCertificateBytes,
                                                 http::Version::kHttp1);
  EXPECT_FALSE(pattern.ShouldDrop(sim::Direction::kServerToClient, 1));
  EXPECT_TRUE(pattern.ShouldDrop(sim::Direction::kServerToClient, 2));
  EXPECT_TRUE(pattern.ShouldDrop(sim::Direction::kServerToClient, 3));
  EXPECT_FALSE(pattern.ShouldDrop(sim::Direction::kServerToClient, 4));
}

TEST(LossScenarios, SecondClientFlightFollowsTable4) {
  for (clients::ClientImpl impl : clients::kAllClients) {
    const auto pattern = SecondClientFlightLoss(impl);
    const int flight = clients::SecondFlightDatagrams(impl);
    EXPECT_FALSE(pattern.ShouldDrop(sim::Direction::kClientToServer, 1))
        << clients::Name(impl) << ": the ClientHello must survive";
    for (int i = 2; i <= 1 + flight; ++i) {
      EXPECT_TRUE(pattern.ShouldDrop(sim::Direction::kClientToServer,
                                     static_cast<std::uint64_t>(i)))
          << clients::Name(impl) << " datagram " << i;
    }
    EXPECT_FALSE(pattern.ShouldDrop(sim::Direction::kClientToServer,
                                    static_cast<std::uint64_t>(flight + 2)))
        << clients::Name(impl);
  }
}

TEST(LossScenarios, QuicheSingleDatagramFlight) {
  const auto pattern = SecondClientFlightLoss(clients::ClientImpl::kQuiche);
  EXPECT_EQ(pattern.IndexedDropCount(sim::Direction::kClientToServer), 1u);
  EXPECT_TRUE(pattern.ShouldDrop(sim::Direction::kClientToServer, 2));
}

TEST(LossScenarios, PicoquicFourDatagramFlight) {
  const auto pattern = SecondClientFlightLoss(clients::ClientImpl::kPicoquic);
  EXPECT_EQ(pattern.IndexedDropCount(sim::Direction::kClientToServer), 4u);
}

TEST(LossScenarios, ServerSideLossDoesNotTouchClientDirection) {
  const auto pattern = FirstServerFlightTailLoss(quic::ServerBehavior::kInstantAck,
                                                 tls::kSmallCertificateBytes,
                                                 http::Version::kHttp1);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    EXPECT_FALSE(pattern.ShouldDrop(sim::Direction::kClientToServer, i));
  }
}

}  // namespace
}  // namespace quicer::core
