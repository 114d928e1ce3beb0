// White-box tests of the connection machinery, wiring ClientConnection and
// ServerConnection directly over a Link (no experiment harness).
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <vector>

#include "quic/client_connection.h"
#include "quic/server_connection.h"
#include "sim/link.h"

namespace quicer::quic {
namespace {

/// Minimal two-endpoint harness.
class Harness {
 public:
  explicit Harness(sim::Duration rtt = sim::Millis(10),
                   ServerBehavior behavior = ServerBehavior::kWaitForCertificate) {
    sim::Link::Config link_config;
    link_config.one_way_delay = rtt / 2;
    link_ = std::make_unique<sim::Link>(queue_, link_config, sim::Rng(1));

    ClientConfig client_config;
    client_config.base.tls.certificate = tls::kSmallCertificateBytes;
    client_ = std::make_unique<ClientConnection>(queue_, client_config, sim::Rng(2));

    ServerConfig server_config;
    server_config.behavior = behavior;
    server_config.base.tls.certificate = tls::kSmallCertificateBytes;
    server_config.cert_store.certificate_bytes = tls::kSmallCertificateBytes;
    server_config.signing = tls::SigningModel{sim::Millis(2.0), 0.0};
    server_config.response_body_bytes = 4096;
    server_ = std::make_unique<ServerConnection>(queue_, server_config, sim::Rng(3));

    // Datagrams are views into the sender's arena: the closure copies one.
    client_->set_send_function([this](Datagram&& datagram) {
      link_->Send(sim::Direction::kClientToServer, datagram.WireSize(),
                  [this, datagram] { server_->OnDatagramReceived(datagram); });
    });
    server_->set_send_function([this](Datagram&& datagram) {
      link_->Send(sim::Direction::kServerToClient, datagram.WireSize(),
                  [this, datagram] { client_->OnDatagramReceived(datagram); });
    });
  }

  void Run(sim::Duration limit = sim::Seconds(10)) {
    while (queue_.PendingCount() > 0 && queue_.now() <= limit) {
      if (client_->response_complete()) break;
      queue_.RunOne();
    }
  }

  sim::EventQueue queue_;
  std::unique_ptr<sim::Link> link_;
  std::unique_ptr<ClientConnection> client_;
  std::unique_ptr<ServerConnection> server_;
};

TEST(ConnectionInternals, DirectWiringCompletesExchange) {
  Harness harness;
  harness.client_->Start();
  harness.Run();
  EXPECT_TRUE(harness.client_->response_complete());
  EXPECT_TRUE(harness.server_->handshake_confirmed());
}

TEST(ConnectionInternals, ClientHelloPaddedTo1200) {
  Harness harness;
  harness.client_->Start();
  const auto& packets = harness.client_->trace().packets();
  ASSERT_FALSE(packets.empty());
  EXPECT_GE(packets.front().size, kMinInitialDatagramSize);
  EXPECT_TRUE(packets.front().ack_eliciting);
}

TEST(ConnectionInternals, ServerFlightPacksIntoTwoDatagramsForSmallCert) {
  // The Fig 3 shape: Initial(ACK+SH) + Handshake head, then the rest —
  // exactly two datagrams for the 1,212 B certificate (CRYPTO frames split
  // at the datagram boundary).
  Harness harness;
  harness.client_->Start();
  // Flight is built at ~owd + processing + signing ≈ 7.3 ms and flushed
  // immediately; stop before the client's ACKs arrive back (~13 ms).
  harness.queue_.RunUntil(sim::Millis(11));
  EXPECT_TRUE(harness.server_->flight_built());
  EXPECT_EQ(harness.server_->metrics().datagrams_sent, 2u);
}

TEST(ConnectionInternals, WfcServerSuppressesInitialAckUntilFlight) {
  Harness harness(sim::Millis(10), ServerBehavior::kWaitForCertificate);
  harness.client_->Start();
  // Run until just after the CH reaches the server but before signing done.
  harness.queue_.RunUntil(sim::Millis(6));
  EXPECT_EQ(harness.server_->metrics().datagrams_sent, 0u)
      << "WFC server must not ack before the certificate flight";
  harness.Run();
  EXPECT_TRUE(harness.client_->response_complete());
}

TEST(ConnectionInternals, IackServerAcksBeforeFlight) {
  Harness harness(sim::Millis(10), ServerBehavior::kInstantAck);
  harness.client_->Start();
  harness.queue_.RunUntil(sim::Millis(6));
  EXPECT_EQ(harness.server_->metrics().datagrams_sent, 1u)
      << "IACK server sends exactly the instant ACK before the flight";
  EXPECT_FALSE(harness.server_->flight_built());
}

TEST(ConnectionInternals, InstantAckDatagramIsSmallAndNotAckEliciting) {
  Harness harness(sim::Millis(10), ServerBehavior::kInstantAck);
  harness.client_->Start();
  harness.queue_.RunUntil(sim::Millis(6));
  const qlog::PacketEvent* iack = nullptr;
  for (const auto& event : harness.server_->trace().packets()) {
    if (event.sent) {
      iack = &event;
      break;
    }
  }
  ASSERT_NE(iack, nullptr);
  EXPECT_EQ(iack->space, PacketNumberSpace::kInitial);
  EXPECT_FALSE(iack->ack_eliciting);
  EXPECT_LT(iack->size, 100u);
}

TEST(ConnectionInternals, ClientDiscardsInitialSpaceAfterSecondFlight) {
  Harness harness;
  harness.client_->Start();
  harness.Run();
  // After handshake completion, a late Initial-space event must be inert;
  // verified indirectly: the client's trace shows no Initial packets after
  // its second flight.
  sim::Time flight2_time = -1;
  for (const auto& event : harness.client_->trace().packets()) {
    if (event.sent && event.space == PacketNumberSpace::kHandshake) {
      flight2_time = event.time;
      break;
    }
  }
  ASSERT_GE(flight2_time, 0);
  for (const auto& event : harness.client_->trace().packets()) {
    if (event.sent && event.space == PacketNumberSpace::kInitial) {
      EXPECT_LE(event.time, flight2_time);
    }
  }
}

TEST(ConnectionInternals, HandshakeSpaceDiscardedOnConfirmation) {
  Harness harness;
  harness.client_->Start();
  harness.Run();
  // HANDSHAKE_DONE confirmed the client; all Handshake packets predate it.
  const sim::Time confirmed = harness.client_->metrics().handshake_confirmed;
  ASSERT_GE(confirmed, 0);
  for (const auto& event : harness.client_->trace().packets()) {
    if (event.sent && event.space == PacketNumberSpace::kHandshake) {
      EXPECT_LE(event.time, confirmed);
    }
  }
}

TEST(ConnectionInternals, ServerAcksRequestWithResponse) {
  // The request's ACK rides in the first response datagram (Flush bundles
  // pending ACKs with payload) — no standalone ack datagram.
  Harness harness;
  harness.client_->Start();
  harness.Run();
  const auto& events = harness.server_->trace().packets();
  // Find first sent AppData packet after the request arrived.
  sim::Time request_time = -1;
  for (const auto& event : events) {
    if (!event.sent && event.space == PacketNumberSpace::kAppData) {
      request_time = event.time;
      break;
    }
  }
  ASSERT_GE(request_time, 0);
  for (const auto& event : events) {
    if (event.sent && event.space == PacketNumberSpace::kAppData &&
        event.time >= request_time) {
      // Response data packet: ack-eliciting (carries STREAM).
      EXPECT_TRUE(event.ack_eliciting);
      break;
    }
  }
}

TEST(ConnectionInternals, MetricsTimelineOrdered) {
  Harness harness;
  harness.client_->Start();
  harness.Run();
  const auto& m = harness.client_->metrics();
  EXPECT_LE(m.start_time, m.first_ack_received);
  EXPECT_LE(m.first_ack_received, m.handshake_complete);
  EXPECT_LE(m.handshake_complete, m.handshake_confirmed);
  EXPECT_LE(m.first_stream_byte, m.response_complete);
}

TEST(ConnectionInternals, StreamBytesAccounting) {
  Harness harness;
  harness.client_->Start();
  harness.Run();
  EXPECT_EQ(harness.client_->metrics().stream_bytes_received,
            4096u + http::ResponseHeadBytes(http::Version::kHttp1));
  EXPECT_EQ(harness.server_->metrics().stream_bytes_received,
            http::RequestBytes(http::Version::kHttp1));
}

/// A bare server endpoint for white-box sends: the test queues frames
/// directly, hand-builds the peer's datagrams and keeps what goes out.
class BareServer : public Connection {
 public:
  explicit BareServer(sim::EventQueue& queue)
      : Connection(queue, Perspective::kServer, ConnectionConfig{}, sim::Rng(1)) {
    set_send_function([this](Datagram&& datagram) { sent.push_back(std::move(datagram)); });
  }

  void QueueInitialCrypto(std::uint32_t bytes) {
    QueueFrame(PacketNumberSpace::kInitial,
               CryptoFrame{0, bytes, tls::MessageType::kServerHello});
  }

  std::vector<Datagram> sent;

 protected:
  void HandleCrypto(PacketNumberSpace, const CryptoFrame&) override {}
  void HandleStream(const StreamFrame&) override {}
};

/// Storage for the hand-built peer datagrams: wire objects are views, and
/// these must outlive the connections that read them, as a run's do.
sim::Arena& PeerArena() {
  static sim::Arena arena;
  return arena;
}

/// A client Initial datagram of one ack-eliciting PING packet per pn, the
/// last one padded with `padding` bytes.
Datagram ClientPings(std::initializer_list<std::uint64_t> pns, std::uint32_t padding) {
  std::vector<Packet> packets;
  for (std::uint64_t pn : pns) {
    const bool last = packets.size() + 1 == pns.size();
    const Frame frames[] = {PingFrame{}, PaddingFrame{last ? padding : 0}};
    Packet packet;
    packet.space = PacketNumberSpace::kInitial;
    packet.packet_number = pn;
    packet.frames = PeerArena().Copy(frames, 2);
    packet.wire_size = packet.WireSize();
    packets.push_back(packet);
  }
  Datagram datagram;
  datagram.packets = PeerArena().Copy(packets.data(), packets.size());
  return datagram;
}

Datagram ClientPing(std::uint64_t pn, std::uint32_t padding) { return ClientPings({pn}, padding); }

TEST(ConnectionInternals, KnownFidelityBugBlockedFlushParksBuiltAckInPending) {
  // KNOWN FIDELITY BUG, asserted as it behaves today (fixing it changes
  // exports). When Flush finds a built datagram amplification- or
  // congestion-blocked, it puts *every* frame back into the space's pending
  // queue — including the ACK that BuildAck already took from the
  // AckManager. The AckManager then no longer owes that ACK (no immediate
  // ACK, no ACK timer), and the parked frame leaves later as ordinary
  // pending data: here a stale ACK rides behind a fresh one in one packet.
  sim::EventQueue queue;
  BareServer server(queue);
  server.QueueInitialCrypto(1000);

  // ~55 B received: a 165 B budget cannot carry ACK + 1000 B of CRYPTO.
  server.OnDatagramReceived(ClientPing(0, 10));
  EXPECT_TRUE(server.sent.empty());
  EXPECT_EQ(server.metrics().amp_blocked_events, 1);

  // A full-size datagram lifts the budget; the next flush sends a fresh
  // ACK (pns 0-1), then the parked stale ACK (pn 0), then the CRYPTO data.
  server.OnDatagramReceived(ClientPing(1, 1150));
  ASSERT_EQ(server.sent.size(), 1u);
  ASSERT_EQ(server.sent[0].packets.size(), 1u);
  const sim::Span<const Frame> frames = server.sent[0].packets[0].frames;
  ASSERT_EQ(frames.size(), 3u);
  ASSERT_TRUE(std::holds_alternative<AckFrame>(frames[0]));
  EXPECT_EQ(std::get<AckFrame>(frames[0]).largest_acked, 1u);
  ASSERT_TRUE(std::holds_alternative<AckFrame>(frames[1]));
  EXPECT_EQ(std::get<AckFrame>(frames[1]).largest_acked, 0u);
  EXPECT_TRUE(std::holds_alternative<CryptoFrame>(frames[2]));
}

TEST(ConnectionInternals, AckPutBackByBlockedFlushKeepsItsRangesUntilSent) {
  // The ACK a blocked flush puts back into `pending` views ranges that
  // AckManager::BuildAck placed on the run arena. The frame is copied out
  // of the unsent packet and sent only after later ACKs were built and
  // placed, so its view must still read the ranges it was built with.
  sim::EventQueue queue;
  BareServer server(queue);
  server.QueueInitialCrypto(1000);

  // Two PINGs with a gap (pns 0 and 2): the ACK carries two ranges. The
  // small datagram cannot buy enough budget, so the flush is blocked.
  server.OnDatagramReceived(ClientPings({0, 2}, 10));
  EXPECT_TRUE(server.sent.empty());
  EXPECT_EQ(server.metrics().amp_blocked_events, 1);

  server.OnDatagramReceived(ClientPing(5, 1150));
  ASSERT_EQ(server.sent.size(), 1u);
  ASSERT_EQ(server.sent[0].packets.size(), 1u);
  const sim::Span<const Frame> frames = server.sent[0].packets[0].frames;
  ASSERT_EQ(frames.size(), 3u);

  // The fresh ACK: 5, 2, 0.
  const auto* fresh = std::get_if<AckFrame>(&frames[0]);
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fresh->ranges.size(), 3u);
  EXPECT_EQ(fresh->ranges[0].first, 5u);
  EXPECT_EQ(fresh->ranges[2].last, 0u);

  // The put-back ACK, sent two builds later: still exactly 2 and 0.
  const auto* parked = std::get_if<AckFrame>(&frames[1]);
  ASSERT_NE(parked, nullptr);
  EXPECT_EQ(parked->largest_acked, 2u);
  ASSERT_EQ(parked->ranges.size(), 2u);
  EXPECT_EQ(parked->ranges[0].first, 2u);
  EXPECT_EQ(parked->ranges[0].last, 2u);
  EXPECT_EQ(parked->ranges[1].first, 0u);
  EXPECT_EQ(parked->ranges[1].last, 0u);
  EXPECT_TRUE(parked->Acks(2));
  EXPECT_FALSE(parked->Acks(1));
  EXPECT_NE(parked->ranges.data, fresh->ranges.data);
  EXPECT_TRUE(std::holds_alternative<CryptoFrame>(frames[2]));
}

}  // namespace
}  // namespace quicer::quic
