#include "quic/client_connection.h"

#include <utility>

namespace quicer::quic {
namespace {
constexpr std::size_t kCryptoChunk = 1000;
}

ClientConnection::ClientConnection(sim::EventQueue& queue, ClientConfig config, sim::Rng rng,
                                   sim::Arena* arena)
    : Connection(queue, Perspective::kClient, config.base, rng, arena), client_config_(config) {
  ExpectServerMessages();
}

void ClientConnection::ExpectServerMessages() {
  // Expected server messages: ServerHello in Initial, the rest in Handshake.
  space(PacketNumberSpace::kInitial)
      .crypto_rx.ExpectMessage(tls::MessageType::kServerHello, config().tls.server_hello);
  auto& hs = space(PacketNumberSpace::kHandshake).crypto_rx;
  hs.ExpectMessage(tls::MessageType::kEncryptedExtensions, config().tls.encrypted_extensions);
  hs.ExpectMessage(tls::MessageType::kCertificate, config().tls.certificate);
  hs.ExpectMessage(tls::MessageType::kCertificateVerify, config().tls.certificate_verify);
  hs.ExpectMessage(tls::MessageType::kFinished, config().tls.finished);
}

void ClientConnection::ResetForRun(const ClientConfig& config, sim::Rng rng) {
  Connection::ResetForRun(config.base, rng);
  client_config_ = config;
  started_ = false;
  flight2_sent_ = false;
  response_complete_ = false;
  early_data_sent_ = false;
  retries_seen_ = 0;
  retry_token_ = 0;
  client_hello_sent_time_ = -1;
  ExpectServerMessages();
}

void ClientConnection::Start() {
  if (started_) return;
  started_ = true;
  SendClientHello();
}

void ClientConnection::AppendEarlyDataFrames(std::vector<Frame>& frames) {
  if (config().http_version == http::Version::kHttp3) {
    StreamFrame settings;
    settings.stream_id = http::kClientControlStreamId;
    settings.length = static_cast<std::uint32_t>(http::kH3SettingsBytes);
    frames.push_back(settings);
  }
  StreamFrame request;
  request.stream_id = http::kRequestStreamId;
  request.length = static_cast<std::uint32_t>(http::RequestBytes(config().http_version));
  request.fin = true;
  frames.push_back(request);
}

void ClientConnection::SendClientHello() {
  client_hello_sent_time_ = queue().now();
  Packet initial = BuildPacket(
      PacketNumberSpace::kInitial,
      MakeCryptoFlight(PacketNumberSpace::kInitial, tls::MessageType::kClientHello,
                       config().tls.client_hello, kCryptoChunk));
  initial.token = retry_token_;
  if (initial.token != 0) initial.wire_size = initial.WireSize();  // token adds bytes

  std::vector<Packet>& packets = packet_scratch();
  packets.clear();
  packets.push_back(initial);
  if (client_config_.enable_0rtt && !early_data_sent_) {
    // 0-RTT: the request rides in the first flight, protected with the
    // resumed session's early keys.
    early_data_sent_ = true;
    InstallOneRttSendKeys();
    std::vector<Frame>& frames = frame_scratch();
    frames.clear();
    AppendEarlyDataFrames(frames);
    packets.push_back(BuildPacket(PacketNumberSpace::kAppData, frames));
  }
  SendDatagramNow(packets, kMinInitialDatagramSize);
}

void ClientConnection::HandleRetry(const RetryFrame& frame) {
  if (retry_token_ != 0) return;  // already retried once
  ++retries_seen_;
  retry_token_ = frame.token;
  trace().RecordNote(queue().now(), "transport", "Retry received; resending ClientHello");

  // §5: the Retry round trip may serve as the first RTT estimate. A
  // subsequent instant ACK is still beneficial — it reduces the variance.
  if (client_config_.use_retry_as_rtt_sample && client_hello_sent_time_ >= 0) {
    InjectRttSample(queue().now() - client_hello_sent_time_);
  }

  // The original attempt's state is discarded (RFC 9000 §17.2.5): forget
  // the unacknowledged ClientHello and restart the crypto stream.
  SpaceState& initial = space(PacketNumberSpace::kInitial);
  congestion().OnPacketDiscarded(initial.ledger.bytes_in_flight());
  initial.ledger.Clear();
  initial.crypto_tx_offset = 0;
  early_data_sent_ = false;  // 0-RTT data must be re-sent with the token
  SendClientHello();
}

void ClientConnection::HandleCrypto(PacketNumberSpace s, const CryptoFrame& frame) {
  (void)frame;
  if (s == PacketNumberSpace::kInitial && !HasHandshakeKeys() &&
      space(s).crypto_rx.IsComplete(tls::MessageType::kServerHello)) {
    InstallHandshakeKeys();
  }
  // Second-flight emission happens in AfterDatagramProcessed so the whole
  // coalesced datagram is taken into account first.
}

void ClientConnection::AfterDatagramProcessed() {
  if (flight2_sent_ || !HasHandshakeKeys()) return;
  if (!space(PacketNumberSpace::kHandshake).crypto_rx.AllComplete()) return;
  InstallOneRttRecvKeys();
  InstallOneRttSendKeys();
  // Absorb the 1-RTT tail of the server flight (H3 SETTINGS,
  // NEW_CONNECTION_ID) first so replies coalesce into the second flight.
  ReprocessUndecryptable();
  SendSecondFlight();
}

void ClientConnection::SendSecondFlight() {
  flight2_sent_ = true;

  // Both flight packets are built up front (each BuildPacket copies its
  // frames into the run arena, freeing the scratch buffer for the next);
  // packet numbers are per space, so building before the Initial ACK below
  // assigns the same numbers as building in datagram order.
  std::vector<Frame>& frames = frame_scratch();

  // Handshake packet: client Finished (+ pending Handshake ACK).
  frames.clear();
  if (auto ack = PopAck(PacketNumberSpace::kHandshake)) frames.push_back(*ack);
  const std::vector<Frame>& fin =
      MakeCryptoFlight(PacketNumberSpace::kHandshake, tls::MessageType::kFinished,
                       config().tls.finished, kCryptoChunk);
  frames.insert(frames.end(), fin.begin(), fin.end());
  const Packet handshake = BuildPacket(PacketNumberSpace::kHandshake, frames);

  // 1-RTT packet: HTTP request (+ HTTP/3 client control stream SETTINGS),
  // coalesced with any queued 1-RTT replies (e.g. RETIRE_CONNECTION_ID for
  // the NEW_CONNECTION_ID in the server flight) — real stacks bundle these
  // into the same flight rather than emitting an extra datagram.
  frames.clear();
  auto& app_pending = space(PacketNumberSpace::kAppData).pending;
  frames.insert(frames.end(), app_pending.begin(), app_pending.end());
  app_pending.clear();
  if (!early_data_sent_) {
    // 1-RTT handshake: the request goes out now. (In 0-RTT it already rode
    // with the ClientHello.)
    AppendEarlyDataFrames(frames);
  } else if (frames.empty()) {
    // Keep the flight shape: an ACK-bearing 1-RTT packet still closes the
    // exchange.
    if (auto app_ack = PopAck(PacketNumberSpace::kAppData)) frames.push_back(*app_ack);
    if (frames.empty()) frames.push_back(PingFrame{});
  }
  const Packet app = BuildPacket(PacketNumberSpace::kAppData, frames);

  // Leftover Initial ACK (quiche defers it to coalesce here; for others it
  // usually went out as its own datagram already).
  std::optional<Frame> initial_ack;
  if (auto ack = PopAck(PacketNumberSpace::kInitial)) initial_ack = Frame{*ack};

  const int split = config().second_flight_datagrams;
  std::vector<Packet>& packets = packet_scratch();
  packets.clear();
  if (split <= 1) {
    // quiche: everything in one datagram.
    if (initial_ack) {
      packets.push_back(BuildPacket(PacketNumberSpace::kInitial, {&*initial_ack, 1}));
    }
    packets.push_back(handshake);
    packets.push_back(app);
    SendDatagramNow(packets);
  } else if (split == 2) {
    // neqo: Handshake and 1-RTT coalesce.
    if (initial_ack) SendPacketNow(PacketNumberSpace::kInitial, {&*initial_ack, 1});
    packets.push_back(handshake);
    packets.push_back(app);
    SendDatagramNow(packets);
  } else {
    // Default (3) and picoquic (4): one datagram per space; picoquic's
    // extra datagram is its uncoalesced Handshake ACK, which the base class
    // already emitted separately (coalesce_acks = false).
    if (initial_ack) SendPacketNow(PacketNumberSpace::kInitial, {&*initial_ack, 1});
    SendDatagramNow({&handshake, 1});
    SendDatagramNow({&app, 1});
  }

  // Sending the Finished completes the handshake from the client's TLS
  // perspective; the client now discards Initial keys (RFC 9001 §4.9.1).
  SetHandshakeComplete();
  if (!space(PacketNumberSpace::kInitial).discarded) {
    DiscardSpace(PacketNumberSpace::kInitial);
  }
}

void ClientConnection::HandleStream(const StreamFrame& frame) {
  if (frame.stream_id != http::kRequestStreamId) return;
  const InStream* in_ptr = FindInStream(http::kRequestStreamId);
  if (in_ptr == nullptr) return;
  const InStream& in = *in_ptr;
  if (in.fin_seen && in.high_watermark >= in.fin_offset && !response_complete_) {
    response_complete_ = true;
    mutable_metrics().response_complete = queue().now();
  }
}

void ClientConnection::HandleHandshakeDone() {
  // Handshake confirmed; base class already discarded Handshake keys.
}

}  // namespace quicer::quic
