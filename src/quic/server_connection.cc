#include "quic/server_connection.h"

#include <utility>

namespace quicer::quic {
namespace {
constexpr std::size_t kCryptoChunk = 1000;
}

ServerConnection::ServerConnection(sim::EventQueue& queue, ServerConfig config, sim::Rng rng,
                                   sim::Arena* arena)
    : Connection(queue, Perspective::kServer, config.base, rng, arena),
      server_config_(std::move(config)),
      cert_store_(queue, server_config_.cert_store, this->rng().Fork(0xce57)) {
  ExpectClientMessages();
}

void ServerConnection::ExpectClientMessages() {
  space(PacketNumberSpace::kInitial)
      .crypto_rx.ExpectMessage(tls::MessageType::kClientHello, config().tls.client_hello);
  space(PacketNumberSpace::kHandshake)
      .crypto_rx.ExpectMessage(tls::MessageType::kFinished, config().tls.finished);
  // Accepting 0-RTT means early-data packets coalesced with the ClientHello
  // are readable immediately (resumed-session keys).
  if (server_config_.accept_0rtt) InstallOneRttRecvKeys();
}

void ServerConnection::ResetForRun(ServerConfig config, sim::Rng rng) {
  Connection::ResetForRun(config.base, rng);
  server_config_ = std::move(config);
  // Same fork label as the constructor: the reset store draws the fetch
  // jitter a freshly built one would.
  cert_store_.Reset(server_config_.cert_store, this->rng().Fork(0xce57));
  ch_complete_time_ = -1;
  realized_cert_delay_ = 0;
  started_ = false;
  iack_sent_ = false;
  flight_built_ = false;
  response_queued_ = false;
  retry_sent_ = false;
  ExpectClientMessages();
}

bool ServerConnection::SuppressImmediateAck(PacketNumberSpace s) const {
  // Until the certificate flight exists, Initial ACKs are held back: under
  // WFC they coalesce with the ServerHello; under IACK the single instant
  // ACK was already emitted explicitly and later Initial packets (client
  // PING probes) are acknowledged together with the flight.
  return s == PacketNumberSpace::kInitial && !flight_built_;
}

void ServerConnection::HandleCrypto(PacketNumberSpace s, const CryptoFrame& frame) {
  (void)frame;
  if (s == PacketNumberSpace::kInitial && !started_ &&
      space(s).crypto_rx.IsComplete(tls::MessageType::kClientHello)) {
    if (server_config_.send_retry && current_packet_token() == 0) {
      // Resource-exhaustion defence: demand a token round trip before
      // committing any handshake state.
      if (!retry_sent_) {
        retry_sent_ = true;
        const Frame retry{RetryFrame{kRetryToken}};
        SendPacketNow(PacketNumberSpace::kInitial, {&retry, 1});
        trace().RecordNote(queue().now(), "server", "Retry sent");
      }
      return;
    }
    if (current_packet_token() == kRetryToken) {
      // A valid token proves the address (RFC 9000 §8.1.2): the
      // anti-amplification limit never binds on this connection.
      amplification_mutable().OnAddressValidated();
    }
    OnClientHelloComplete();
    return;
  }
  if (s == PacketNumberSpace::kHandshake && !handshake_confirmed() &&
      space(s).crypto_rx.IsComplete(tls::MessageType::kFinished)) {
    // Client Finished: the handshake is complete and confirmed server-side
    // (RFC 9001 §4.1.2); announce confirmation to the client.
    SetHandshakeComplete();
    QueueFrame(PacketNumberSpace::kAppData, HandshakeDoneFrame{});
    SetHandshakeConfirmed();
  }
}

void ServerConnection::OnClientHelloComplete() {
  started_ = true;
  ch_complete_time_ = queue().now();

  // A certificate already cached on the frontend resolves immediately: the
  // ACK coalesces with the ServerHello instead of going out separately —
  // this is the coalesced-ACK+SH signal the paper uses to detect frontend
  // caching for popular Cloudflare domains (Fig 9).
  const bool cert_immediately_available = server_config_.cert_store.cached;
  if (server_config_.behavior == ServerBehavior::kInstantAck && !iack_sent_ &&
      !cert_immediately_available) {
    iack_sent_ = true;
    if (auto ack = PopAck(PacketNumberSpace::kInitial)) {
      const Frame frame{*ack};
      SendPacketNow(PacketNumberSpace::kInitial, {&frame, 1},
                    server_config_.pad_instant_ack ? kMinInitialDatagramSize : 0);
      trace().RecordNote(queue().now(), "server", "instant ACK sent");
    }
  }

  cert_store_.Fetch([this](const tls::CertStore::Result& result) {
    const sim::Duration signing = server_config_.signing.Sample(rng());
    realized_cert_delay_ = result.delay + signing;
    queue().Schedule(signing,
                     [this, bytes = result.certificate_bytes] { BuildServerFlight(bytes); });
  });
}

void ServerConnection::BuildServerFlight(std::size_t certificate_bytes) {
  if (flight_built_ || closed()) return;
  flight_built_ = true;
  InstallHandshakeKeys();
  InstallOneRttSendKeys();
  InstallOneRttRecvKeys();
  trace().RecordNote(queue().now(), "server", "certificate ready; building flight");

  // Initial: ServerHello (the pending ACK is bundled by Flush — this is the
  // WFC coalesced ACK+SH, or an updated ACK covering client probes in IACK).
  for (const Frame& frame :
       MakeCryptoFlight(PacketNumberSpace::kInitial, tls::MessageType::kServerHello,
                        config().tls.server_hello, kCryptoChunk)) {
    QueueFrame(PacketNumberSpace::kInitial, frame);
  }

  // Handshake: EncryptedExtensions, Certificate, CertificateVerify, Finished.
  QueueCryptoFrames(PacketNumberSpace::kHandshake, tls::MessageType::kEncryptedExtensions,
                    config().tls.encrypted_extensions, kCryptoChunk);
  QueueCryptoFrames(PacketNumberSpace::kHandshake, tls::MessageType::kCertificate,
                    certificate_bytes, kCryptoChunk);
  QueueCryptoFrames(PacketNumberSpace::kHandshake, tls::MessageType::kCertificateVerify,
                    config().tls.certificate_verify, kCryptoChunk);
  QueueCryptoFrames(PacketNumberSpace::kHandshake, tls::MessageType::kFinished,
                    config().tls.finished, kCryptoChunk);

  // 1-RTT tail of the first flight (Fig 3): HTTP/3 control-stream SETTINGS
  // (this is the stream frame that gives HTTP/3 its earlier TTFB in Fig 5)
  // and a NEW_CONNECTION_ID.
  if (config().http_version == http::Version::kHttp3) {
    QueueStreamData(http::kServerControlStreamId, http::kH3SettingsBytes, false);
  }
  if (server_config_.send_new_connection_id) {
    QueueFrame(PacketNumberSpace::kAppData, NewConnectionIdFrame{1, 1});
  }

  Flush();
  SetLossDetectionTimer();
}

void ServerConnection::HandleStream(const StreamFrame& frame) {
  if (frame.stream_id != http::kRequestStreamId || response_queued_) return;
  const InStream* in_ptr = FindInStream(http::kRequestStreamId);
  if (in_ptr == nullptr) return;
  const InStream& in = *in_ptr;
  if (!in.fin_seen || in.high_watermark < in.fin_offset) return;

  response_queued_ = true;
  const std::size_t total =
      http::ResponseHeadBytes(config().http_version) + server_config_.response_body_bytes;
  QueueStreamData(http::kRequestStreamId, total, /*fin=*/true);
}

}  // namespace quicer::quic
