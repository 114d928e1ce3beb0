// Client side of the QUIC 1-RTT handshake (Fig 3).
//
// Flight 1: Initial CRYPTO[ClientHello], padded to 1200 B.
// On the server's flight: install handshake keys after ServerHello, send the
// second client flight (Initial ACK, Handshake Finished+ACK, 1-RTT request)
// once EncryptedExtensions..Finished are complete. The shape of that second
// flight — how many datagrams, what coalesces — follows the implementation
// profile (Table 4) via ConnectionConfig.
#pragma once

#include "quic/connection.h"

namespace quicer::quic {

struct ClientConfig {
  ConnectionConfig base;
  /// Send the HTTP request as 0-RTT early data coalesced with the
  /// ClientHello (assumes a resumed session; §5 "Generalization to 0-RTT").
  bool enable_0rtt = false;
  /// Use a received Retry packet as the first RTT estimate (§5: "the client
  /// may use this packet as the first RTT estimate").
  bool use_retry_as_rtt_sample = true;
};

class ClientConnection : public Connection {
 public:
  ClientConnection(sim::EventQueue& queue, ClientConfig config, sim::Rng rng,
                   sim::Arena* arena = nullptr);

  /// Rewinds to freshly-constructed state for another repetition (see
  /// Connection::ResetForRun).
  void ResetForRun(const ClientConfig& config, sim::Rng rng);

  /// Sends the ClientHello and arms the initial PTO.
  void Start();

  /// True once the response stream finished.
  bool response_complete() const { return response_complete_; }

  /// Number of second-flight datagrams this client will emit after the
  /// ClientHello in a lossless handshake (Table 4 mapping).
  int ExpectedSecondFlightDatagrams() const {
    return config().second_flight_datagrams;
  }

  /// Number of Retry round trips this connection went through (0 or 1).
  int retries_seen() const { return retries_seen_; }

 protected:
  void HandleCrypto(PacketNumberSpace space, const CryptoFrame& frame) override;
  void HandleStream(const StreamFrame& frame) override;
  void HandleHandshakeDone() override;
  void HandleRetry(const RetryFrame& frame) override;
  void AfterDatagramProcessed() override;

 private:
  void SendClientHello();
  void SendSecondFlight();
  /// Appends the request (+ HTTP/3 control-stream SETTINGS) frames.
  void AppendEarlyDataFrames(std::vector<Frame>& frames);
  void ExpectServerMessages();

  ClientConfig client_config_;
  bool started_ = false;
  bool flight2_sent_ = false;
  bool response_complete_ = false;
  bool early_data_sent_ = false;
  int retries_seen_ = 0;
  std::uint64_t retry_token_ = 0;
  sim::Time client_hello_sent_time_ = -1;
};

}  // namespace quicer::quic
