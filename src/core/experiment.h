// Testbed experiment harness.
//
// One experiment = one QUIC connection between a client implementation
// profile and the reference server over an emulated path, mirroring the
// paper's QUIC Interop Runner setup (§3): configurable RTT, 10 Mbit/s
// bottleneck, deterministic datagram loss, certificate size, Δt, WFC/IACK
// behaviour, HTTP version, and seeded repetitions.
#pragma once

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "clients/profiles.h"
#include "http/http.h"
#include "qlog/qlog.h"
#include "quic/client_connection.h"
#include "quic/server_connection.h"
#include "sim/arena.h"
#include "sim/link.h"
#include "sim/loss.h"
#include "tls/cert_store.h"
#include "tls/messages.h"

namespace quicer::core {

/// Handshake type (§5 "Generalization to 0-RTT and Retry handshakes").
enum class HandshakeMode {
  k1Rtt,   // standard 1-RTT handshake (the paper's main setting)
  k0Rtt,   // resumed session; request rides with the ClientHello
  kRetry,  // server demands a token round trip first
};

/// Report label of a handshake mode ("1-RTT" / "0-RTT" / "Retry").
std::string_view ToString(HandshakeMode mode);

/// Inverse of ToString; nullopt for unknown labels.
std::optional<HandshakeMode> HandshakeModeFromString(std::string_view label);

struct ExperimentConfig {
  clients::ClientImpl client = clients::ClientImpl::kQuicGo;
  http::Version http = http::Version::kHttp1;
  quic::ServerBehavior behavior = quic::ServerBehavior::kWaitForCertificate;
  HandshakeMode mode = HandshakeMode::k1Rtt;
  /// For kRetry: the client uses the Retry round trip as its first RTT
  /// estimate (§5).
  bool client_use_retry_rtt_sample = true;

  /// Path round-trip time (symmetric one-way delays, §3).
  sim::Duration rtt = sim::Millis(9);
  double bandwidth_bps = 10e6;
  /// Per-datagram path jitter (0 in all paper experiments).
  sim::Duration path_jitter = 0;
  /// Network-emulation models (stochastic loss, bottleneck queue,
  /// asymmetric path overrides). The default is the paper's legacy pipe.
  netem::LinkModel link;

  /// TLS certificate chain size (1,212 B or 5,113 B in the paper).
  std::size_t certificate_bytes = tls::kSmallCertificateBytes;
  /// Backend certificate-store delay Δt.
  sim::Duration cert_fetch_delay = 0;
  bool cert_cached = false;
  /// Signing latency model (the dominant server-side compute cost, §4.1).
  tls::SigningModel signing{sim::Millis(2.8), 0.2};

  std::size_t response_body_bytes = http::kSmallFileBytes;
  sim::LossPattern loss;  // lint:allow(CC001): set from the losses axis; scenarios carry the loss label

  /// Server default PTO (the paper's quic-go server: 200 ms).
  sim::Duration server_default_pto = sim::Millis(200);
  bool pad_instant_ack = false;
  /// §5 tuning: client probes re-send the ClientHello instead of PINGs.
  bool client_probe_with_data = false;

  std::uint64_t seed = 1;
  /// Simulated-time budget per run.
  sim::Duration time_limit = sim::Seconds(30);

  /// Capture a full qlog trace on both endpoints: packet events regardless
  /// of body size, plus the structured recovery/transport/connectivity
  /// events (qlog::StructEvent), plus transport:datagram_dropped entries
  /// wired from the link's drop hook. Off by default — capture changes no
  /// run behaviour or RNG draws, but the export pipeline only pays for
  /// trace storage when a qlog is actually wanted (--qlog-dir). Not part of
  /// the serialized scenario, so it never affects the spec content-hash.
  bool capture_qlog = false;  // lint:allow(CC001): changes no run bytes; deliberately outside the scenario hash

  /// Full override of the client configuration (profiles otherwise apply).
  std::optional<quic::ConnectionConfig> client_config_override;  // lint:allow(CC001): programmatic escape hatch, not expressible in scenario files
};

struct ExperimentResult {
  quic::ConnectionMetrics client;
  quic::ConnectionMetrics server;
  /// Δt the server actually experienced (fetch + signing).
  sim::Duration realized_cert_delay = 0;
  bool completed = false;
  sim::Time end_time = 0;
  sim::Link::DirectionStats client_to_server;
  sim::Link::DirectionStats server_to_client;
  /// Client-side qlog extracts (Fig 11 / Fig 16 methodology).
  std::vector<qlog::MetricsUpdate> client_metric_updates;
  std::uint64_t client_packets_with_new_acks = 0;

  /// Time to first byte: first STREAM frame from the server, in ms
  /// (negative when never received — aborted runs). This is the Fig 5
  /// metric, where HTTP/3's control-stream SETTINGS counts.
  double TtfbMs() const {
    return client.first_stream_byte < 0 ? -1.0 : sim::ToMillis(client.first_stream_byte);
  }

  /// First byte of the *response stream*, in ms — the metric of the loss
  /// figures (Appendix F: "first payload byte after the loss event"), which
  /// excludes HTTP/3's pre-loss SETTINGS.
  double ResponseTtfbMs() const {
    return client.first_response_byte < 0 ? -1.0 : sim::ToMillis(client.first_response_byte);
  }
};

/// Reusable run context: owns the event queue, arena, link and both
/// endpoints and replays them across runs. Every wire object a run sends
/// lives on the arena (see sim/arena.h). Run() resets the queue (retaining
/// its slot and heap capacity), rewinds the arena, and resets the
/// link/endpoints in place — every container keeps its capacity — so after a
/// warm-up run, repeated runs (sweep repetitions, thread-pool workers)
/// allocate nothing at all. Reuse is invisible to results: every run
/// re-seeds its RNG forks and rebuilds endpoint state from the config, and
/// exports are byte-identical to fresh-context runs.
class RunContext {
 public:
  using InspectFn =
      std::function<void(const quic::ClientConnection&, const quic::ServerConnection&)>;

  RunContext() = default;
  ~RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Runs one experiment, reusing this context's storage.
  ExperimentResult Run(const ExperimentConfig& config);
  ExperimentResult Run(const ExperimentConfig& config, const InspectFn& inspect);

 private:
  sim::EventQueue queue_;  // declared first: destroyed last, after its users
  sim::Arena arena_;       // every wire object of a run; reset wholesale between runs
  std::optional<sim::Link> link_;
  std::optional<quic::ClientConnection> client_;
  std::optional<quic::ServerConnection> server_;
};

/// Runs a single experiment.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Runs a single experiment and lets `inspect` examine the live endpoints
/// before teardown. Packet events (Trace::packets) are recorded only for
/// such inspected runs of at most 1 MiB of body, and for qlog captures.
ExperimentResult RunExperiment(
    const ExperimentConfig& config,
    const std::function<void(const quic::ClientConnection&, const quic::ServerConnection&)>&
        inspect);

/// Runs `repetitions` seeded runs and returns extractor(result) for each.
std::vector<double> RunRepetitions(ExperimentConfig config, int repetitions,
                                   const std::function<double(const ExperimentResult&)>& extract);

/// Convenience: TTFB in ms across repetitions (aborted runs excluded).
std::vector<double> CollectTtfbMs(ExperimentConfig config, int repetitions);

}  // namespace quicer::core
