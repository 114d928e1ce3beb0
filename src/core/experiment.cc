#include "core/experiment.h"

#include <memory>
#include <utility>

#include "obs/telemetry.h"

namespace quicer::core {
namespace {

/// Packet events are recorded only when the run has a reader for them — a
/// qlog capture, or an inspect hook — and not for inspected bulk transfers,
/// to keep memory bounded. Nothing in ExperimentResult reads them.
bool CapturePackets(const ExperimentConfig& config, bool inspected) {
  return config.capture_qlog || (inspected && config.response_body_bytes <= 1024 * 1024);
}

quic::ConnectionConfig BuildClientConfig(const ExperimentConfig& config, bool inspected) {
  quic::ConnectionConfig client =
      config.client_config_override.has_value()
          ? *config.client_config_override
          : clients::MakeClientConfig(config.client, config.http);
  client.tls.certificate = config.certificate_bytes;
  client.http_version = config.http;
  client.probe_with_data = config.client_probe_with_data;
  if (!CapturePackets(config, inspected)) client.trace.capture_packets = false;
  if (config.capture_qlog) {
    client.trace.capture_packets = true;
    client.trace.capture_events = true;
  }
  return client;
}

quic::ServerConfig BuildServerConfig(const ExperimentConfig& config, bool inspected) {
  quic::ServerConfig server;
  server.behavior = config.behavior;
  server.send_retry = config.mode == HandshakeMode::kRetry;
  server.accept_0rtt = config.mode == HandshakeMode::k0Rtt;
  server.pad_instant_ack = config.pad_instant_ack;
  server.base.http_version = config.http;
  server.base.tls.certificate = config.certificate_bytes;
  server.base.pto.default_pto = config.server_default_pto;
  // The paper's server is quic-go, which reports an ACK Delay of 0 (Table 3).
  server.base.ack_policy.report_mode = quic::AckDelayReportMode::kZero;
  // Initial key derivation / scheduling overhead before the CH is acted on.
  server.base.processing_delay = sim::Millis(0.3);
  server.cert_store.fetch_delay = config.cert_fetch_delay;
  server.cert_store.certificate_bytes = config.certificate_bytes;
  server.cert_store.cached = config.cert_cached;
  server.signing = config.signing;
  server.response_body_bytes = config.response_body_bytes;
  server.base.trace.capture_packets = CapturePackets(config, inspected);
  server.base.trace.capture_events = config.capture_qlog;
  return server;
}

}  // namespace

std::string_view ToString(HandshakeMode mode) {
  switch (mode) {
    case HandshakeMode::k1Rtt: return "1-RTT";
    case HandshakeMode::k0Rtt: return "0-RTT";
    case HandshakeMode::kRetry: return "Retry";
  }
  return "?";
}

std::optional<HandshakeMode> HandshakeModeFromString(std::string_view label) {
  for (HandshakeMode mode : {HandshakeMode::k1Rtt, HandshakeMode::k0Rtt, HandshakeMode::kRetry}) {
    if (ToString(mode) == label) return mode;
  }
  return std::nullopt;
}

RunContext::~RunContext() = default;

ExperimentResult RunContext::Run(const ExperimentConfig& config) { return Run(config, {}); }

ExperimentResult RunContext::Run(const ExperimentConfig& config, const InspectFn& inspect) {
  // Reset drops any events left over from the previous run (invalidating
  // their handles) before the old endpoints are replaced below, so no stale
  // callback can outlive the objects it captured.
  queue_.Reset();
  // The arena holds every wire object of the previous run — packet and frame
  // lists, ACK ranges, ledger frame spans — all trivially destructible, and
  // the queue reset above dropped the last closures viewing them: rewinding
  // it wholesale is the whole teardown. The endpoint resets below clear the
  // remaining views (pending frames, the undecryptable stash) before any
  // can be read.
  arena_.Reset();
  sim::EventQueue& queue = queue_;
  sim::Rng rng(config.seed);

  sim::Link::Config link_config;
  link_config.one_way_delay = config.rtt / 2;
  link_config.bandwidth_bps = config.bandwidth_bps;
  link_config.jitter = config.path_jitter;
  link_config.model = config.link;
  // Reset-in-place on warm contexts: the endpoints and link rewind to
  // freshly-constructed state (re-deriving everything from config + seed)
  // while keeping every container's capacity, so repeated runs construct and
  // destroy nothing.
  if (link_.has_value()) {
    link_->ResetForRun(link_config, rng.Fork(1), config.loss);
  } else {
    link_.emplace(queue, link_config, rng.Fork(1));
    link_->set_loss_pattern(config.loss);
  }
  sim::Link& link = *link_;

  const bool inspected = static_cast<bool>(inspect);
  quic::ClientConfig client_config{BuildClientConfig(config, inspected)};
  client_config.enable_0rtt = config.mode == HandshakeMode::k0Rtt;
  client_config.use_retry_as_rtt_sample = config.client_use_retry_rtt_sample;
  if (client_.has_value()) {
    client_->ResetForRun(client_config, rng.Fork(2));
  } else {
    client_.emplace(queue, client_config, rng.Fork(2), &arena_);
  }
  if (server_.has_value()) {
    server_->ResetForRun(BuildServerConfig(config, inspected), rng.Fork(3));
  } else {
    server_.emplace(queue, BuildServerConfig(config, inspected), rng.Fork(3), &arena_);
  }

  quic::ClientConnection* client_ptr = &*client_;
  quic::ServerConnection* server_ptr = &*server_;
  quic::ClientConnection* client = client_ptr;
  quic::ServerConnection* server = server_ptr;

  if (config.capture_qlog) {
    // transport:datagram_dropped is recorded at the vantage point that would
    // have received the datagram. The hook draws no randomness, so capture
    // cannot change the run.
    link.set_drop_hook([client_ptr, server_ptr, &queue](sim::Direction direction,
                                                        sim::Link::DropCause cause,
                                                        std::size_t bytes) {
      qlog::StructEvent event;
      event.kind = qlog::StructEvent::Kind::kDatagramDropped;
      event.detail = static_cast<std::uint8_t>(cause);
      event.time = queue.now();
      event.size = bytes;
      if (direction == sim::Direction::kClientToServer) {
        server_ptr->trace().RecordEvent(event);
      } else {
        client_ptr->trace().RecordEvent(event);
      }
    });
  }

  // The datagram is stamped with the index the link will assign and then
  // moved into the delivery closure — no shared ownership, no copy on
  // delivery, and the capture fits the closure's inline buffer.
  client->set_send_function([&link, server_ptr](quic::Datagram&& datagram) {
    const std::size_t size = datagram.WireSize();
    datagram.index = link.PeekNextIndex(sim::Direction::kClientToServer);
    link.Send(sim::Direction::kClientToServer, size,
              [server_ptr, d = std::move(datagram)]() mutable {
                server_ptr->OnDatagramReceived(std::move(d));
              });
  });
  server->set_send_function([&link, client_ptr](quic::Datagram&& datagram) {
    const std::size_t size = datagram.WireSize();
    datagram.index = link.PeekNextIndex(sim::Direction::kServerToClient);
    link.Send(sim::Direction::kServerToClient, size,
              [client_ptr, d = std::move(datagram)]() mutable {
                client_ptr->OnDatagramReceived(std::move(d));
              });
  });

  client->Start();

  const sim::Time deadline = config.time_limit;
  while (queue.PendingCount() > 0 && queue.now() <= deadline) {
    if (client->response_complete() || client->closed() || server->closed()) break;
    queue.RunOne();
  }

  if (inspect) inspect(*client, *server);
  obs::CountMax(obs::kArenaBytesHighWater, arena_.BytesUsed());

  ExperimentResult result;
  result.client = client->metrics();
  result.server = server->metrics();
  result.realized_cert_delay = server->realized_cert_delay();
  result.completed = client->response_complete();
  result.end_time = queue.now();
  result.client_to_server = link.stats(sim::Direction::kClientToServer);
  result.server_to_client = link.stats(sim::Direction::kServerToClient);
  result.client_metric_updates = client->trace().TakeMetrics();
  result.client_packets_with_new_acks = client->trace().packets_with_new_acks();
  return result;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  return RunExperiment(config, {});
}

ExperimentResult RunExperiment(
    const ExperimentConfig& config,
    const std::function<void(const quic::ClientConnection&, const quic::ServerConnection&)>&
        inspect) {
  // Every caller on a thread shares one warm context; a re-entrant call
  // (e.g. an inspect hook running a nested experiment) falls back to a
  // fresh context rather than corrupting the one in use.
  thread_local RunContext context;
  thread_local bool context_busy = false;
  if (context_busy) {
    RunContext fresh;
    return fresh.Run(config, inspect);
  }
  context_busy = true;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = false; }
  } guard{&context_busy};
  return context.Run(config, inspect);
}

std::vector<double> RunRepetitions(ExperimentConfig config, int repetitions,
                                   const std::function<double(const ExperimentResult&)>& extract) {
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(repetitions));
  const std::uint64_t base_seed = config.seed;
  for (int i = 0; i < repetitions; ++i) {
    config.seed = base_seed + static_cast<std::uint64_t>(i) * 7919;
    values.push_back(extract(RunExperiment(config)));
  }
  return values;
}

std::vector<double> CollectTtfbMs(ExperimentConfig config, int repetitions) {
  std::vector<double> all = RunRepetitions(std::move(config), repetitions,
                                           [](const ExperimentResult& r) { return r.TtfbMs(); });
  std::vector<double> valid;
  valid.reserve(all.size());
  for (double v : all) {
    if (v >= 0) valid.push_back(v);
  }
  return valid;
}

std::vector<double> CollectResponseTtfbMs(ExperimentConfig config, int repetitions) {
  std::vector<double> all =
      RunRepetitions(std::move(config), repetitions,
                     [](const ExperimentResult& r) { return r.ResponseTtfbMs(); });
  std::vector<double> valid;
  valid.reserve(all.size());
  for (double v : all) {
    if (v >= 0) valid.push_back(v);
  }
  return valid;
}

}  // namespace quicer::core
