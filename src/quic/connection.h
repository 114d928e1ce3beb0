// QUIC connection state machine (endpoint-role-independent core).
//
// Implements the protocol mechanics the paper's findings rest on:
//
//  * three packet number spaces with separate ack/loss state;
//  * RTT sampling rules — only an ACK whose largest newly-acked packet is
//    ack-eliciting yields a sample (RFC 9002 §5.1). This is why an instant
//    ACK gives the *client* a sample while leaving the *server* without one
//    (Fig 6);
//  * PTO arming per RFC 9002 §6.2 including the anti-deadlock rule: a client
//    with nothing in flight keeps probing until the handshake is confirmed,
//    which is what lets it refill a server's anti-amplification budget
//    (Fig 5);
//  * deterministic datagram coalescing, key discard, probe transmission with
//    exponential backoff, NewReno congestion control and connection-level
//    flow control (MAX_DATA cadence drives Fig 11).
//
// Documented implementation quirks (Table 4 / §4) are configuration, not
// subclasses: default PTO, second-flight coalescing, whether Initial-space
// RTT samples are used (picoquic), whether an emptied in-flight set re-arms
// the PTO from the new sample (mvfst/picoquic), erroneous smoothed-RTT
// initialisation (go-x-net), and the quiche datagram-drop / CID-retirement
// behaviours.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/http.h"
#include "qlog/qlog.h"
#include "quic/ack_manager.h"
#include "quic/amplification.h"
#include "quic/cid_manager.h"
#include "quic/crypto_buffer.h"
#include "quic/frame.h"
#include "quic/packet.h"
#include "quic/types.h"
#include "recovery/congestion.h"
#include "recovery/pto.h"
#include "recovery/rtt_estimator.h"
#include "recovery/sent_packets.h"
#include "sim/arena.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "tls/messages.h"

namespace quicer::quic {

/// Behaviour knobs shared by both endpoint roles. Client implementation
/// profiles (Table 4) and the reference server populate this.
struct ConnectionConfig {
  recovery::PtoConfig pto;
  recovery::RttVarFormula rttvar_formula = recovery::RttVarFormula::kRfc9002;
  AckPolicy ack_policy;  // applied to the 1-RTT space; Initial/Handshake ack immediately
  tls::HandshakeSizes tls;
  http::Version http_version = http::Version::kHttp1;

  /// Fixed local processing delay applied before a received datagram takes
  /// effect (QUIC stack + scheduling overhead, §4.1).
  sim::Duration processing_delay = 0;
  /// Additional uniform jitter in [0, processing_jitter] on top.
  sim::Duration processing_jitter = 0;

  /// Number of probe datagrams sent per PTO expiry (RFC 9002 allows 1-2).
  /// Senders without an RTT sample send the larger count.
  int probe_count_without_rtt = 2;
  int probe_count_with_rtt = 1;
  /// Probe content when nothing is outstanding: retransmit the last-sent
  /// CRYPTO flight instead of a PING (§5 "clients can retransmit the
  /// ClientHello").
  bool probe_with_data = false;

  /// RFC 9000 §13.2: endpoints MAY ignore the ACK Delay field in Initial
  /// packets; all modelled stacks do.
  bool apply_ack_delay_in_initial = false;

  // --- documented implementation quirks ---
  /// picoquic ignores RTT samples from the Initial space (§4.2).
  bool use_initial_space_rtt_samples = true;
  /// mvfst/picoquic do not re-arm the PTO from a fresh sample when an ACK
  /// empties the in-flight set pre-handshake ("receiving an instant ACK does
  /// not cause the client to send probe packets", §4.1).
  bool rearm_pto_on_empty_inflight = true;
  /// go-x-net sometimes initialises smoothed RTT wrongly (§4.1).
  std::optional<sim::Duration> wrong_first_srtt;
  double wrong_first_srtt_probability = 0.0;
  /// quiche drops a coalesced datagram that acknowledges one of its PING
  /// probes (§4.1, HTTP/1.1 only — profiles gate it).
  bool drop_coalesced_ping_reply = false;
  /// quiche aborts when asked to retire the same CID twice (§4.2).
  bool abort_on_duplicate_cid_retirement = false;

  // --- second client flight shaping (Table 4) ---
  /// Number of UDP datagrams the second client flight occupies (1-4).
  int second_flight_datagrams = 3;
  /// Defer even Initial ACKs so they coalesce with the second flight
  /// (quiche's single-datagram second flight).
  bool defer_acks_until_flight = false;
  /// Coalesce Initial and Handshake ACKs into one datagram (picoquic: no).
  bool coalesce_acks = true;

  // --- flow control (Fig 11) ---
  /// Grant window advertised to the peer above the bytes consumed.
  std::size_t local_max_data = 1 * 1024 * 1024;
  /// Send a MAX_DATA update every this many received stream bytes.
  std::size_t flow_update_interval_bytes = 64 * 1024;

  /// Idle timeout (RFC 9000 §10.1): the connection closes after this long
  /// without receiving any datagram. 0 disables the timer.
  sim::Duration idle_timeout = sim::Seconds(30);

  qlog::TraceConfig trace;
};

/// Timing and event counters extracted after a run.
struct ConnectionMetrics {
  sim::Time start_time = -1;
  sim::Time first_ack_received = -1;       // first ACK frame from the peer
  sim::Time first_crypto_received = -1;    // first CRYPTO frame (SH for clients)
  sim::Time first_stream_byte = -1;        // TTFB: first STREAM frame from peer
  /// First byte on the request/response stream (excludes the H3 control
  /// stream SETTINGS — the "first payload byte after the loss event" of
  /// Fig 6/7/12/13, Appendix F).
  sim::Time first_response_byte = -1;
  sim::Time handshake_complete = -1;
  sim::Time handshake_confirmed = -1;
  sim::Time response_complete = -1;
  sim::Duration first_rtt_sample = -1;
  sim::Duration first_pto_period = -1;     // PTO implied by the first sample
  int rtt_samples = 0;
  int pto_expirations = 0;
  int probe_datagrams_sent = 0;
  int retransmitted_frames = 0;
  int spurious_retransmits = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  /// UDP payload bytes on the wire (sum of datagram wire sizes), the
  /// denominator for link-utilization readouts under netem queue models.
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
  int datagrams_dropped_by_quirk = 0;
  std::uint64_t stream_bytes_received = 0;
  bool aborted = false;
  std::string abort_reason;
  int amp_blocked_events = 0;
};

/// Common endpoint machinery; ClientConnection / ServerConnection add the
/// handshake choreography.
class Connection {
 public:
  using SendFn = std::function<void(Datagram&&)>;

  /// `arena` is the per-repetition bump arena every wire object this
  /// connection sends lives in — packet and frame lists, ACK ranges, and the
  /// ledger's retransmittable-frame spans — normally the one owned by
  /// core::RunContext, reset wholesale between repetitions. Standalone
  /// constructions (tests, ad-hoc harnesses) may pass nullptr: the
  /// connection then owns a private arena with the same lifetime as itself.
  Connection(sim::EventQueue& queue, Perspective perspective, ConnectionConfig config,
             sim::Rng rng, sim::Arena* arena = nullptr);
  virtual ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Installs the transmit path (the harness wires this to the Link).
  void set_send_function(SendFn fn) { send_ = std::move(fn); }

  /// Entry point from the link; applies the processing-delay model and then
  /// dispatches to ProcessDatagram.
  void OnDatagramReceived(Datagram datagram);

  const ConnectionMetrics& metrics() const { return metrics_; }
  const qlog::Trace& trace() const { return trace_; }
  qlog::Trace& trace() { return trace_; }
  const recovery::RttEstimator& rtt() const { return rtt_; }
  const ConnectionConfig& config() const { return config_; }
  Perspective perspective() const { return perspective_; }
  bool closed() const { return closed_; }
  bool handshake_complete() const { return handshake_complete_; }
  bool handshake_confirmed() const { return handshake_confirmed_; }

  /// The amplification limiter (enforced only for servers).
  const AmplificationLimiter& amplification() const { return amp_; }

 protected:
  struct SpaceState {
    SpaceState(PacketNumberSpace s, AckPolicy policy) : acks(s, policy) {}
    std::uint64_t next_pn = 0;
    AckManager acks;
    recovery::SentPacketLedger ledger;
    CryptoBuffer crypto_rx;
    std::uint64_t crypto_tx_offset = 0;
    bool discarded = false;
    /// Frames queued for the next Flush().
    std::vector<Frame> pending;
  };

  /// Inbound per-stream receive state (high-watermark based; duplicate
  /// retransmissions do not double-count).
  struct InStream {
    std::uint64_t high_watermark = 0;
    bool fin_seen = false;
    std::uint64_t fin_offset = 0;
  };

  // ---- subclass interface ----
  virtual void HandleCrypto(PacketNumberSpace space, const CryptoFrame& frame) = 0;
  virtual void HandleStream(const StreamFrame& frame) = 0;
  virtual void HandleHandshakeDone() {}
  virtual void HandlePing(PacketNumberSpace space) { (void)space; }
  /// Retry packet received (clients only; RFC 9000 §8.1.2).
  virtual void HandleRetry(const RetryFrame& frame) { (void)frame; }
  /// Called after all packets of a datagram were processed; subclasses run
  /// flight-completion logic here (before the base flush).
  virtual void AfterDatagramProcessed() {}
  /// Called when the anti-amplification budget was lifted (validation).
  virtual void OnSendBudgetIncreased() {}
  /// A WFC server holds its Initial ACK until the certificate flight is
  /// ready; subclasses suppress immediate/timed ACK emission per space.
  virtual bool SuppressImmediateAck(PacketNumberSpace s) const {
    (void)s;
    return false;
  }

  // ---- services for subclasses ----
  sim::EventQueue& queue() { return queue_; }
  sim::Rng& rng() { return rng_; }
  SpaceState& space(PacketNumberSpace s) { return spaces_[SpaceIndex(s)]; }
  const SpaceState& space(PacketNumberSpace s) const { return spaces_[SpaceIndex(s)]; }
  ConnectionMetrics& mutable_metrics() { return metrics_; }
  AmplificationLimiter& amplification_mutable() { return amp_; }
  recovery::NewRenoCongestion& congestion() { return cc_; }
  /// Inbound receive state for `stream_id`, or nullptr before its first
  /// STREAM frame arrives.
  const InStream* FindInStream(std::uint64_t stream_id) const;

  /// Rewinds every member to its just-constructed state so the object can
  /// run another repetition without reallocation: container capacities are
  /// retained, all protocol state re-derives from (config, rng). The run
  /// arena is rewound by its owner. Subclasses extend this with their own
  /// state and MUST call the base version first.
  void ResetForRun(const ConnectionConfig& config, sim::Rng rng);

  /// Builds a packet in `s`, assigning the next packet number. The frames
  /// are copied into the run arena; the caller's storage (usually a scratch
  /// vector) is free for reuse on return.
  Packet BuildPacket(PacketNumberSpace s, sim::Span<const Frame> frames);

  /// Records and transmits one datagram of `packets` (copied into the run
  /// arena); pads to `pad_to` if non-zero. Returns false if the
  /// amplification limit blocked the send (packet numbers are returned; the
  /// caller keeps its data).
  bool SendDatagramNow(sim::Span<const Packet> packets, std::size_t pad_to = 0);

  /// Builds a packet in `s` around `frames` and transmits it as its own
  /// datagram (same return contract as SendDatagramNow).
  bool SendPacketNow(PacketNumberSpace s, sim::Span<const Frame> frames, std::size_t pad_to = 0);

  /// Reusable build buffers for subclasses' flights: fill, hand to
  /// BuildPacket / SendDatagramNow (which copy into the arena), reuse.
  /// Capacity survives ResetForRun. Connection's own builders (Flush, ACK
  /// and probe emission) use them too, so a subclass must not hold one
  /// across a call into those.
  std::vector<Frame>& frame_scratch() { return frame_scratch_; }
  std::vector<Packet>& packet_scratch() { return packet_scratch_; }

  /// Emits ACK-only datagrams for every space that currently requires an
  /// immediate ACK, honouring the coalesce/defer configuration.
  void MaybeSendAcks();

  /// Pops the pending ACK for a space (to bundle into a flight packet).
  std::optional<AckFrame> PopAck(PacketNumberSpace s);

  /// Queues a frame for Flush().
  void QueueFrame(PacketNumberSpace s, Frame frame);

  /// Queues stream bytes for transmission in the 1-RTT space.
  void QueueStreamData(std::uint64_t stream_id, std::uint64_t bytes, bool fin);

  /// Packs queued frames + stream data into datagrams and transmits as much
  /// as amplification and congestion limits allow.
  void Flush();

  /// True while frames or stream bytes await transmission.
  bool HasQueuedData() const;

  /// Splits a TLS message into CRYPTO frames of at most `max_chunk` payload
  /// bytes, advancing the space's crypto send offset. The frames become the
  /// space's remembered crypto flight (what probe_with_data re-sends); the
  /// returned reference stays valid until the next call for `s`.
  const std::vector<Frame>& MakeCryptoFlight(PacketNumberSpace s, tls::MessageType message,
                                             std::size_t message_size, std::size_t max_chunk);

  /// As MakeCryptoFlight, but queues the frames for Flush() directly and
  /// does not remember them.
  void QueueCryptoFrames(PacketNumberSpace s, tls::MessageType message,
                         std::size_t message_size, std::size_t max_chunk);

  /// Discards keys/state of a space (RFC 9002 §6.4) and re-arms timers.
  void DiscardSpace(PacketNumberSpace s);

  /// Marks the handshake complete/confirmed (idempotent).
  void SetHandshakeComplete();
  void SetHandshakeConfirmed();

  /// Re-evaluates the loss-detection/PTO timer (RFC 9002 A.8).
  void SetLossDetectionTimer();

  /// Terminates the connection (idle timeout, quirk aborts).
  void CloseConnection(std::string_view reason);

  /// Re-processes packets that were buffered waiting for keys. Subclasses
  /// call this right after installing keys mid-hook (e.g. the client must
  /// absorb the 1-RTT tail of the server flight before building its own
  /// second flight, so replies coalesce into it).
  void ReprocessUndecryptable();

  /// Key availability management.
  bool HasHandshakeKeys() const { return has_handshake_keys_; }
  void InstallHandshakeKeys() { has_handshake_keys_ = true; }
  void InstallOneRttSendKeys() { has_one_rtt_send_keys_ = true; }
  void InstallOneRttRecvKeys() { has_one_rtt_recv_keys_ = true; }

  /// Base time used for anti-deadlock PTO arming.
  void TouchPtoBase() { pto_base_time_ = queue_.now(); }

  int pto_backoff_count() const { return pto_count_; }

  /// Token of the Initial packet currently being processed (0 = none);
  /// servers use this to validate Retry tokens.
  std::uint64_t current_packet_token() const { return current_packet_token_; }

  /// Injects an RTT sample that did not come from an ACK (a client MAY use
  /// the Retry packet as its first RTT estimate — §5).
  void InjectRttSample(sim::Duration latest);

 private:
  /// Packets that must wait for keys are copied into the undecryptable
  /// stash as views: their frames stay where the sender placed them.
  void ProcessDatagram(const Datagram& datagram);
  void ProcessPacket(const Packet& packet);
  void ProcessAckFrame(PacketNumberSpace s, const AckFrame& ack);
  void RecordRttSample(PacketNumberSpace s, sim::Duration latest, sim::Duration ack_delay);
  void HandleTimeThresholdLoss(SpaceState& state);
  void MaybeDeclarePersistentCongestion(const std::vector<recovery::SentPacket>& lost);
  /// Emits a qlog recovery:packet_lost event (no-op unless the trace
  /// captures structured events).
  void RecordPacketLost(PacketNumberSpace s, std::uint64_t packet_number,
                        bool time_threshold);
  /// Emits a qlog recovery:loss_timer_updated event. `event_type` follows
  /// qlog::StructEvent::detail (0 set / 1 cancelled / 2 expired);
  /// `timer_type` is 0 for the time-threshold (ack) timer, 1 for PTO.
  void RecordLossTimer(std::uint8_t event_type, std::uint8_t timer_type,
                       PacketNumberSpace s, sim::Time deadline);
  void OnStreamBytesReceived(const StreamFrame& frame);
  void OnLossDetectionTimeout();
  void OnAckTimerFired();
  void SendProbes(PacketNumberSpace s);
  sim::Duration LossDelay() const;
  bool ShouldDropByQuirk(const Datagram& datagram);
  void ArmAckTimer();
  InStream& InStreamFor(std::uint64_t stream_id);

  sim::EventQueue& queue_;
  Perspective perspective_;
  ConnectionConfig config_;
  sim::Rng rng_;
  SendFn send_;
  /// Fallback for standalone constructions; unset when the harness supplied
  /// a shared arena. Declared before every member that may hold a view into
  /// it.
  std::unique_ptr<sim::Arena> owned_arena_;
  sim::Arena* arena_;

  std::array<SpaceState, kNumSpaces> spaces_;
  recovery::RttEstimator rtt_;
  recovery::NewRenoCongestion cc_;
  AmplificationLimiter amp_;
  CidManager cids_;
  qlog::Trace trace_;
  ConnectionMetrics metrics_;

  sim::Timer loss_timer_;
  sim::Timer ack_timer_;
  sim::Timer idle_timer_;
  int pto_count_ = 0;
  sim::Time pto_base_time_ = 0;
  // Persistent-congestion span: earliest/latest send times of packets lost
  // since the last acknowledged ack-eliciting packet (RFC 9002 §7.6).
  sim::Time pc_span_start_ = sim::kNever;
  sim::Time pc_span_end_ = 0;
  std::uint64_t current_packet_token_ = 0;
  PacketNumberSpace pending_pto_space_ = PacketNumberSpace::kInitial;
  bool handshake_complete_ = false;
  bool handshake_confirmed_ = false;
  bool has_handshake_keys_ = false;
  bool has_one_rtt_send_keys_ = false;
  bool has_one_rtt_recv_keys_ = false;
  bool closed_ = false;
  /// True while ProcessDatagram runs: loss-timer re-arms are deferred to its
  /// single tail call (intermediate states are unobservable — no event can
  /// execute mid-callback).
  bool defer_loss_timer_ = false;

  // Outbound stream state.
  struct OutStream {
    std::uint64_t id = 0;
    std::uint64_t total = 0;
    std::uint64_t offset = 0;
    bool fin = false;
  };
  std::vector<OutStream> out_streams_;
  std::uint64_t peer_max_data_;
  std::uint64_t stream_bytes_sent_ = 0;

  // Inbound streams + flow control. Sorted by stream id; connections carry
  // a handful of streams, so a flat vector beats the node-based map.
  std::vector<std::pair<std::uint64_t, InStream>> in_streams_;
  std::uint64_t flow_bytes_since_update_ = 0;
  std::uint64_t flow_granted_ = 0;

  // Packets received before their keys were available, and the buffer
  // ReprocessUndecryptable swaps them into while it retries them.
  std::vector<Packet> pending_undecryptable_;
  std::vector<Packet> reprocess_scratch_;

  // Build buffers (see frame_scratch()). Sends never re-enter the
  // connection — delivery always goes through the event queue — so one
  // instance each suffices.
  std::vector<Frame> frame_scratch_;
  std::vector<Packet> packet_scratch_;
  // One frame group per space for the PTO probe being built.
  std::array<std::vector<Frame>, kNumSpaces> probe_groups_;
  // The "closed: <reason>" trace note, built in place so closing a
  // connection never allocates once the buffer has grown.
  std::string close_note_;

  // Reusable per-ACK scratch buffers: ProcessAckFrame and the loss handlers
  // run to completion before anyone else can observe them, so a single
  // instance per connection suffices and the per-ACK hot path stops
  // allocating result vectors.
  recovery::AckResult ack_scratch_;
  std::vector<recovery::SentPacket> loss_scratch_;

  // Outstanding retransmittable frames a PTO gathers for its probes, as
  // (space, frame in the run arena) pointers; reused across PTOs.
  std::vector<std::pair<PacketNumberSpace, const Frame*>> probe_frames_;

  // Last crypto flight per space (probe_with_data).
  std::array<std::vector<Frame>, kNumSpaces> last_crypto_sent_;

  // Reused NEW_CONNECTION_ID processing scratch (same run-to-completion
  // argument as ack_scratch_).
  CidManager::ProcessResult cid_scratch_;

  // Quirk bookkeeping. ping_only_pns_ is append-only and searched linearly
  // (a handful of probe PINGs at most); probed_pns_ is kept sorted unique so
  // the spurious-retransmit check stays a binary search.
  std::vector<std::pair<PacketNumberSpace, std::uint64_t>> ping_only_pns_;
  std::vector<std::pair<PacketNumberSpace, std::uint64_t>> probed_pns_;
  bool ping_drop_quirk_used_ = false;
};

}  // namespace quicer::quic
