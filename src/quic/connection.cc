#include "quic/connection.h"

#include <algorithm>
#include <array>
#include <new>
#include <string_view>
#include <utility>

#include "obs/telemetry.h"

namespace quicer::quic {
namespace {

/// Initial connection-level flow-control credit before any MAX_DATA arrives
/// (stand-in for the transport-parameter exchange).
constexpr std::uint64_t kInitialMaxData = 1 * 1024 * 1024;

/// Approximate per-frame overhead of a STREAM frame header.
constexpr std::size_t kStreamFrameOverhead = 12;

/// Minimum bytes of budget a blocked server needs before arming its PTO.
constexpr std::size_t kMinProbeBudget = 50;

/// The per-PTO trace note, one fixed string per space (indexed by
/// SpaceIndex; the names are ToString(space)), so recording it never
/// allocates.
constexpr std::string_view kPtoExpiredNotes[kNumSpaces] = {
    "PTO expired (space Initial)", "PTO expired (space Handshake)", "PTO expired (space 1-RTT)"};

AckPolicy ImmediateAckPolicy(const AckPolicy& base) {
  AckPolicy policy = base;
  policy.packet_tolerance = 1;
  return policy;
}

using SpacePn = std::pair<PacketNumberSpace, std::uint64_t>;

/// Set-like insert into a sorted vector: no-op if `key` is present.
void InsertSortedPn(std::vector<SpacePn>& pns, SpacePn key) {
  const auto it = std::lower_bound(pns.begin(), pns.end(), key);
  if (it != pns.end() && *it == key) return;
  pns.insert(it, key);
}

/// Removes `key` from a sorted vector; returns whether it was present.
bool EraseSortedPn(std::vector<SpacePn>& pns, SpacePn key) {
  const auto it = std::lower_bound(pns.begin(), pns.end(), key);
  if (it == pns.end() || *it != key) return false;
  pns.erase(it);
  return true;
}

/// Copies a packet's frame list or a datagram's packet list into the run
/// arena. Counted under the quic.pool.* telemetry names: `acquire` per
/// placement, `hit` when the arena served it from chunks it already held.
template <typename T>
sim::Span<T> Place(sim::Arena& arena, sim::Span<const T> items, obs::Counter acquire,
                   obs::Counter hit) {
  const std::size_t chunks = arena.chunk_count();
  const sim::Span<T> placed = arena.Copy(items.data, items.size());
  obs::Count(acquire);
  if (arena.chunk_count() == chunks) obs::Count(hit);
  return placed;
}

}  // namespace

Connection::Connection(sim::EventQueue& queue, Perspective perspective, ConnectionConfig config,
                       sim::Rng rng, sim::Arena* arena)
    : queue_(queue),
      perspective_(perspective),
      config_(config),
      rng_(rng),
      owned_arena_(arena != nullptr ? nullptr : std::make_unique<sim::Arena>()),
      arena_(arena != nullptr ? arena : owned_arena_.get()),
      spaces_{SpaceState(PacketNumberSpace::kInitial, ImmediateAckPolicy(config.ack_policy)),
              SpaceState(PacketNumberSpace::kHandshake, ImmediateAckPolicy(config.ack_policy)),
              SpaceState(PacketNumberSpace::kAppData, config.ack_policy)},
      rtt_(config.rttvar_formula),
      cc_(),
      amp_(perspective == Perspective::kServer),
      trace_(config.trace, rng_.Fork(0x71061)),
      loss_timer_(queue, [this] { OnLossDetectionTimeout(); }),
      ack_timer_(queue, [this] { OnAckTimerFired(); }),
      idle_timer_(queue, [this] { CloseConnection("idle timeout"); }),
      peer_max_data_(kInitialMaxData) {
  metrics_.start_time = queue_.now();
  flow_granted_ = kInitialMaxData;
  if (config_.idle_timeout > 0) idle_timer_.SetDeadline(queue_.now() + config_.idle_timeout);
}

Connection::~Connection() = default;

void Connection::ResetForRun(const ConnectionConfig& config, sim::Rng rng) {
  config_ = config;
  rng_ = rng;
  // send_ is left untouched: the harness re-installs it after every reset
  // (the closure captures the current link/peer).

  for (int idx = 0; idx < kNumSpaces; ++idx) {
    SpaceState& state = spaces_[idx];
    const auto s = static_cast<PacketNumberSpace>(idx);
    state.next_pn = 0;
    state.acks.Reset(s == PacketNumberSpace::kAppData ? config_.ack_policy
                                                      : ImmediateAckPolicy(config_.ack_policy));
    state.ledger.Reset();
    state.crypto_rx.Reset();
    state.crypto_tx_offset = 0;
    state.discarded = false;
    state.pending.clear();
    last_crypto_sent_[idx].clear();
  }
  rtt_ = recovery::RttEstimator(config_.rttvar_formula);
  cc_ = recovery::NewRenoCongestion();
  amp_ = AmplificationLimiter(perspective_ == Perspective::kServer);
  cids_.Reset();
  // Same fork label as the constructor, so a reset connection draws the
  // exact trace-sampling stream a fresh one would.
  trace_.Reset(config_.trace, rng_.Fork(0x71061));
  metrics_ = ConnectionMetrics{};

  // The run harness reset the event queue wholesale, so every timer handle
  // is already dead; forget them without touching the queue.
  loss_timer_.ResetForReuse();
  ack_timer_.ResetForReuse();
  idle_timer_.ResetForReuse();
  pto_count_ = 0;
  pto_base_time_ = 0;
  pc_span_start_ = sim::kNever;
  pc_span_end_ = 0;
  current_packet_token_ = 0;
  pending_pto_space_ = PacketNumberSpace::kInitial;
  handshake_complete_ = false;
  handshake_confirmed_ = false;
  has_handshake_keys_ = false;
  has_one_rtt_send_keys_ = false;
  has_one_rtt_recv_keys_ = false;
  closed_ = false;
  defer_loss_timer_ = false;

  out_streams_.clear();
  peer_max_data_ = kInitialMaxData;
  stream_bytes_sent_ = 0;
  in_streams_.clear();
  flow_bytes_since_update_ = 0;
  flow_granted_ = kInitialMaxData;
  pending_undecryptable_.clear();
  ping_only_pns_.clear();
  probed_pns_.clear();
  ping_drop_quirk_used_ = false;

  metrics_.start_time = queue_.now();
  if (config_.idle_timeout > 0) idle_timer_.SetDeadline(queue_.now() + config_.idle_timeout);
}

Packet Connection::BuildPacket(PacketNumberSpace s, sim::Span<const Frame> frames) {
  Packet packet;
  packet.space = s;
  packet.packet_number = space(s).next_pn++;
  packet.frames = Place(*arena_, frames, obs::kPoolFrameAcquire, obs::kPoolFrameHit);
  packet.wire_size = packet.WireSize();
  return packet;
}

bool Connection::SendDatagramNow(sim::Span<const Packet> packets, std::size_t pad_to) {
  if (closed_ || packets.empty()) return false;
  Datagram datagram;
  datagram.packets = Place(*arena_, packets, obs::kPoolPacketAcquire, obs::kPoolPacketHit);
  if (pad_to > 0) PadDatagramTo(datagram, pad_to, *arena_);
  const std::size_t size = datagram.WireSize();

  if (!amp_.CanSend(size)) {
    amp_.NoteBlocked(queue_.now());
    ++metrics_.amp_blocked_events;
    // Return the unused packet numbers: nothing hit the wire.
    for (std::size_t i = datagram.packets.size(); i-- > 0;) {
      SpaceState& state = space(datagram.packets[i].space);
      if (state.next_pn == datagram.packets[i].packet_number + 1) --state.next_pn;
    }
    return false;
  }
  amp_.OnBytesSent(size);

  bool any_ack_eliciting = false;
  for (const Packet& packet : datagram.packets) {
    const bool ack_eliciting = packet.IsAckEliciting();
    const bool in_flight = ack_eliciting || packet.Has<PaddingFrame>();
    const std::size_t wire_size = packet.wire_size != 0 ? packet.wire_size : packet.WireSize();
    any_ack_eliciting |= ack_eliciting;

    trace_.RecordPacket(qlog::PacketEvent{queue_.now(), /*sent=*/true, packet.space,
                                          packet.packet_number, wire_size, ack_eliciting});
    if (ack_eliciting) {
      recovery::SentPacket sent;
      sent.packet_number = packet.packet_number;
      sent.sent_time = queue_.now();
      sent.bytes = wire_size;
      sent.ack_eliciting = true;
      sent.in_flight = in_flight;
      // Park the retransmittable frames in the run arena: one bump per
      // packet, dropped wholesale on ack/loss, reclaimed at repetition
      // reset.
      std::uint32_t retrans_count = 0;
      for (const Frame& frame : packet.frames) {
        if (IsRetransmittable(frame)) ++retrans_count;
      }
      if (retrans_count > 0) {
        Frame* parked = arena_->AllocateUninitialized<Frame>(retrans_count);
        std::uint32_t at = 0;
        for (const Frame& frame : packet.frames) {
          if (IsRetransmittable(frame)) ::new (static_cast<void*>(parked + at++)) Frame(frame);
        }
        sent.retransmittable = recovery::FrameSpan{parked, retrans_count};
      }
      space(packet.space).ledger.OnPacketSent(sent);
    }
    if (in_flight) cc_.OnPacketSent(wire_size);
  }

  ++metrics_.datagrams_sent;
  metrics_.wire_bytes_sent += size;
  if (send_) send_(std::move(datagram));
  if (any_ack_eliciting) SetLossDetectionTimer();
  return true;
}

bool Connection::SendPacketNow(PacketNumberSpace s, sim::Span<const Frame> frames,
                               std::size_t pad_to) {
  const Packet packet = BuildPacket(s, frames);
  return SendDatagramNow({&packet, 1}, pad_to);
}

void Connection::MaybeSendAcks() {
  if (closed_) return;
  // Cheap precheck: most calls find nothing due.
  bool any_due = false;
  for (const auto& state : spaces_) {
    if (!state.discarded && state.acks.ShouldAckImmediately()) {
      any_due = true;
      break;
    }
  }
  if (!any_due) return;
  std::vector<Packet>& due = packet_scratch_;
  due.clear();
  for (auto& state : spaces_) {
    if (state.discarded || !state.acks.ShouldAckImmediately()) continue;
    if (SuppressImmediateAck(state.acks.space())) continue;
    // quiche-style batching: hold handshake-phase ACKs for the delayed-ACK
    // timer so they coalesce with the second flight.
    if (config_.defer_acks_until_flight && !handshake_complete_ &&
        state.acks.space() != PacketNumberSpace::kAppData) {
      continue;
    }
    if (auto ack = state.acks.BuildAck(queue_.now(), *arena_)) {
      const Frame frame{*ack};
      due.push_back(BuildPacket(state.acks.space(), {&frame, 1}));
    }
  }
  if (due.empty()) return;

  if (config_.coalesce_acks) {
    SendDatagramNow(due);
  } else {
    for (const Packet& packet : due) SendDatagramNow({&packet, 1});
  }
}

std::optional<AckFrame> Connection::PopAck(PacketNumberSpace s) {
  SpaceState& state = space(s);
  if (state.discarded || !state.acks.HasPendingAck()) return std::nullopt;
  return state.acks.BuildAck(queue_.now(), *arena_);
}

void Connection::QueueFrame(PacketNumberSpace s, Frame frame) {
  space(s).pending.push_back(std::move(frame));
}

void Connection::QueueStreamData(std::uint64_t stream_id, std::uint64_t bytes, bool fin) {
  out_streams_.push_back(OutStream{stream_id, bytes, 0, fin});
}

const std::vector<Frame>& Connection::MakeCryptoFlight(PacketNumberSpace s,
                                                      tls::MessageType message,
                                                      std::size_t message_size,
                                                      std::size_t max_chunk) {
  std::vector<Frame>& frames = last_crypto_sent_[SpaceIndex(s)];
  frames.clear();
  SpaceState& state = space(s);
  std::size_t remaining = message_size;
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, max_chunk);
    CryptoFrame frame;
    frame.offset = state.crypto_tx_offset;
    frame.length = static_cast<std::uint32_t>(chunk);
    frame.message = message;
    frames.emplace_back(frame);
    state.crypto_tx_offset += chunk;
    remaining -= chunk;
  }
  return frames;
}

void Connection::QueueCryptoFrames(PacketNumberSpace s, tls::MessageType message,
                                   std::size_t message_size, std::size_t max_chunk) {
  SpaceState& state = space(s);
  std::size_t remaining = message_size;
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, max_chunk);
    CryptoFrame frame;
    frame.offset = state.crypto_tx_offset;
    frame.length = static_cast<std::uint32_t>(chunk);
    frame.message = message;
    state.pending.emplace_back(frame);
    state.crypto_tx_offset += chunk;
    remaining -= chunk;
  }
}

bool Connection::HasQueuedData() const {
  for (const auto& state : spaces_) {
    if (!state.discarded && !state.pending.empty()) return true;
  }
  for (const auto& stream : out_streams_) {
    if (stream.offset < stream.total) return true;
  }
  return false;
}

void Connection::Flush() {
  if (closed_) return;
  // Fast path: with no queued control/crypto frames and no stream data the
  // loop below could only build an empty datagram; skip straight to the
  // unblocked bookkeeping it would have reached.
  if (!HasQueuedData()) {
    amp_.NoteUnblocked(queue_.now());
    return;
  }
  std::vector<Packet>& packets = packet_scratch_;
  std::vector<Frame>& frames = frame_scratch_;
  while (true) {
    packets.clear();
    std::size_t used = 0;
    const std::size_t capacity = kMaxDatagramSize;

    for (auto& state : spaces_) {
      if (state.discarded) continue;
      const PacketNumberSpace s = state.acks.space();
      if (s == PacketNumberSpace::kAppData && !has_one_rtt_send_keys_) continue;

      const std::size_t header_cost = HeaderSize(s) + kAeadTagSize;
      if (capacity - used <= header_cost + 8) break;
      std::size_t packet_budget = capacity - used - header_cost;
      frames.clear();

      const bool has_payload =
          !state.pending.empty() ||
          (s == PacketNumberSpace::kAppData &&
           std::any_of(out_streams_.begin(), out_streams_.end(),
                       [](const OutStream& st) { return st.offset < st.total; }));

      // Opportunistically bundle a pending ACK with real payload.
      if (has_payload && state.acks.HasPendingAck()) {
        if (auto ack = state.acks.BuildAck(queue_.now(), *arena_)) {
          const Frame ack_frame{*ack};
          const std::size_t ack_size = quic::WireSize(ack_frame);
          if (ack_size <= packet_budget) {
            packet_budget -= ack_size;
            frames.push_back(ack_frame);
          }
        }
      }

      // Drain queued control/crypto frames that fit; CRYPTO and STREAM
      // frames split at the datagram boundary so flights pack densely
      // (the 2-datagram first server flight of Fig 3).
      while (!state.pending.empty()) {
        Frame& front = state.pending.front();
        const std::size_t frame_size = quic::WireSize(front);
        if (frame_size > packet_budget) {
          constexpr std::size_t kSplitOverhead = 10;
          if (packet_budget <= kSplitOverhead + 8) break;
          const std::size_t payload_fit = packet_budget - kSplitOverhead;
          if (auto* crypto = std::get_if<CryptoFrame>(&front)) {
            if (crypto->length > payload_fit) {
              CryptoFrame head = *crypto;
              head.length = static_cast<std::uint32_t>(payload_fit);
              crypto->offset += payload_fit;
              crypto->length -= static_cast<std::uint32_t>(payload_fit);
              packet_budget -= quic::WireSize(Frame(head));
              frames.push_back(head);
            }
          } else if (auto* stream = std::get_if<StreamFrame>(&front)) {
            if (stream->length > payload_fit) {
              StreamFrame head = *stream;
              head.length = static_cast<std::uint32_t>(payload_fit);
              head.fin = false;
              stream->offset += payload_fit;
              stream->length -= static_cast<std::uint32_t>(payload_fit);
              packet_budget -= quic::WireSize(Frame(head));
              frames.push_back(head);
            }
          }
          break;
        }
        packet_budget -= frame_size;
        frames.push_back(front);
        state.pending.erase(state.pending.begin());
      }

      // Fill remaining room with stream data (1-RTT only).
      if (s == PacketNumberSpace::kAppData) {
        for (OutStream& stream : out_streams_) {
          if (stream.offset >= stream.total) continue;
          if (packet_budget <= kStreamFrameOverhead) break;
          const std::uint64_t flow_room =
              peer_max_data_ > stream_bytes_sent_ ? peer_max_data_ - stream_bytes_sent_ : 0;
          std::uint64_t chunk = std::min<std::uint64_t>(
              stream.total - stream.offset, packet_budget - kStreamFrameOverhead);
          chunk = std::min(chunk, flow_room);
          if (chunk == 0) break;  // flow-control blocked
          StreamFrame frame;
          frame.stream_id = stream.id;
          frame.offset = stream.offset;
          frame.length = static_cast<std::uint32_t>(chunk);
          stream.offset += chunk;
          stream_bytes_sent_ += chunk;
          frame.fin = stream.fin && stream.offset == stream.total;
          const std::size_t frame_size = quic::WireSize(Frame(frame));
          packet_budget -= std::min(packet_budget, frame_size);
          frames.push_back(frame);
        }
      }

      if (frames.empty()) continue;
      packets.push_back(BuildPacket(s, frames));
      // Datagram::WireSize is the sum of its packets' sizes; accumulate
      // incrementally instead of rewalking every packet's frame list.
      used += packets.back().wire_size;
    }

    if (packets.empty()) break;

    // Congestion + amplification checks at datagram granularity (PTO probes
    // bypass Flush and are therefore exempt from CC, per RFC 9002 §7.5).
    const std::size_t size = used;
    const bool ack_eliciting = std::any_of(packets.begin(), packets.end(),
                                           [](const Packet& p) { return p.IsAckEliciting(); });
    const bool cc_blocked = ack_eliciting && !cc_.CanSend(size);
    const bool amp_blocked = !amp_.CanSend(size);
    if (cc_blocked || amp_blocked) {
      if (amp_blocked) {
        amp_.NoteBlocked(queue_.now());
        ++metrics_.amp_blocked_events;
      }
      // Put everything back for a later flush. The frames are copied out of
      // the arena; an ACK among them keeps its arena-placed ranges, which
      // stay valid for the rest of the run.
      for (auto it = packets.rbegin(); it != packets.rend(); ++it) {
        SpaceState& state = space(it->space);
        if (state.next_pn == it->packet_number + 1) --state.next_pn;
        state.pending.insert(state.pending.begin(), it->frames.begin(), it->frames.end());
      }
      break;
    }
    if (!SendDatagramNow(packets)) break;
  }

  if (!amp_.validated() && HasQueuedData() && amp_.Budget() < kMaxDatagramSize) {
    amp_.NoteBlocked(queue_.now());
  } else {
    amp_.NoteUnblocked(queue_.now());
  }
}

void Connection::DiscardSpace(PacketNumberSpace s) {
  SpaceState& state = space(s);
  if (state.discarded) return;
  state.discarded = true;
  cc_.OnPacketDiscarded(state.ledger.bytes_in_flight());
  state.ledger.Clear();
  state.pending.clear();
  // Discarding keys resets the PTO backoff (RFC 9002 §6.2.2).
  pto_count_ = 0;
  TouchPtoBase();
  SetLossDetectionTimer();
}

void Connection::SetHandshakeComplete() {
  if (handshake_complete_) return;
  handshake_complete_ = true;
  metrics_.handshake_complete = queue_.now();
  qlog::StructEvent event;
  event.kind = qlog::StructEvent::Kind::kConnectionStateUpdated;
  event.detail = 0;  // handshake_complete
  event.time = queue_.now();
  trace_.RecordEvent(event);
}

void Connection::SetHandshakeConfirmed() {
  if (handshake_confirmed_) return;
  handshake_confirmed_ = true;
  metrics_.handshake_confirmed = queue_.now();
  qlog::StructEvent event;
  event.kind = qlog::StructEvent::Kind::kConnectionStateUpdated;
  event.detail = 1;  // handshake_confirmed
  event.time = queue_.now();
  trace_.RecordEvent(event);
  if (!space(PacketNumberSpace::kHandshake).discarded) {
    DiscardSpace(PacketNumberSpace::kHandshake);
  }
}

void Connection::CloseConnection(std::string_view reason) {
  if (closed_) return;
  closed_ = true;
  metrics_.aborted = true;
  metrics_.abort_reason.assign(reason);
  close_note_.assign("closed: ");
  close_note_.append(reason);
  trace_.RecordNote(queue_.now(), "connectivity", close_note_);
  qlog::StructEvent event;
  event.kind = qlog::StructEvent::Kind::kConnectionStateUpdated;
  event.detail = 2;  // closed
  event.time = queue_.now();
  trace_.RecordEvent(event);
  loss_timer_.Cancel();
  ack_timer_.Cancel();
  idle_timer_.Cancel();
}

void Connection::OnDatagramReceived(Datagram datagram) {
  if (closed_) return;
  sim::Duration delay = config_.processing_delay;
  // Handshake-phase jitter only (the go-x-net reporting noise of §4.1);
  // jittering bulk-transfer datagrams would reorder the whole download.
  if (config_.processing_jitter > 0 && !handshake_complete_) {
    delay += static_cast<sim::Duration>(
        rng_.Uniform(0.0, static_cast<double>(config_.processing_jitter)));
  }
  if (delay <= 0) {
    ProcessDatagram(datagram);
  } else {
    queue_.Schedule(delay, [this, datagram] { ProcessDatagram(datagram); });
  }
}

bool Connection::ShouldDropByQuirk(const Datagram& datagram) {
  if (!config_.drop_coalesced_ping_reply || ping_drop_quirk_used_) return false;
  if (datagram.packets.size() < 2) return false;
  for (const Packet& packet : datagram.packets) {
    if (packet.space != PacketNumberSpace::kInitial) continue;
    const AckFrame* ack = packet.Find<AckFrame>();
    if (ack == nullptr) continue;
    for (const auto& [s, pn] : ping_only_pns_) {
      if (s == PacketNumberSpace::kInitial && ack->Acks(pn)) {
        ping_drop_quirk_used_ = true;
        return true;
      }
    }
  }
  return false;
}

void Connection::ProcessDatagram(const Datagram& datagram) {
  if (closed_) return;
  ++metrics_.datagrams_received;
  const std::size_t wire_size = datagram.WireSize();
  metrics_.wire_bytes_received += wire_size;
  amp_.OnBytesReceived(wire_size);
  // Any received datagram restarts the idle timer (RFC 9000 §10.1). The
  // restart always pushes the deadline later, so the lazy form avoids a
  // cancel+reschedule per datagram.
  if (config_.idle_timeout > 0) idle_timer_.SetDeadlineLazy(queue_.now() + config_.idle_timeout);

  if (ShouldDropByQuirk(datagram)) {
    ++metrics_.datagrams_dropped_by_quirk;
    trace_.RecordNote(queue_.now(), "quirk", "dropped coalesced datagram acking a PING probe");
    return;
  }

  // Defer loss-timer re-arms until the single tail call below; the guard
  // clears the flag on every exit path, including mid-processing closes.
  defer_loss_timer_ = true;
  struct DeferGuard {
    bool* flag;
    ~DeferGuard() { *flag = false; }
  } defer_guard{&defer_loss_timer_};

  for (const Packet& packet : datagram.packets) {
    ProcessPacket(packet);
    if (closed_) return;
  }
  // Retry packets that arrived before their keys — once now, and once more
  // after the subclass hook, which is where clients install 1-RTT keys upon
  // completing the server flight (the coalesced H3 SETTINGS depends on it).
  ReprocessUndecryptable();
  if (closed_) return;

  AfterDatagramProcessed();
  if (closed_) return;
  ReprocessUndecryptable();
  if (closed_) return;
  Flush();
  MaybeSendAcks();
  defer_loss_timer_ = false;
  SetLossDetectionTimer();
  ArmAckTimer();
}

void Connection::ReprocessUndecryptable() {
  if (pending_undecryptable_.empty()) return;
  if (!has_handshake_keys_ && !has_one_rtt_recv_keys_) return;
  std::vector<Packet>& retry = reprocess_scratch_;
  retry.swap(pending_undecryptable_);
  for (const Packet& packet : retry) {
    ProcessPacket(packet);
    if (closed_) break;
  }
  retry.clear();
}

void Connection::ProcessPacket(const Packet& packet) {
  SpaceState& state = space(packet.space);
  if (state.discarded) return;

  if (packet.space == PacketNumberSpace::kHandshake && !has_handshake_keys_) {
    pending_undecryptable_.push_back(packet);
    return;
  }
  if (packet.space == PacketNumberSpace::kAppData && !has_one_rtt_recv_keys_) {
    pending_undecryptable_.push_back(packet);
    return;
  }

  // Retry packets are unnumbered and never acknowledged; handle and return.
  if (const RetryFrame* retry = packet.Find<RetryFrame>()) {
    HandleRetry(*retry);
    return;
  }

  current_packet_token_ = packet.token;
  const bool ack_eliciting = packet.IsAckEliciting();
  if (!state.acks.OnPacketReceived(packet.packet_number, ack_eliciting, queue_.now())) {
    return;  // duplicate
  }
  trace_.RecordPacket(qlog::PacketEvent{
      queue_.now(), /*sent=*/false, packet.space, packet.packet_number,
      packet.wire_size != 0 ? packet.wire_size : packet.WireSize(), ack_eliciting});

  // Receiving a Handshake packet validates the client's address
  // (RFC 9000 §8.1) and lifts the server's anti-amplification limit.
  if (perspective_ == Perspective::kServer &&
      packet.space == PacketNumberSpace::kHandshake && !amp_.validated()) {
    amp_.OnAddressValidated();
    amp_.NoteUnblocked(queue_.now());
    OnSendBudgetIncreased();
  }

  for (const Frame& frame : packet.frames) {
    if (closed_) return;
    if (const auto* ack = std::get_if<AckFrame>(&frame)) {
      ProcessAckFrame(packet.space, *ack);
    } else if (const auto* crypto = std::get_if<CryptoFrame>(&frame)) {
      if (metrics_.first_crypto_received < 0) metrics_.first_crypto_received = queue_.now();
      state.crypto_rx.OnFrame(*crypto);
      HandleCrypto(packet.space, *crypto);
    } else if (const auto* stream = std::get_if<StreamFrame>(&frame)) {
      OnStreamBytesReceived(*stream);
      HandleStream(*stream);
    } else if (const auto* max_data = std::get_if<MaxDataFrame>(&frame)) {
      peer_max_data_ = std::max(peer_max_data_, max_data->maximum_data);
    } else if (std::holds_alternative<HandshakeDoneFrame>(frame)) {
      SetHandshakeConfirmed();
      HandleHandshakeDone();
    } else if (std::holds_alternative<PingFrame>(frame)) {
      HandlePing(packet.space);
    } else if (const auto* ncid = std::get_if<NewConnectionIdFrame>(&frame)) {
      cids_.OnNewConnectionIdInto(*ncid, cid_scratch_);
      if (cid_scratch_.duplicate_retirement && config_.abort_on_duplicate_cid_retirement) {
        CloseConnection("duplicate connection ID retirement");
        return;
      }
      for (const RetireConnectionIdFrame& retire : cid_scratch_.retirements) {
        QueueFrame(PacketNumberSpace::kAppData, retire);
      }
    } else if (std::holds_alternative<ConnectionCloseFrame>(frame)) {
      closed_ = true;
      loss_timer_.Cancel();
      ack_timer_.Cancel();
      idle_timer_.Cancel();
      return;
    }
    // PADDING / RETIRE_CONNECTION_ID need no receiver action here.
  }
}

void Connection::ProcessAckFrame(PacketNumberSpace s, const AckFrame& ack) {
  if (metrics_.first_ack_received < 0) metrics_.first_ack_received = queue_.now();
  SpaceState& state = space(s);
  recovery::AckResult& result = ack_scratch_;
  state.ledger.OnAckReceivedInto(ack, queue_.now(), result);
  if (result.newly_acked.empty()) return;

  trace_.CountNewAckPacket();

  for (const recovery::SentPacket& acked : result.newly_acked) {
    if (acked.in_flight) cc_.OnPacketAcked(acked.bytes, acked.sent_time);
    const auto key = std::make_pair(s, acked.packet_number);
    if (EraseSortedPn(probed_pns_, key)) {
      ++metrics_.spurious_retransmits;
      trace_.RecordNote(queue_.now(), "recovery", "spurious retransmit detected");
    }
  }

  if (result.rtt_sample_available &&
      (s != PacketNumberSpace::kInitial || config_.use_initial_space_rtt_samples)) {
    sim::Duration ack_delay = ack.ack_delay;
    if (s == PacketNumberSpace::kInitial && !config_.apply_ack_delay_in_initial) ack_delay = 0;
    RecordRttSample(s, result.latest_rtt, ack_delay);
  }

  if (result.any_ack_eliciting_newly_acked) {
    pto_count_ = 0;
    TouchPtoBase();
    // Forward progress ends any persistent-congestion span.
    pc_span_start_ = sim::kNever;
    pc_span_end_ = 0;
  }

  // Acked packets' frame spans need no recycling: the arena reclaims them
  // wholesale at repetition reset.

  // Loss detection after every ack (RFC 9002 A.7).
  std::vector<recovery::SentPacket>& lost = loss_scratch_;
  obs::Count(obs::kRecoveryLossDetectionRuns);
  state.ledger.DetectLossInto(queue_.now(), LossDelay(), lost);
  if (!lost.empty()) {
    obs::Count(obs::kRecoveryPacketsLost, lost.size());
    std::size_t lost_bytes = 0;
    sim::Time largest_sent = 0;
    for (recovery::SentPacket& packet : lost) {
      if (packet.in_flight) lost_bytes += packet.bytes;
      largest_sent = std::max(largest_sent, packet.sent_time);
      RecordPacketLost(s, packet.packet_number, /*time_threshold=*/false);
      InsertSortedPn(probed_pns_, {s, packet.packet_number});
      for (const Frame& frame : packet.retransmittable) {
        QueueFrame(s, frame);
        ++metrics_.retransmitted_frames;
      }
    }
    if (lost_bytes > 0) cc_.OnPacketsLost(lost_bytes, largest_sent, queue_.now());
    MaybeDeclarePersistentCongestion(lost);
  }
}

void Connection::InjectRttSample(sim::Duration latest) {
  RecordRttSample(PacketNumberSpace::kInitial, latest, 0);
}

void Connection::RecordRttSample(PacketNumberSpace s, sim::Duration latest,
                                 sim::Duration ack_delay) {
  (void)s;
  const bool first = !rtt_.has_sample();
  if (first && config_.wrong_first_srtt &&
      rng_.Bernoulli(config_.wrong_first_srtt_probability)) {
    // go-x-net quirk: smoothed RTT initialised to a wrong fixed value while
    // the latest sample is reported correctly.
    rtt_.OverrideFirstSample(*config_.wrong_first_srtt, *config_.wrong_first_srtt / 2);
    trace_.RecordNote(queue_.now(), "quirk", "smoothed RTT mis-initialised");
  } else {
    rtt_.AddSample(latest, ack_delay);
  }
  ++metrics_.rtt_samples;
  if (first) {
    metrics_.first_rtt_sample = latest;
    metrics_.first_pto_period =
        recovery::PtoPeriod(rtt_, config_.pto, PacketNumberSpace::kHandshake, false);
  }

  qlog::MetricsUpdate update;
  update.time = queue_.now();
  update.smoothed_rtt = rtt_.smoothed();
  update.rtt_var = rtt_.rttvar();
  update.latest_rtt = latest;
  update.min_rtt = rtt_.min_rtt();
  update.pto = recovery::PtoPeriod(rtt_, config_.pto, PacketNumberSpace::kHandshake, false);
  trace_.RecordMetrics(update);
}

sim::Duration Connection::LossDelay() const {
  const sim::Duration base = std::max(rtt_.smoothed(), rtt_.latest());
  return std::max(base * 9 / 8, recovery::kGranularity);
}

void Connection::RecordPacketLost(PacketNumberSpace s, std::uint64_t packet_number,
                                  bool time_threshold) {
  if (!trace_.capturing_events()) return;
  qlog::StructEvent event;
  event.kind = qlog::StructEvent::Kind::kPacketLost;
  event.detail = time_threshold ? 1 : 0;
  event.time = queue_.now();
  event.space = s;
  event.packet_number = packet_number;
  trace_.RecordEvent(event);
}

void Connection::RecordLossTimer(std::uint8_t event_type, std::uint8_t timer_type,
                                 PacketNumberSpace s, sim::Time deadline) {
  if (!trace_.capturing_events()) return;
  qlog::StructEvent event;
  event.kind = qlog::StructEvent::Kind::kLossTimerUpdated;
  event.detail = event_type;
  event.timer_type = timer_type;
  event.time = queue_.now();
  event.space = s;
  event.deadline = deadline;
  trace_.RecordEvent(event);
}

void Connection::SetLossDetectionTimer() {
  if (closed_) return;
  // While a datagram is being processed only the final re-arm (from the
  // ProcessDatagram tail) can be observed — no event runs in between — so
  // intermediate recomputations are skipped wholesale.
  if (defer_loss_timer_) return;
  obs::Count(obs::kRecoveryLossTimerUpdates);

  // Earliest time-threshold loss deadline.
  sim::Time loss_time = sim::kNever;
  PacketNumberSpace loss_space = PacketNumberSpace::kInitial;
  for (const auto& state : spaces_) {
    if (!state.discarded && state.ledger.loss_time() < loss_time) {
      loss_time = state.ledger.loss_time();
      loss_space = state.acks.space();
    }
  }
  if (loss_time != sim::kNever) {
    loss_timer_.SetDeadline(loss_time);
    RecordLossTimer(/*event_type=*/0, /*timer_type=*/0, loss_space, loss_time);
    return;
  }

  // A server blocked by the amplification limit cannot usefully probe.
  if (perspective_ == Perspective::kServer && !amp_.validated() &&
      amp_.Budget() < kMinProbeBudget) {
    if (loss_timer_.armed()) {
      RecordLossTimer(/*event_type=*/1, /*timer_type=*/1, pending_pto_space_, 0);
    }
    loss_timer_.Cancel();
    return;
  }

  bool ack_eliciting_in_flight = false;
  for (const auto& state : spaces_) {
    if (!state.discarded && state.ledger.HasAckElicitingInFlight()) {
      ack_eliciting_in_flight = true;
      break;
    }
  }

  if (!ack_eliciting_in_flight) {
    // Anti-deadlock (RFC 9002 A.8): a client keeps its PTO armed until the
    // handshake is confirmed so it can unblock an amplification-limited
    // server.
    if (perspective_ == Perspective::kClient && !handshake_confirmed_) {
      if (!config_.rearm_pto_on_empty_inflight && loss_timer_.armed()) {
        return;  // mvfst/picoquic: keep the original default-PTO deadline
      }
      const PacketNumberSpace s = has_handshake_keys_ ? PacketNumberSpace::kHandshake
                                                      : PacketNumberSpace::kInitial;
      pending_pto_space_ = s;
      const sim::Time deadline =
          pto_base_time_ + recovery::PtoPeriodWithBackoff(rtt_, config_.pto, s,
                                                          handshake_confirmed_, pto_count_);
      loss_timer_.SetDeadline(deadline);
      RecordLossTimer(/*event_type=*/0, /*timer_type=*/1, s, deadline);
      return;
    }
    if (loss_timer_.armed()) {
      RecordLossTimer(/*event_type=*/1, /*timer_type=*/1, pending_pto_space_, 0);
    }
    loss_timer_.Cancel();
    return;
  }

  sim::Time earliest = sim::kNever;
  PacketNumberSpace chosen = PacketNumberSpace::kInitial;
  for (const auto& state : spaces_) {
    if (state.discarded || !state.ledger.HasAckElicitingInFlight()) continue;
    const PacketNumberSpace s = state.acks.space();
    if (s == PacketNumberSpace::kAppData && !handshake_complete_) continue;
    const auto last_sent = state.ledger.LastAckElicitingSentTime();
    if (!last_sent) continue;
    const sim::Time deadline =
        *last_sent + recovery::PtoPeriodWithBackoff(rtt_, config_.pto, s, handshake_confirmed_,
                                                    pto_count_);
    if (deadline < earliest) {
      earliest = deadline;
      chosen = s;
    }
  }
  if (earliest == sim::kNever) {
    if (loss_timer_.armed()) {
      RecordLossTimer(/*event_type=*/1, /*timer_type=*/1, pending_pto_space_, 0);
    }
    loss_timer_.Cancel();
    return;
  }
  pending_pto_space_ = chosen;
  loss_timer_.SetDeadline(earliest);
  RecordLossTimer(/*event_type=*/0, /*timer_type=*/1, chosen, earliest);
}

void Connection::MaybeDeclarePersistentCongestion(
    const std::vector<recovery::SentPacket>& lost) {
  // RFC 9002 §7.6: declared when the packets lost since the last
  // acknowledged ack-eliciting packet span longer than the persistent-
  // congestion duration. The span accumulates across detection batches and
  // resets whenever an ack-eliciting packet is newly acknowledged.
  if (!rtt_.has_sample() || lost.empty()) return;
  for (const recovery::SentPacket& packet : lost) {
    if (!packet.ack_eliciting) continue;
    pc_span_start_ = std::min(pc_span_start_, packet.sent_time);
    pc_span_end_ = std::max(pc_span_end_, packet.sent_time);
  }
  if (pc_span_start_ == sim::kNever) return;
  const sim::Duration pto = recovery::PtoPeriod(rtt_, config_.pto,
                                                PacketNumberSpace::kAppData, true);
  if (pc_span_end_ - pc_span_start_ >
      recovery::NewRenoCongestion::PersistentCongestionDuration(pto)) {
    cc_.OnPersistentCongestion();
    trace_.RecordNote(queue_.now(), "recovery", "persistent congestion declared");
    pc_span_start_ = sim::kNever;
    pc_span_end_ = 0;
  }
}

void Connection::HandleTimeThresholdLoss(SpaceState& state) {
  std::vector<recovery::SentPacket>& lost = loss_scratch_;
  obs::Count(obs::kRecoveryLossDetectionRuns);
  state.ledger.DetectLossInto(queue_.now(), LossDelay(), lost);
  if (!lost.empty()) obs::Count(obs::kRecoveryPacketsLost, lost.size());
  std::size_t lost_bytes = 0;
  sim::Time largest_sent = 0;
  for (recovery::SentPacket& packet : lost) {
    if (packet.in_flight) lost_bytes += packet.bytes;
    largest_sent = std::max(largest_sent, packet.sent_time);
    RecordPacketLost(state.acks.space(), packet.packet_number, /*time_threshold=*/true);
    InsertSortedPn(probed_pns_, {state.acks.space(), packet.packet_number});
    for (const Frame& frame : packet.retransmittable) {
      QueueFrame(state.acks.space(), frame);
      ++metrics_.retransmitted_frames;
    }
  }
  if (lost_bytes > 0) cc_.OnPacketsLost(lost_bytes, largest_sent, queue_.now());
  MaybeDeclarePersistentCongestion(lost);
}

void Connection::OnLossDetectionTimeout() {
  if (closed_) return;

  // Time-threshold loss first.
  for (auto& state : spaces_) {
    if (state.discarded) continue;
    if (state.ledger.loss_time() != sim::kNever && state.ledger.loss_time() <= queue_.now()) {
      RecordLossTimer(/*event_type=*/2, /*timer_type=*/0, state.acks.space(), 0);
      HandleTimeThresholdLoss(state);
      Flush();
      SetLossDetectionTimer();
      return;
    }
  }

  // PTO expiry.
  ++metrics_.pto_expirations;
  obs::Count(obs::kRecoveryPtoFired);
  RecordLossTimer(/*event_type=*/2, /*timer_type=*/1, pending_pto_space_, 0);
  trace_.RecordNote(queue_.now(), "recovery", kPtoExpiredNotes[SpaceIndex(pending_pto_space_)]);
  TouchPtoBase();
  SendProbes(pending_pto_space_);
  ++pto_count_;
  SetLossDetectionTimer();
}

void Connection::OnAckTimerFired() {
  if (closed_) return;
  for (auto& state : spaces_) {
    if (state.discarded || !state.acks.HasPendingAck()) continue;
    if (SuppressImmediateAck(state.acks.space())) continue;
    if (auto ack = state.acks.BuildAck(queue_.now(), *arena_)) {
      const Frame frame{*ack};
      SendPacketNow(state.acks.space(), {&frame, 1});
    }
  }
  ArmAckTimer();
}

void Connection::SendProbes(PacketNumberSpace s) {
  // The armed space may have been discarded between arming and firing.
  if (space(s).discarded) {
    if (s == PacketNumberSpace::kInitial &&
        !space(PacketNumberSpace::kHandshake).discarded) {
      s = PacketNumberSpace::kHandshake;
    } else if (!space(PacketNumberSpace::kAppData).discarded && handshake_complete_) {
      s = PacketNumberSpace::kAppData;
    } else {
      return;
    }
  }
  // Gather outstanding retransmittable data starting at the probed space and
  // continuing through later spaces — real stacks coalesce retransmitted
  // flights the same way they coalesced the originals. A cursor spreads the
  // data across the 1-2 probe datagrams instead of duplicating it. The
  // frames stay where the ledgers parked them (the run arena); the scratch
  // list only points at them, so later probe sends cannot move them.
  probe_frames_.clear();
  for (int idx = SpaceIndex(s); idx < kNumSpaces; ++idx) {
    const PacketNumberSpace os = static_cast<PacketNumberSpace>(idx);
    SpaceState& other = space(os);
    if (other.discarded) continue;
    if (os == PacketNumberSpace::kAppData && !has_one_rtt_send_keys_) continue;
    for (const recovery::SentPacket& sent : other.ledger.Outstanding()) {
      for (const Frame& frame : sent.retransmittable) probe_frames_.emplace_back(os, &frame);
    }
  }

  const int count =
      rtt_.has_sample() ? config_.probe_count_with_rtt : config_.probe_count_without_rtt;
  std::size_t cursor = 0;
  for (int i = 0; i < count; ++i) {
    // Group this datagram's frames by space, preserving space order.
    std::array<std::vector<Frame>, kNumSpaces>& by_space = probe_groups_;
    for (std::vector<Frame>& group : by_space) group.clear();
    std::size_t budget = kMaxDatagramSize - 120;
    bool any_data = false;
    while (cursor < probe_frames_.size()) {
      const auto [frame_space, frame] = probe_frames_[cursor];
      const std::size_t size = quic::WireSize(*frame);
      if (size > budget) break;
      budget -= size;
      by_space[SpaceIndex(frame_space)].push_back(*frame);
      any_data = true;
      ++cursor;
    }

    std::vector<Packet>& packets = packet_scratch_;
    packets.clear();
    bool ping_only = false;
    if (any_data) {
      for (int idx = 0; idx < kNumSpaces; ++idx) {
        if (by_space[idx].empty()) continue;
        const PacketNumberSpace os = static_cast<PacketNumberSpace>(idx);
        for (const recovery::SentPacket& sent : space(os).ledger.Outstanding()) {
          InsertSortedPn(probed_pns_, {os, sent.packet_number});
        }
        metrics_.retransmitted_frames += static_cast<int>(by_space[idx].size());
        packets.push_back(BuildPacket(os, by_space[idx]));
      }
    } else if (config_.probe_with_data && !last_crypto_sent_[SpaceIndex(s)].empty()) {
      // §5 tuning: re-send the ClientHello (or last crypto flight) instead
      // of a PING so the server can recover state faster.
      const std::vector<Frame>& flight = last_crypto_sent_[SpaceIndex(s)];
      metrics_.retransmitted_frames += static_cast<int>(flight.size());
      packets.push_back(BuildPacket(s, flight));
    } else {
      const Frame ping{PingFrame{}};
      packets.push_back(BuildPacket(s, {&ping, 1}));
      ping_only = true;
    }

    const PacketNumberSpace probe_space = packets.front().space;
    const std::uint64_t pn = packets.front().packet_number;
    // Clients pad Initial probe datagrams to 1200 B, which also refills an
    // amplification-blocked server's budget (Fig 5).
    const std::size_t pad =
        (perspective_ == Perspective::kClient && probe_space == PacketNumberSpace::kInitial)
            ? kMinInitialDatagramSize
            : 0;
    if (SendDatagramNow(packets, pad)) {
      ++metrics_.probe_datagrams_sent;
      if (ping_only) ping_only_pns_.emplace_back(probe_space, pn);
    } else {
      break;  // amplification-blocked: stop probing
    }
  }
}

void Connection::OnStreamBytesReceived(const StreamFrame& frame) {
  if (frame.length > 0 && metrics_.first_stream_byte < 0) {
    metrics_.first_stream_byte = queue_.now();
  }
  if (frame.length > 0 && frame.stream_id == http::kRequestStreamId &&
      metrics_.first_response_byte < 0) {
    metrics_.first_response_byte = queue_.now();
  }
  InStream& in = InStreamFor(frame.stream_id);
  const std::uint64_t end = frame.offset + frame.length;
  std::uint64_t new_bytes = 0;
  if (end > in.high_watermark) {
    new_bytes = end - in.high_watermark;
    in.high_watermark = end;
  }
  if (frame.fin) {
    in.fin_seen = true;
    in.fin_offset = end;
  }
  metrics_.stream_bytes_received += new_bytes;

  // Connection-level flow control: grant more credit every
  // flow_update_interval_bytes (this cadence produces the per-client RTT
  // sample counts of Fig 11).
  flow_bytes_since_update_ += new_bytes;
  if (flow_bytes_since_update_ >= config_.flow_update_interval_bytes && handshake_complete_) {
    flow_bytes_since_update_ = 0;
    flow_granted_ = metrics_.stream_bytes_received + config_.local_max_data;
    QueueFrame(PacketNumberSpace::kAppData, MaxDataFrame{flow_granted_});
  }
}

const Connection::InStream* Connection::FindInStream(std::uint64_t stream_id) const {
  const auto it = std::lower_bound(
      in_streams_.begin(), in_streams_.end(), stream_id,
      [](const auto& entry, std::uint64_t id) { return entry.first < id; });
  if (it == in_streams_.end() || it->first != stream_id) return nullptr;
  return &it->second;
}

Connection::InStream& Connection::InStreamFor(std::uint64_t stream_id) {
  const auto it = std::lower_bound(
      in_streams_.begin(), in_streams_.end(), stream_id,
      [](const auto& entry, std::uint64_t id) { return entry.first < id; });
  if (it != in_streams_.end() && it->first == stream_id) return it->second;
  return in_streams_.emplace(it, stream_id, InStream{})->second;
}

void Connection::ArmAckTimer() {
  sim::Time deadline = sim::kNever;
  for (const auto& state : spaces_) {
    if (state.discarded || !state.acks.HasPendingAck()) continue;
    if (SuppressImmediateAck(state.acks.space())) continue;
    sim::Time d = state.acks.AckDeadline();
    if (config_.defer_acks_until_flight && !handshake_complete_ &&
        state.acks.space() != PacketNumberSpace::kAppData) {
      d += config_.ack_policy.max_ack_delay;  // quiche batching window
    }
    deadline = std::min(deadline, d);
  }
  if (deadline == sim::kNever) {
    ack_timer_.Cancel();
  } else if (deadline > queue_.now()) {
    ack_timer_.SetDeadline(deadline);
  } else {
    ack_timer_.SetDeadline(queue_.now() + 1);
  }
}

}  // namespace quicer::quic
