#include "quic/frame.h"

#include <cstdio>

namespace quicer::quic {
namespace {

// Variable-length integer encoding size (RFC 9000 §16).
std::size_t VarIntSize(std::uint64_t value) {
  if (value < 64) return 1;
  if (value < 16384) return 2;
  if (value < 1073741824) return 4;
  return 8;
}

struct WireSizeVisitor {
  std::size_t operator()(const PaddingFrame& f) const { return f.size; }
  std::size_t operator()(const PingFrame&) const { return 1; }
  std::size_t operator()(const AckFrame& f) const {
    std::size_t size = 1 + VarIntSize(f.largest_acked) + VarIntSize(
        static_cast<std::uint64_t>(f.ack_delay)) + VarIntSize(f.ranges.size());
    for (const PnRange& range : f.ranges) {
      size += VarIntSize(range.last - range.first) + 1;
    }
    return size;
  }
  std::size_t operator()(const CryptoFrame& f) const {
    return 1 + VarIntSize(f.offset) + VarIntSize(f.length) + f.length;
  }
  std::size_t operator()(const StreamFrame& f) const {
    return 1 + VarIntSize(f.stream_id) + VarIntSize(f.offset) + VarIntSize(f.length) + f.length;
  }
  std::size_t operator()(const MaxDataFrame& f) const { return 1 + VarIntSize(f.maximum_data); }
  std::size_t operator()(const HandshakeDoneFrame&) const { return 1; }
  std::size_t operator()(const NewConnectionIdFrame&) const {
    return 1 + 1 + 1 + 1 + 8 + 16;  // seq, retire_prior_to, len, cid(8), reset token
  }
  std::size_t operator()(const RetireConnectionIdFrame& f) const {
    return 1 + VarIntSize(f.sequence);
  }
  std::size_t operator()(const ConnectionCloseFrame& f) const {
    // Type, error code, offending frame type, and a zero reason length.
    return 1 + VarIntSize(f.error_code) + 1 + VarIntSize(0);
  }
  std::size_t operator()(const RetryFrame&) const {
    return 8 + 16;  // token + retry integrity tag
  }
};

struct DescribeVisitor {
  std::string operator()(const PaddingFrame& f) const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "PADDING[%u]", f.size);
    return buf;
  }
  std::string operator()(const PingFrame&) const { return "PING"; }
  std::string operator()(const AckFrame& f) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "ACK[%llu delay=%lldus]",
                  static_cast<unsigned long long>(f.largest_acked),
                  static_cast<long long>(f.ack_delay));
    return buf;
  }
  std::string operator()(const CryptoFrame& f) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "CRYPTO[%s %llu+%u]",
                  std::string(tls::ToString(f.message)).c_str(),
                  static_cast<unsigned long long>(f.offset), f.length);
    return buf;
  }
  std::string operator()(const StreamFrame& f) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "STREAM[%llu %llu+%u%s]",
                  static_cast<unsigned long long>(f.stream_id),
                  static_cast<unsigned long long>(f.offset), f.length, f.fin ? " fin" : "");
    return buf;
  }
  std::string operator()(const MaxDataFrame& f) const {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "MAX_DATA[%llu]",
                  static_cast<unsigned long long>(f.maximum_data));
    return buf;
  }
  std::string operator()(const HandshakeDoneFrame&) const { return "HANDSHAKE_DONE"; }
  std::string operator()(const NewConnectionIdFrame& f) const {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "NEW_CONNECTION_ID[%llu]",
                  static_cast<unsigned long long>(f.sequence));
    return buf;
  }
  std::string operator()(const RetireConnectionIdFrame& f) const {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "RETIRE_CONNECTION_ID[%llu]",
                  static_cast<unsigned long long>(f.sequence));
    return buf;
  }
  std::string operator()(const ConnectionCloseFrame& f) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "CONNECTION_CLOSE[%llu]",
                  static_cast<unsigned long long>(f.error_code));
    return buf;
  }
  std::string operator()(const RetryFrame& f) const {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "RETRY[token=%llu]",
                  static_cast<unsigned long long>(f.token));
    return buf;
  }
};

}  // namespace

bool IsAckEliciting(const Frame& frame) {
  return !std::holds_alternative<AckFrame>(frame) &&
         !std::holds_alternative<PaddingFrame>(frame) &&
         !std::holds_alternative<ConnectionCloseFrame>(frame) &&
         !std::holds_alternative<RetryFrame>(frame);
}

bool AnyAckEliciting(sim::Span<const Frame> frames) {
  for (const Frame& frame : frames) {
    if (IsAckEliciting(frame)) return true;
  }
  return false;
}

std::size_t WireSize(const Frame& frame) { return std::visit(WireSizeVisitor{}, frame); }

std::size_t WireSize(sim::Span<const Frame> frames) {
  std::size_t total = 0;
  for (const Frame& frame : frames) total += WireSize(frame);
  return total;
}

bool IsRetransmittable(const Frame& frame) {
  return std::holds_alternative<CryptoFrame>(frame) || std::holds_alternative<StreamFrame>(frame) ||
         std::holds_alternative<MaxDataFrame>(frame) ||
         std::holds_alternative<HandshakeDoneFrame>(frame) ||
         std::holds_alternative<NewConnectionIdFrame>(frame) ||
         std::holds_alternative<RetireConnectionIdFrame>(frame);
}

std::string Describe(const Frame& frame) { return std::visit(DescribeVisitor{}, frame); }

}  // namespace quicer::quic
