#include "netem/codec.h"

#include <cmath>
#include <cstdint>

#include "core/json.h"

namespace quicer::netem {
namespace {

using core::JsonNumber;
using core::JsonValue;

constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

bool Fail(std::string& error, const std::string& path, const std::string& message) {
  error = path + ": " + message;
  return false;
}

/// A finite number in [minimum, maximum].
bool ParseNumber(const JsonValue& v, const std::string& path, double minimum, double maximum,
                 double& out, std::string& error) {
  if (v.type() != JsonValue::Type::kNumber || !std::isfinite(v.AsNumber())) {
    return Fail(error, path, "expected a number");
  }
  if (v.AsNumber() < minimum || v.AsNumber() > maximum) {
    return Fail(error, path, "value " + JsonNumber(v.AsNumber()) + " is outside [" +
                                 JsonNumber(minimum) + ", " + JsonNumber(maximum) + "]");
  }
  out = v.AsNumber();
  return true;
}

/// A non-negative duration in milliseconds, stored in microsecond ticks
/// (llround, matching the scenario codec's ResolveMs so ToMillis
/// round-trips exactly).
bool ParseMs(const JsonValue& v, const std::string& path, sim::Duration& out,
             std::string& error) {
  double ms = 0.0;
  if (!ParseNumber(v, path, 0.0, kMaxExactInteger, ms, error)) return false;
  out = static_cast<sim::Duration>(std::llround(ms * 1000.0));
  return true;
}

/// A non-negative integral count.
bool ParseCount(const JsonValue& v, const std::string& path, std::size_t& out,
                std::string& error) {
  double n = 0.0;
  if (!ParseNumber(v, path, 0.0, kMaxExactInteger, n, error)) return false;
  if (n != std::floor(n)) return Fail(error, path, "expected an integer, got " + JsonNumber(n));
  out = static_cast<std::size_t>(n);
  return true;
}

bool ParseLossModel(const JsonValue& v, const std::string& path, LossModel& out,
                    std::string& error) {
  if (v.type() != JsonValue::Type::kObject) return Fail(error, path, "expected an object");
  if (v.Members().size() != 1) {
    return Fail(error, path, "expected exactly one loss kind ('bernoulli' or 'gilbert')");
  }
  const auto& [kind, body] = v.Members().front();
  const std::string kind_path = path + "." + kind;
  if (body.type() != JsonValue::Type::kObject) {
    return Fail(error, kind_path, "expected an object");
  }
  if (kind == "bernoulli") {
    out.kind = LossModel::Kind::kBernoulli;
    bool have_rate = false;
    for (const auto& [key, value] : body.Members()) {
      if (key == "rate") {
        if (!ParseNumber(value, kind_path + ".rate", 0.0, 1.0, out.rate, error)) return false;
        have_rate = true;
      } else {
        return Fail(error, kind_path, "unknown field '" + key + "' (known: rate)");
      }
    }
    if (!have_rate) return Fail(error, kind_path, "misses 'rate'");
    if (out.rate == 0.0) {
      return Fail(error, kind_path + ".rate", "a zero rate never drops; omit the loss model");
    }
    return true;
  }
  if (kind == "gilbert") {
    out.kind = LossModel::Kind::kGilbertElliott;
    bool have_p = false, have_r = false;
    for (const auto& [key, value] : body.Members()) {
      if (key == "p") {
        if (!ParseNumber(value, kind_path + ".p", 0.0, 1.0, out.p, error)) return false;
        have_p = true;
      } else if (key == "r") {
        if (!ParseNumber(value, kind_path + ".r", 0.0, 1.0, out.r, error)) return false;
        have_r = true;
      } else if (key == "loss_good") {
        if (!ParseNumber(value, kind_path + ".loss_good", 0.0, 1.0, out.loss_good, error)) {
          return false;
        }
      } else if (key == "loss_bad") {
        if (!ParseNumber(value, kind_path + ".loss_bad", 0.0, 1.0, out.loss_bad, error)) {
          return false;
        }
      } else {
        return Fail(error, kind_path,
                    "unknown field '" + key + "' (known: p, r, loss_good, loss_bad)");
      }
    }
    if (!have_p || !have_r) return Fail(error, kind_path, "misses 'p' and/or 'r'");
    // The chain starts in the good state: with loss_good 0 it drops only if
    // it can reach the bad state (p > 0) and the bad state drops.
    if (out.loss_good == 0.0 && (out.p == 0.0 || out.loss_bad == 0.0)) {
      return Fail(error, kind_path,
                  "never drops (loss_good is 0 and p or loss_bad is 0); omit the loss model");
    }
    return true;
  }
  return Fail(error, path, "unknown loss kind '" + kind + "' (known: bernoulli, gilbert)");
}

bool ParseQueueModel(const JsonValue& v, const std::string& path, QueueModel& out,
                     std::string& error) {
  if (v.type() != JsonValue::Type::kObject) return Fail(error, path, "expected an object");
  out.kind = QueueModel::Kind::kFifo;
  for (const auto& [key, value] : v.Members()) {
    if (key == "depth_pkts") {
      if (!ParseCount(value, path + ".depth_pkts", out.depth_pkts, error)) return false;
    } else if (key == "depth_bytes") {
      if (!ParseCount(value, path + ".depth_bytes", out.depth_bytes, error)) return false;
    } else if (key == "aqm") {
      // Tail-drop is the only discipline; the key exists so a scenario may
      // spell out that default.
      if (value.type() != JsonValue::Type::kString || value.AsString() != "taildrop") {
        return Fail(error, path + ".aqm", "unsupported AQM (valid: \"taildrop\")");
      }
    } else {
      return Fail(error, path,
                  "unknown field '" + key + "' (known: depth_pkts, depth_bytes, aqm)");
    }
  }
  return true;
}

/// Parses a {"up": ..., "down": ..., "both": ...} direction object with a
/// per-model parser; "both" excludes the other two.
template <typename Model, typename Parser>
bool ParseDirections(const JsonValue& v, const std::string& path, Model (&out)[2],
                     Parser parse, std::string& error) {
  if (v.type() != JsonValue::Type::kObject) return Fail(error, path, "expected an object");
  bool have_both = false, have_side = false;
  for (const auto& [key, value] : v.Members()) {
    if (key == "up") {
      if (!parse(value, path + ".up", out[kUp], error)) return false;
      have_side = true;
    } else if (key == "down") {
      if (!parse(value, path + ".down", out[kDown], error)) return false;
      have_side = true;
    } else if (key == "both") {
      if (!parse(value, path + ".both", out[kUp], error)) return false;
      out[kDown] = out[kUp];
      have_both = true;
    } else {
      return Fail(error, path, "unknown direction '" + key + "' (known: up, down, both)");
    }
  }
  if (have_both && have_side) {
    return Fail(error, path, "'both' cannot be combined with 'up'/'down'");
  }
  return true;
}

bool ParsePath(const JsonValue& v, const std::string& path, PathOverride (&out)[2],
               std::string& error) {
  if (v.type() != JsonValue::Type::kObject) return Fail(error, path, "expected an object");
  for (const auto& [key, value] : v.Members()) {
    const std::string key_path = path + "." + key;
    if (key == "up_bps" || key == "down_bps") {
      double bps = 0.0;
      if (!ParseNumber(value, key_path, 0.0, 1e18, bps, error)) return false;
      if (bps <= 0.0) return Fail(error, key_path, "bandwidth must be positive");
      out[key == "up_bps" ? kUp : kDown].bandwidth_bps = bps;
    } else if (key == "up_delay_ms" || key == "down_delay_ms") {
      sim::Duration d = 0;
      if (!ParseMs(value, key_path, d, error)) return false;
      out[key == "up_delay_ms" ? kUp : kDown].one_way_delay = d;
    } else if (key == "up_jitter_ms" || key == "down_jitter_ms") {
      sim::Duration d = 0;
      if (!ParseMs(value, key_path, d, error)) return false;
      out[key == "up_jitter_ms" ? kUp : kDown].jitter = d;
    } else {
      return Fail(error, path,
                  "unknown field '" + key + "' (known: up_bps, down_bps, up_delay_ms, "
                  "down_delay_ms, up_jitter_ms, down_jitter_ms)");
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string LossJson(const LossModel& m) {
  switch (m.kind) {
    case LossModel::Kind::kNone:
      return "{}";
    case LossModel::Kind::kBernoulli:
      return "{\"bernoulli\": {\"rate\": " + JsonNumber(m.rate) + "}}";
    case LossModel::Kind::kGilbertElliott: {
      std::string out =
          "{\"gilbert\": {\"p\": " + JsonNumber(m.p) + ", \"r\": " + JsonNumber(m.r);
      if (m.loss_good != 0.0) out += ", \"loss_good\": " + JsonNumber(m.loss_good);
      if (m.loss_bad != 1.0) out += ", \"loss_bad\": " + JsonNumber(m.loss_bad);
      return out + "}}";
    }
  }
  return "{}";
}

std::string QueueJson(const QueueModel& m) {
  std::string out = "{";
  if (m.depth_pkts > 0) out += "\"depth_pkts\": " + std::to_string(m.depth_pkts);
  if (m.depth_bytes > 0) {
    if (out.size() > 1) out += ", ";
    out += "\"depth_bytes\": " + std::to_string(m.depth_bytes);
  }
  return out + "}";
}

/// "up"/"down" members of the non-default directional models, or "" when
/// both directions are default.
template <typename Model, typename Writer>
std::string DirectionsJson(const Model (&models)[2], Writer write) {
  std::string out;
  if (!models[kUp].IsDefault()) out += "\"up\": " + write(models[kUp]);
  if (!models[kDown].IsDefault()) {
    if (!out.empty()) out += ", ";
    out += "\"down\": " + write(models[kDown]);
  }
  return out.empty() ? out : "{" + out + "}";
}

std::string PathJson(const PathOverride (&path)[2]) {
  std::string out;
  const auto add = [&out](const std::string& key, const std::string& value) {
    if (!out.empty()) out += ", ";
    out += "\"" + key + "\": " + value;
  };
  for (int dir : {kUp, kDown}) {
    const char* prefix = dir == kUp ? "up" : "down";
    if (path[dir].bandwidth_bps) {
      add(std::string(prefix) + "_bps", JsonNumber(*path[dir].bandwidth_bps));
    }
  }
  for (int dir : {kUp, kDown}) {
    const char* prefix = dir == kUp ? "up" : "down";
    if (path[dir].one_way_delay) {
      add(std::string(prefix) + "_delay_ms", JsonNumber(sim::ToMillis(*path[dir].one_way_delay)));
    }
  }
  for (int dir : {kUp, kDown}) {
    const char* prefix = dir == kUp ? "up" : "down";
    if (path[dir].jitter) {
      add(std::string(prefix) + "_jitter_ms", JsonNumber(sim::ToMillis(*path[dir].jitter)));
    }
  }
  return out.empty() ? out : "{" + out + "}";
}

}  // namespace

std::string LinkModelJson(const LinkModel& model) {
  std::string out;
  const auto add = [&out](const char* key, const std::string& value) {
    if (value.empty()) return;
    if (!out.empty()) out += ", ";
    out += "\"" + std::string(key) + "\": " + value;
  };
  add("loss", DirectionsJson(model.loss, LossJson));
  add("queue", DirectionsJson(model.queue, QueueJson));
  add("path", PathJson(model.path));
  return "{" + out + "}";
}

bool ParseLinkModel(const core::JsonValue& value, LinkModel& out, std::string& error) {
  if (value.type() != JsonValue::Type::kObject) {
    error = "expected an object";
    return false;
  }
  out = LinkModel{};
  for (const auto& [key, member] : value.Members()) {
    if (key == "loss") {
      if (!ParseDirections(member, "loss", out.loss,
                           [](const JsonValue& v, const std::string& p, LossModel& m,
                              std::string& e) { return ParseLossModel(v, p, m, e); },
                           error)) {
        return false;
      }
    } else if (key == "queue") {
      if (!ParseDirections(member, "queue", out.queue,
                           [](const JsonValue& v, const std::string& p, QueueModel& m,
                              std::string& e) { return ParseQueueModel(v, p, m, e); },
                           error)) {
        return false;
      }
    } else if (key == "path") {
      if (!ParsePath(member, "path", out.path, error)) return false;
    } else {
      error = "unknown link-model field '" + key + "' (known: loss, queue, path)";
      return false;
    }
  }
  return true;
}

}  // namespace quicer::netem
