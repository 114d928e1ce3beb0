#include "core/scenario.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/json.h"
#include "core/loss_scenarios.h"
#include "netem/codec.h"

namespace quicer::core {
namespace {

constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

std::string Quoted(std::string_view s) { return "\"" + JsonEscape(std::string(s)) + "\""; }

// ---------------------------------------------------------------------------
// Low-level value resolvers, shared between the base-config descriptor table
// and the axis parsers (one source of truth for labels and ranges).
// ---------------------------------------------------------------------------

bool ResolveClient(const JsonValue& v, clients::ClientImpl& out, std::string& error) {
  if (v.type() == JsonValue::Type::kString) {
    for (clients::ClientImpl impl : clients::kAllClients) {
      if (v.AsString() == clients::Name(impl)) {
        out = impl;
        return true;
      }
    }
  }
  std::string valid;
  for (clients::ClientImpl impl : clients::kAllClients) {
    if (!valid.empty()) valid += ", ";
    valid += clients::Name(impl);
  }
  error = "unknown client " +
          (v.type() == JsonValue::Type::kString ? "'" + v.AsString() + "'"
                                                : std::string("(not a string)")) +
          " (valid: " + valid + ")";
  return false;
}

bool ResolveHttp(const JsonValue& v, http::Version& out, std::string& error) {
  for (http::Version version : {http::Version::kHttp1, http::Version::kHttp3}) {
    if (v.type() == JsonValue::Type::kString && v.AsString() == http::ToString(version)) {
      out = version;
      return true;
    }
  }
  error = "unknown HTTP version (valid: \"" + std::string(http::ToString(http::Version::kHttp1)) +
          "\", \"" + std::string(http::ToString(http::Version::kHttp3)) + "\")";
  return false;
}

bool ResolveBehavior(const JsonValue& v, quic::ServerBehavior& out, std::string& error) {
  for (quic::ServerBehavior behavior :
       {quic::ServerBehavior::kWaitForCertificate, quic::ServerBehavior::kInstantAck}) {
    if (v.type() == JsonValue::Type::kString && v.AsString() == quic::ToString(behavior)) {
      out = behavior;
      return true;
    }
  }
  error = "unknown server behavior (valid: \"WFC\", \"IACK\")";
  return false;
}

bool ResolveMode(const JsonValue& v, HandshakeMode& out, std::string& error) {
  if (v.type() == JsonValue::Type::kString) {
    if (const std::optional<HandshakeMode> mode = HandshakeModeFromString(v.AsString())) {
      out = *mode;
      return true;
    }
  }
  error = "unknown handshake mode (valid: \"1-RTT\", \"0-RTT\", \"Retry\")";
  return false;
}

/// A finite number; `minimum` is inclusive.
bool ResolveNumber(const JsonValue& v, double minimum, double& out, std::string& error) {
  if (v.type() != JsonValue::Type::kNumber || !std::isfinite(v.AsNumber())) {
    error = "expected a number";
    return false;
  }
  if (v.AsNumber() < minimum) {
    error = "value " + JsonNumber(v.AsNumber()) + " is below the minimum " +
            JsonNumber(minimum);
    return false;
  }
  out = v.AsNumber();
  return true;
}

/// A non-negative duration in milliseconds; stored in microsecond ticks
/// (llround, so ToMillis round-trips exactly).
bool ResolveMs(const JsonValue& v, sim::Duration& out, std::string& error) {
  double ms = 0.0;
  if (!ResolveNumber(v, 0.0, ms, error)) return false;
  out = static_cast<sim::Duration>(std::llround(ms * 1000.0));
  return true;
}

/// An integral count with an inclusive minimum.
bool ResolveSize(const JsonValue& v, double minimum, std::size_t& out, std::string& error) {
  double n = 0.0;
  if (!ResolveNumber(v, minimum, n, error)) return false;
  if (n != std::floor(n) || n > kMaxExactInteger) {
    error = "expected an integer, got " + JsonNumber(n);
    return false;
  }
  out = static_cast<std::size_t>(n);
  return true;
}

bool ResolveBool(const JsonValue& v, bool& out, std::string& error) {
  if (v.type() != JsonValue::Type::kBool) {
    error = "expected true or false";
    return false;
  }
  out = v.AsBool();
  return true;
}

/// Full-range uint64, serialized as a decimal string (JSON numbers are
/// doubles and would round seeds above 2^53).
bool ResolveU64(const JsonValue& v, std::uint64_t& out, std::string& error) {
  if (v.type() != JsonValue::Type::kString || v.AsString().empty()) {
    error = "expected a decimal string (seeds are full-range uint64)";
    return false;
  }
  const std::string& s = v.AsString();
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno != 0 || s[0] == '-') {
    error = "'" + s + "' is not a decimal uint64";
    return false;
  }
  out = parsed;
  return true;
}

std::string WriteMs(sim::Duration d) { return JsonNumber(sim::ToMillis(d)); }
std::string WriteBool(bool b) { return b ? "true" : "false"; }
std::string WriteU64(std::uint64_t v) { return "\"" + std::to_string(v) + "\""; }

}  // namespace

const std::vector<ConfigFieldSpec>& ConfigFields() {
  static const std::vector<ConfigFieldSpec>* fields = new std::vector<ConfigFieldSpec>{
      {"client", "enum", "client implementation profile (Table 4)",
       [](const ExperimentConfig& c) { return Quoted(clients::Name(c.client)); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveClient(v, c.client, e);
       }},
      {"http", "enum", "HTTP version of the single GET",
       [](const ExperimentConfig& c) { return Quoted(http::ToString(c.http)); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveHttp(v, c.http, e);
       }},
      {"behavior", "enum", "server certificate strategy: WFC or IACK",
       [](const ExperimentConfig& c) { return Quoted(quic::ToString(c.behavior)); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveBehavior(v, c.behavior, e);
       }},
      {"mode", "enum", "handshake type: 1-RTT, 0-RTT or Retry (§5)",
       [](const ExperimentConfig& c) { return Quoted(ToString(c.mode)); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveMode(v, c.mode, e);
       }},
      {"client_use_retry_rtt_sample", "bool",
       "Retry handshakes: client seeds its RTT estimate from the token round trip",
       [](const ExperimentConfig& c) { return WriteBool(c.client_use_retry_rtt_sample); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveBool(v, c.client_use_retry_rtt_sample, e);
       }},
      {"rtt_ms", "ms", "path round-trip time (symmetric one-way delays)",
       [](const ExperimentConfig& c) { return WriteMs(c.rtt); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveMs(v, c.rtt, e);
       }},
      {"bandwidth_bps", "number", "bottleneck bandwidth in bits/s",
       [](const ExperimentConfig& c) { return JsonNumber(c.bandwidth_bps); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         double bps = 0.0;
         if (!ResolveNumber(v, 0.0, bps, e)) return false;
         if (bps <= 0.0) {
           e = "bandwidth must be positive";
           return false;
         }
         c.bandwidth_bps = bps;
         return true;
       }},
      {"path_jitter_ms", "ms", "per-datagram path jitter (0 in all paper runs)",
       [](const ExperimentConfig& c) { return WriteMs(c.path_jitter); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveMs(v, c.path_jitter, e);
       }},
      {"certificate_bytes", "bytes", "TLS certificate chain size (paper: 1212 or 5113)",
       [](const ExperimentConfig& c) { return std::to_string(c.certificate_bytes); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveSize(v, 1.0, c.certificate_bytes, e);
       }},
      {"cert_fetch_delay_ms", "ms", "backend certificate-store delay Δt",
       [](const ExperimentConfig& c) { return WriteMs(c.cert_fetch_delay); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveMs(v, c.cert_fetch_delay, e);
       }},
      {"cert_cached", "bool", "certificate already cached at the frontend (Δt = 0)",
       [](const ExperimentConfig& c) { return WriteBool(c.cert_cached); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveBool(v, c.cert_cached, e);
       }},
      {"signing_median_ms", "ms", "median certificate-signing latency (§4.1)",
       [](const ExperimentConfig& c) { return WriteMs(c.signing.median); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveMs(v, c.signing.median, e);
       }},
      {"signing_sigma", "number", "log-normal signing jitter sigma (0 = deterministic)",
       [](const ExperimentConfig& c) { return JsonNumber(c.signing.sigma); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveNumber(v, 0.0, c.signing.sigma, e);
       }},
      {"response_body_bytes", "bytes", "response body size (paper: 10 KB / 10 MB)",
       [](const ExperimentConfig& c) { return std::to_string(c.response_body_bytes); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveSize(v, 0.0, c.response_body_bytes, e);
       }},
      {"server_default_pto_ms", "ms", "server default PTO before an RTT sample (quic-go: 200)",
       [](const ExperimentConfig& c) { return WriteMs(c.server_default_pto); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveMs(v, c.server_default_pto, e);
       }},
      {"pad_instant_ack", "bool", "pad the instant ACK to an ack-eliciting full datagram",
       [](const ExperimentConfig& c) { return WriteBool(c.pad_instant_ack); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveBool(v, c.pad_instant_ack, e);
       }},
      {"client_probe_with_data", "bool",
       "§5 tuning: client probes re-send the ClientHello instead of PINGs",
       [](const ExperimentConfig& c) { return WriteBool(c.client_probe_with_data); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveBool(v, c.client_probe_with_data, e);
       }},
      {"seed", "uint64", "base RNG seed (decimal string)",
       [](const ExperimentConfig& c) { return WriteU64(c.seed); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return ResolveU64(v, c.seed, e);
       }},
      {"time_limit_ms", "ms", "simulated-time budget per run",
       [](const ExperimentConfig& c) { return WriteMs(c.time_limit); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         if (!ResolveMs(v, c.time_limit, e)) return false;
         if (c.time_limit <= 0) {
           e = "time limit must be positive";
           return false;
         }
         return true;
       }},
      {"link", "object",
       "netem link model: stochastic loss / bottleneck queue / asymmetric path "
       "(`{}` = the paper's legacy pipe; see docs/netem)",
       [](const ExperimentConfig& c) { return netem::LinkModelJson(c.link); },
       [](const JsonValue& v, ExperimentConfig& c, std::string& e) {
         return netem::ParseLinkModel(v, c.link, e);
       }},
  };
  return *fields;
}

namespace {

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void AppendMsArray(std::string& out, const std::vector<sim::Duration>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonNumber(sim::ToMillis(values[i]));
  }
  out += ']';
}

template <typename T, typename NameFn>
void AppendLabelArray(std::string& out, const std::vector<T>& values, NameFn name) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += Quoted(name(values[i]));
  }
  out += ']';
}

}  // namespace

std::string ScenarioJson(const SweepSpec& spec, std::string_view bench, int indent) {
  const std::string pad(indent, ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
  std::string out = pad + "{\n";
  if (!bench.empty()) out += in1 + "\"bench\": " + Quoted(bench) + ",\n";
  out += in1 + "\"sweep\": " + Quoted(spec.name) + ",\n";
  out += in1 + "\"repetitions\": " + std::to_string(spec.repetitions) + ",\n";
  out += in1 + "\"seed_base\": " + WriteU64(spec.seed_base) + ",\n";
  out += in1 + "\"seed_stride\": " + WriteU64(spec.seed_stride) + ",\n";
  out += in1 + "\"reservoir_capacity\": " + std::to_string(spec.reservoir_capacity) + ",\n";

  out += in1 + "\"base\": {\n";
  const std::vector<ConfigFieldSpec>& fields = ConfigFields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += in2 + "\"" + fields[i].name + "\": " + fields[i].write(spec.base);
    out += i + 1 < fields.size() ? ",\n" : "\n";
  }
  out += in1 + "},\n";

  out += in1 + "\"axes\": {\n";
  out += in2 + "\"clients\": ";
  AppendLabelArray(out, spec.axes.clients, [](clients::ClientImpl c) { return clients::Name(c); });
  out += ",\n" + in2 + "\"http\": ";
  AppendLabelArray(out, spec.axes.http_versions, [](http::Version v) { return http::ToString(v); });
  out += ",\n" + in2 + "\"behaviors\": ";
  AppendLabelArray(out, spec.axes.behaviors,
                   [](quic::ServerBehavior b) { return std::string_view(quic::ToString(b)); });
  out += ",\n" + in2 + "\"modes\": ";
  AppendLabelArray(out, spec.axes.modes, [](HandshakeMode m) { return ToString(m); });
  out += ",\n" + in2 + "\"rtts_ms\": ";
  AppendMsArray(out, spec.axes.rtts);
  out += ",\n" + in2 + "\"cert_fetch_delays_ms\": ";
  AppendMsArray(out, spec.axes.cert_fetch_delays);
  out += ",\n" + in2 + "\"certificate_sizes\": ";
  AppendJsonSizeArray(out, spec.axes.certificate_sizes);
  out += ",\n" + in2 + "\"losses\": ";
  AppendLabelArray(out, spec.axes.losses,
                   [](const SweepLoss& l) { return std::string_view(l.label); });
  out += ",\n" + in2 + "\"variants\": ";
  AppendLabelArray(out, spec.axes.variants,
                   [](const SweepVariant& v) { return std::string_view(v.label); });
  out += ",\n" + in2 + "\"links\": [";
  for (std::size_t l = 0; l < spec.axes.links.size(); ++l) {
    const SweepLink& link = spec.axes.links[l];
    out += l == 0 ? "\n" : ",\n";
    out += in2 + "  {\"label\": " + Quoted(link.label) +
           ", \"link\": " + netem::LinkModelJson(link.model) + "}";
    if (l + 1 == spec.axes.links.size()) out += "\n" + in2;
  }
  out += "]";
  out += ",\n" + in2 + "\"extras\": [";
  for (std::size_t a = 0; a < spec.axes.extras.size(); ++a) {
    const SweepExtraAxis& axis = spec.axes.extras[a];
    out += a == 0 ? "\n" : ",\n";
    out += in2 + "  {\"name\": " + Quoted(axis.name) + ", \"values\": [";
    for (std::size_t v = 0; v < axis.values.size(); ++v) {
      if (v != 0) out += ", ";
      out += "{\"label\": " + Quoted(axis.values[v].label) +
             ", \"value\": " + std::to_string(axis.values[v].value) + "}";
    }
    out += "]}";
    if (a + 1 == spec.axes.extras.size()) out += "\n" + in2;
  }
  out += "]\n";
  out += in1 + "},\n";

  out += in1 + "\"metrics\": [";
  for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
    const MetricSpec& metric = spec.metrics[m];
    out += m == 0 ? "\n" : ",\n";
    out += in2 + "{\"name\": " + Quoted(metric.name) + ", \"mode\": \"" +
           std::string(ToString(metric.mode)) +
           "\", \"exclude_negative\": " + WriteBool(metric.exclude_negative) + "}";
    if (m + 1 == spec.metrics.size()) out += "\n" + in1;
  }
  out += "]\n";
  out += pad + "}";
  return out;
}

std::string ScenarioFileJson(
    const std::vector<std::pair<std::string, const SweepSpec*>>& specs) {
  std::string out = "{\n  \"format\": \"" + std::string(kScenarioFormat) + "\",\n";
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out += ScenarioJson(*specs[i].second, specs[i].first, 4);
    out += i + 1 < specs.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

struct ParseContext {
  std::string error;  // empty = ok

  bool Fail(const std::string& path, const std::string& message) {
    if (error.empty()) error = path + ": " + message;
    return false;
  }
};

bool ParseMetric(const JsonValue& v, const std::string& path, Scenario::Metric& metric,
                 ParseContext& ctx) {
  if (v.type() != JsonValue::Type::kObject) return ctx.Fail(path, "expected an object");
  for (const auto& [key, value] : v.Members()) {
    std::string e;
    if (key == "name") {
      if (value.type() != JsonValue::Type::kString || value.AsString().empty()) {
        return ctx.Fail(path + ".name", "expected a non-empty string");
      }
      metric.name = value.AsString();
    } else if (key == "mode") {
      if (value.type() == JsonValue::Type::kString && value.AsString() == "summary") {
        metric.mode = MetricMode::kSummary;
      } else if (value.type() == JsonValue::Type::kString && value.AsString() == "trace") {
        metric.mode = MetricMode::kTrace;
      } else {
        return ctx.Fail(path + ".mode", "unknown metric mode (valid: \"summary\", \"trace\")");
      }
    } else if (key == "exclude_negative") {
      if (!ResolveBool(value, metric.exclude_negative, e)) {
        return ctx.Fail(path + ".exclude_negative", e);
      }
    } else {
      return ctx.Fail(path, "unknown metric field '" + key +
                                "' (known: name, mode, exclude_negative)");
    }
  }
  if (metric.name.empty()) return ctx.Fail(path, "metric misses its 'name'");
  return true;
}

bool ParseExtras(const JsonValue& v, const std::string& path,
                 std::vector<SweepExtraAxis>& extras, ParseContext& ctx) {
  if (v.type() != JsonValue::Type::kArray) return ctx.Fail(path, "expected an array");
  for (std::size_t a = 0; a < v.Items().size(); ++a) {
    const JsonValue& entry = v.Items()[a];
    const std::string entry_path = path + "[" + std::to_string(a) + "]";
    if (entry.type() != JsonValue::Type::kObject) {
      return ctx.Fail(entry_path, "expected an object");
    }
    SweepExtraAxis axis;
    for (const auto& [key, value] : entry.Members()) {
      if (key == "name") {
        if (value.type() != JsonValue::Type::kString || value.AsString().empty()) {
          return ctx.Fail(entry_path + ".name", "expected a non-empty string");
        }
        axis.name = value.AsString();
      } else if (key == "values") {
        if (value.type() != JsonValue::Type::kArray) {
          return ctx.Fail(entry_path + ".values", "expected an array");
        }
        for (std::size_t i = 0; i < value.Items().size(); ++i) {
          const JsonValue& item = value.Items()[i];
          const std::string item_path = entry_path + ".values[" + std::to_string(i) + "]";
          if (item.type() != JsonValue::Type::kObject) {
            return ctx.Fail(item_path, "expected an object");
          }
          SweepAxisValue axis_value;
          for (const auto& [vkey, vvalue] : item.Members()) {
            if (vkey == "label") {
              if (vvalue.type() != JsonValue::Type::kString) {
                return ctx.Fail(item_path + ".label", "expected a string");
              }
              axis_value.label = vvalue.AsString();
            } else if (vkey == "value") {
              if (vvalue.type() != JsonValue::Type::kNumber ||
                  vvalue.AsNumber() != std::floor(vvalue.AsNumber()) ||
                  std::abs(vvalue.AsNumber()) > kMaxExactInteger) {
                return ctx.Fail(item_path + ".value", "expected an integer");
              }
              axis_value.value = static_cast<std::int64_t>(vvalue.AsNumber());
            } else {
              return ctx.Fail(item_path, "unknown field '" + vkey + "' (known: label, value)");
            }
          }
          axis.values.push_back(std::move(axis_value));
        }
      } else {
        return ctx.Fail(entry_path, "unknown field '" + key + "' (known: name, values)");
      }
    }
    if (axis.name.empty()) return ctx.Fail(entry_path, "extra axis misses its 'name'");
    extras.push_back(std::move(axis));
  }
  return true;
}

/// Parses the links axis: [{"label": ..., "link": MODEL}, ...]. Pure data —
/// the models travel structurally, never by label resolution.
bool ParseLinks(const JsonValue& v, const std::string& path, std::vector<SweepLink>& links,
                ParseContext& ctx) {
  if (v.type() != JsonValue::Type::kArray) return ctx.Fail(path, "expected an array");
  for (std::size_t i = 0; i < v.Items().size(); ++i) {
    const JsonValue& entry = v.Items()[i];
    const std::string entry_path = path + "[" + std::to_string(i) + "]";
    if (entry.type() != JsonValue::Type::kObject) {
      return ctx.Fail(entry_path, "expected an object");
    }
    SweepLink link;
    bool have_model = false;
    for (const auto& [key, value] : entry.Members()) {
      if (key == "label") {
        if (value.type() != JsonValue::Type::kString || value.AsString().empty()) {
          return ctx.Fail(entry_path + ".label", "expected a non-empty string");
        }
        link.label = value.AsString();
      } else if (key == "link") {
        std::string e;
        if (!netem::ParseLinkModel(value, link.model, e)) {
          return ctx.Fail(entry_path + ".link", e);
        }
        have_model = true;
      } else {
        return ctx.Fail(entry_path, "unknown field '" + key + "' (known: label, link)");
      }
    }
    if (!have_model) return ctx.Fail(entry_path, "misses its 'link' model");
    links.push_back(std::move(link));
  }
  return true;
}

/// Parses an array of items with a per-item resolver.
template <typename T, typename Resolver>
bool ParseValueArray(const JsonValue& v, const std::string& path, std::vector<T>& out,
                     Resolver resolve, ParseContext& ctx) {
  if (v.type() != JsonValue::Type::kArray) return ctx.Fail(path, "expected an array");
  for (std::size_t i = 0; i < v.Items().size(); ++i) {
    T value{};
    std::string e;
    if (!resolve(v.Items()[i], value, e)) {
      return ctx.Fail(path + "[" + std::to_string(i) + "]", e);
    }
    out.push_back(std::move(value));
  }
  return true;
}

bool ParseStringArray(const JsonValue& v, const std::string& path,
                      std::vector<std::string>& out, ParseContext& ctx) {
  return ParseValueArray<std::string>(
      v, path, out,
      [](const JsonValue& item, std::string& value, std::string& e) {
        if (item.type() != JsonValue::Type::kString || item.AsString().empty()) {
          e = "expected a non-empty string";
          return false;
        }
        value = item.AsString();
        return true;
      },
      ctx);
}

bool ParseAxes(const JsonValue& v, const std::string& path, Scenario& scenario,
               ParseContext& ctx) {
  if (v.type() != JsonValue::Type::kObject) return ctx.Fail(path, "expected an object");
  for (const auto& [key, value] : v.Members()) {
    const std::string key_path = path + "." + key;
    if (key == "clients") {
      if (!ParseValueArray<clients::ClientImpl>(value, key_path, scenario.clients,
                                                ResolveClient, ctx)) {
        return false;
      }
    } else if (key == "http") {
      if (!ParseValueArray<http::Version>(value, key_path, scenario.http_versions,
                                          ResolveHttp, ctx)) {
        return false;
      }
    } else if (key == "behaviors") {
      if (!ParseValueArray<quic::ServerBehavior>(value, key_path, scenario.behaviors,
                                                 ResolveBehavior, ctx)) {
        return false;
      }
    } else if (key == "modes") {
      if (!ParseValueArray<HandshakeMode>(value, key_path, scenario.modes, ResolveMode, ctx)) {
        return false;
      }
    } else if (key == "rtts_ms") {
      if (!ParseValueArray<sim::Duration>(value, key_path, scenario.rtts, ResolveMs, ctx)) {
        return false;
      }
    } else if (key == "cert_fetch_delays_ms") {
      if (!ParseValueArray<sim::Duration>(value, key_path, scenario.cert_fetch_delays,
                                          ResolveMs, ctx)) {
        return false;
      }
    } else if (key == "certificate_sizes") {
      if (!ParseValueArray<std::size_t>(
              value, key_path, scenario.certificate_sizes,
              [](const JsonValue& item, std::size_t& out, std::string& e) {
                return ResolveSize(item, 1.0, out, e);
              },
              ctx)) {
        return false;
      }
    } else if (key == "losses") {
      if (!ParseStringArray(value, key_path, scenario.losses, ctx)) return false;
    } else if (key == "variants") {
      if (!ParseStringArray(value, key_path, scenario.variants, ctx)) return false;
    } else if (key == "links") {
      if (!ParseLinks(value, key_path, scenario.links, ctx)) return false;
    } else if (key == "extras") {
      if (!ParseExtras(value, key_path, scenario.extras, ctx)) return false;
    } else {
      return ctx.Fail(path, "unknown axis '" + key +
                                "' (known: clients, http, behaviors, modes, rtts_ms, "
                                "cert_fetch_delays_ms, certificate_sizes, losses, variants, "
                                "links, extras)");
    }
  }
  return true;
}

bool ParseScenarioObject(const JsonValue& v, const std::string& path, Scenario& scenario,
                         ParseContext& ctx) {
  if (v.type() != JsonValue::Type::kObject) return ctx.Fail(path, "expected an object");
  for (const auto& [key, value] : v.Members()) {
    const std::string key_path = path + "." + key;
    std::string e;
    if (key == "bench") {
      if (value.type() != JsonValue::Type::kString) return ctx.Fail(key_path, "expected a string");
      scenario.bench = value.AsString();
    } else if (key == "sweep") {
      if (value.type() != JsonValue::Type::kString || value.AsString().empty()) {
        return ctx.Fail(key_path, "expected a non-empty string");
      }
      scenario.sweep = value.AsString();
    } else if (key == "repetitions") {
      std::size_t reps = 0;
      if (!ResolveSize(value, 1.0, reps, e)) return ctx.Fail(key_path, e);
      if (reps > 1000000000) return ctx.Fail(key_path, "repetitions above 1e9");
      scenario.repetitions = static_cast<int>(reps);
    } else if (key == "seed_base") {
      if (!ResolveU64(value, scenario.seed_base, e)) return ctx.Fail(key_path, e);
    } else if (key == "seed_stride") {
      if (!ResolveU64(value, scenario.seed_stride, e)) return ctx.Fail(key_path, e);
    } else if (key == "reservoir_capacity") {
      if (!ResolveSize(value, 1.0, scenario.reservoir_capacity, e)) return ctx.Fail(key_path, e);
    } else if (key == "base") {
      if (value.type() != JsonValue::Type::kObject) return ctx.Fail(key_path, "expected an object");
      for (const auto& [field_name, field_value] : value.Members()) {
        const ConfigFieldSpec* field = nullptr;
        for (const ConfigFieldSpec& candidate : ConfigFields()) {
          if (candidate.name == field_name) {
            field = &candidate;
            break;
          }
        }
        if (field == nullptr) {
          std::string known;
          for (const ConfigFieldSpec& candidate : ConfigFields()) {
            if (!known.empty()) known += ", ";
            known += candidate.name;
          }
          return ctx.Fail(key_path, "unknown base field '" + field_name + "' (known: " +
                                        known + ")");
        }
        if (!field->read(field_value, scenario.base, e)) {
          return ctx.Fail(key_path + "." + field_name, e);
        }
      }
    } else if (key == "axes") {
      if (!ParseAxes(value, key_path, scenario, ctx)) return false;
    } else if (key == "metrics") {
      if (value.type() != JsonValue::Type::kArray) return ctx.Fail(key_path, "expected an array");
      for (std::size_t m = 0; m < value.Items().size(); ++m) {
        Scenario::Metric metric;
        if (!ParseMetric(value.Items()[m], key_path + "[" + std::to_string(m) + "]", metric,
                         ctx)) {
          return false;
        }
        scenario.metrics.push_back(std::move(metric));
      }
    } else {
      return ctx.Fail(path, "unknown scenario field '" + key +
                                "' (known: bench, sweep, repetitions, seed_base, seed_stride, "
                                "reservoir_capacity, base, axes, metrics)");
    }
  }
  if (scenario.sweep.empty()) return ctx.Fail(path, "scenario misses its 'sweep' name");
  return true;
}

}  // namespace

std::optional<std::vector<Scenario>> ParseScenarioFile(std::string_view text,
                                                       std::string* error) {
  auto fail = [error](std::string message) -> std::optional<std::vector<Scenario>> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const std::optional<JsonValue> doc = JsonValue::Parse(text, &parse_error);
  if (!doc) return fail("invalid JSON: " + parse_error);
  if (doc->type() != JsonValue::Type::kObject) return fail("expected a JSON object");
  if (doc->GetString("format") != kScenarioFormat) {
    return fail("not a scenario file (format '" + doc->GetString("format") + "', expected '" +
                std::string(kScenarioFormat) + "')");
  }
  const JsonValue* scenarios = nullptr;
  for (const auto& [key, value] : doc->Members()) {
    if (key == "format") continue;
    if (key == "scenarios") {
      scenarios = &value;
      continue;
    }
    return fail("unknown top-level field '" + key + "' (known: format, scenarios)");
  }
  if (scenarios == nullptr || scenarios->type() != JsonValue::Type::kArray) {
    return fail("missing 'scenarios' array");
  }
  if (scenarios->Items().empty()) return fail("'scenarios' is empty");

  ParseContext ctx;
  std::vector<Scenario> out;
  for (std::size_t i = 0; i < scenarios->Items().size(); ++i) {
    Scenario scenario;
    if (!ParseScenarioObject(scenarios->Items()[i], "scenarios[" + std::to_string(i) + "]",
                             scenario, ctx)) {
      return fail(ctx.error);
    }
    out.push_back(std::move(scenario));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

namespace {

/// Builtin loss scenarios addressable from any grid file, independent of
/// what the host sweep compiled in. Every `make` resolves against the fully
/// resolved point config, like the bench-declared ones.
const std::vector<SweepLoss>& BuiltinLosses() {
  static const std::vector<SweepLoss>* losses = new std::vector<SweepLoss>{
      {"none", nullptr},
      {"first-server-flight-tail",
       [](const ExperimentConfig& c) {
         return FirstServerFlightTailLoss(c.behavior, c.certificate_bytes, c.http);
       }},
      {"second-client-flight",
       [](const ExperimentConfig& c) { return SecondClientFlightLoss(c.client); }},
  };
  return *losses;
}

/// Builtin metric extractors for the default experiment runner.
const MetricSpec* BuiltinMetric(const std::string& name) {
  static const std::vector<MetricSpec>* metrics = new std::vector<MetricSpec>{
      {"ttfb_ms", MetricMode::kSummary, true, nullptr},
      {"response_ttfb_ms", MetricMode::kSummary, true,
       [](const ExperimentResult& r) { return r.ResponseTtfbMs(); }},
  };
  for (const MetricSpec& metric : *metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string KnownLabels(const std::vector<std::string>& host,
                        const std::vector<std::string>& builtin) {
  std::string out;
  for (const std::vector<std::string>* group : {&host, &builtin}) {
    for (const std::string& label : *group) {
      if (out.find("'" + label + "'") != std::string::npos) continue;
      if (!out.empty()) out += ", ";
      out += "'" + label + "'";
    }
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace

bool ApplyScenario(const Scenario& scenario, SweepSpec& spec, std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (scenario.sweep != spec.name) {
    return fail("scenario targets sweep '" + scenario.sweep + "' but the live spec is '" +
                spec.name + "'");
  }

  // Resolve function-valued labels against the live spec first (it owns the
  // exact closures the compiled grid uses), builtins second.
  std::vector<SweepLoss> losses;
  for (const std::string& label : scenario.losses) {
    const SweepLoss* found = nullptr;
    for (const SweepLoss& host : spec.axes.losses) {
      if (host.label == label) found = &host;
    }
    if (found == nullptr) {
      for (const SweepLoss& builtin : BuiltinLosses()) {
        if (builtin.label == label) found = &builtin;
      }
    }
    if (found == nullptr) {
      std::vector<std::string> host_labels, builtin_labels;
      for (const SweepLoss& host : spec.axes.losses) host_labels.push_back(host.label);
      for (const SweepLoss& builtin : BuiltinLosses()) builtin_labels.push_back(builtin.label);
      return fail("sweep '" + spec.name + "': unknown loss scenario '" + label +
                  "' (known: " + KnownLabels(host_labels, builtin_labels) + ")");
    }
    losses.push_back(*found);
  }

  std::vector<SweepVariant> variants;
  for (const std::string& label : scenario.variants) {
    const SweepVariant* found = nullptr;
    for (const SweepVariant& host : spec.axes.variants) {
      if (host.label == label) found = &host;
    }
    if (found == nullptr && label == "base") {
      static const SweepVariant* base = new SweepVariant{};
      found = base;
    }
    if (found == nullptr) {
      std::vector<std::string> host_labels;
      for (const SweepVariant& host : spec.axes.variants) host_labels.push_back(host.label);
      return fail("sweep '" + spec.name + "': unknown variant '" + label +
                  "' (known: " + KnownLabels(host_labels, {"base"}) +
                  "; variants are C++ config mutations and resolve by label against the "
                  "compiled-in sweep)");
    }
    variants.push_back(*found);
  }

  std::vector<MetricSpec> metrics;
  for (const Scenario::Metric& wanted : scenario.metrics) {
    MetricSpec resolved;
    resolved.name = wanted.name;
    resolved.mode = wanted.mode;
    resolved.exclude_negative = wanted.exclude_negative;
    const MetricSpec* found = nullptr;
    for (const MetricSpec& host : spec.metrics) {
      if (host.name == wanted.name) found = &host;
    }
    if (found == nullptr) found = BuiltinMetric(wanted.name);
    if (found != nullptr) {
      resolved.extract = found->extract;
    } else if (!spec.runner) {
      // The default experiment runner needs an extractor; a custom runner
      // produces values positionally and any metric name is fine.
      std::vector<std::string> host_names, builtin_names = {"ttfb_ms", "response_ttfb_ms"};
      for (const MetricSpec& host : spec.metrics) host_names.push_back(host.name);
      return fail("sweep '" + spec.name + "': unknown metric '" + wanted.name +
                  "' (known: " + KnownLabels(host_names, builtin_names) + ")");
    }
    metrics.push_back(std::move(resolved));
  }

  spec.base = scenario.base;
  spec.repetitions = scenario.repetitions;
  spec.seed_base = scenario.seed_base;
  spec.seed_stride = scenario.seed_stride;
  spec.reservoir_capacity = scenario.reservoir_capacity;
  spec.axes.clients = scenario.clients;
  spec.axes.http_versions = scenario.http_versions;
  spec.axes.behaviors = scenario.behaviors;
  spec.axes.modes = scenario.modes;
  spec.axes.rtts = scenario.rtts;
  spec.axes.cert_fetch_delays = scenario.cert_fetch_delays;
  spec.axes.certificate_sizes = scenario.certificate_sizes;
  spec.axes.losses = std::move(losses);
  spec.axes.variants = std::move(variants);
  spec.axes.links = scenario.links;
  spec.axes.extras = scenario.extras;
  spec.metrics = std::move(metrics);
  return true;
}

std::uint64_t ScenarioHash(const SweepSpec& spec) {
  const std::string canonical = ScenarioJson(spec, /*bench=*/"");
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (const char c : canonical) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

std::string ScenarioHashHex(std::uint64_t hash) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

std::string ScenarioSchemaMarkdown() {
  const ExperimentConfig defaults;
  std::string out = "| field | type | default | description |\n";
  out += "|---|---|---|---|\n";
  for (const ConfigFieldSpec& field : ConfigFields()) {
    out += "| `" + field.name + "` | " + field.type + " | `" + field.write(defaults) +
           "` | " + field.doc + " |\n";
  }
  return out;
}

}  // namespace quicer::core
