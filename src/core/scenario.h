// Scenario codec: SweepSpec grids as serializable data.
//
// Every grid in bench/ used to exist only as compiled C++ — running a
// scenario the paper didn't ship meant recompiling. This codec makes the
// *data* of a spec first-class: every ExperimentConfig field, every axis
// (including extra axes), the metric set and the seed schedule serialize
// to/from a JSON scenario file through one field-descriptor table (a single
// source of truth for names, defaults, enum labels and validation — and the
// generator of the README defaults table).
//
// Functions do not serialize. A SweepSpec's loss builders, variant
// mutations, metric extractors and runners are C++ closures; a scenario
// file refers to them *by label* and ApplyScenario resolves the labels
// against the live spec of the same (bench, sweep) — captured via the
// enumerate pass, no experiments run — plus a small registry of builtin
// losses ("none", "first-server-flight-tail", "second-client-flight") and
// metrics ("ttfb_ms", "response_ttfb_ms"). So `bench_suite export-grid B |
// bench_suite run --grid=- --data-dir=D` reproduces the compiled-in grid
// byte for byte, and a hand-edited copy sweeps axes the paper never shipped
// without touching a compiler.
//
// ScenarioHash fingerprints the canonical serialization. RunSweep stamps it
// into every result, partial files carry it, and the merge phase refuses to
// combine partials whose hashes differ — two shards of "the same" sweep run
// from different grid files can never silently mix. The hash covers exactly
// the serializable data: label-resolved closures (loss builders, variant
// mutations, extractors, runners) hash by label, so binaries whose *code*
// diverged under unchanged labels are not distinguished — the shards of one
// run should come from one binary revision.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sweep.h"

namespace quicer::core {

class JsonValue;

/// File-level format marker of scenario files.
inline constexpr std::string_view kScenarioFormat = "quicer-scenario-v1";

/// One row of the ExperimentConfig descriptor table: the field's JSON name,
/// a human type label, a one-line description, a writer producing the
/// canonical JSON value token, and a validating reader. The table drives
/// serialization, parsing, unknown-field rejection and the README defaults
/// table alike.
struct ConfigFieldSpec {
  std::string name;
  std::string type;
  std::string doc;
  std::string (*write)(const ExperimentConfig&);
  /// Parses `value` into `config`; on failure fills `error` (without the
  /// field-path prefix) and returns false.
  bool (*read)(const JsonValue& value, ExperimentConfig& config, std::string& error);
};

/// The descriptor table, in canonical serialization order. `base.loss` and
/// `client_config_override` are deliberately absent: loss patterns are
/// expressed through the losses axis, and full config overrides are a
/// C++-only escape hatch.
const std::vector<ConfigFieldSpec>& ConfigFields();

/// The serializable data of one SweepSpec, as parsed from a scenario file.
/// Losses, variants and metrics are labels/names; ApplyScenario resolves
/// them to functions.
struct Scenario {
  std::string bench;  // provenance; optional in hand-authored files
  std::string sweep;
  int repetitions = 25;
  std::uint64_t seed_base = 0;
  std::uint64_t seed_stride = 7919;
  std::size_t reservoir_capacity = stats::Accumulator::kDefaultReservoirCapacity;
  ExperimentConfig base;

  std::vector<clients::ClientImpl> clients;
  std::vector<http::Version> http_versions;
  std::vector<quic::ServerBehavior> behaviors;
  std::vector<HandshakeMode> modes;
  std::vector<sim::Duration> rtts;
  std::vector<sim::Duration> cert_fetch_delays;
  std::vector<std::size_t> certificate_sizes;
  std::vector<std::string> losses;    // labels, resolved by ApplyScenario
  std::vector<std::string> variants;  // labels, resolved by ApplyScenario
  std::vector<SweepLink> links;       // structural netem models (no resolution)
  std::vector<SweepExtraAxis> extras;

  struct Metric {
    std::string name;
    MetricMode mode = MetricMode::kSummary;
    bool exclude_negative = true;
  };
  std::vector<Metric> metrics;
};

/// Serializes the data of `spec` as one canonical scenario object, each
/// line indented by `indent` spaces. "bench" is omitted when empty (the
/// hash canonicalization). Deterministic: re-serializing an applied parse
/// of the output reproduces it byte for byte.
std::string ScenarioJson(const SweepSpec& spec, std::string_view bench, int indent = 0);

/// A whole scenario file ({"format": ..., "scenarios": [...]}) from
/// (bench name, spec) pairs.
std::string ScenarioFileJson(
    const std::vector<std::pair<std::string, const SweepSpec*>>& specs);

/// Parses and validates a scenario file: format marker, unknown fields at
/// every level, enum labels, value ranges. Returns nullopt and fills
/// `error` (with a "scenarios[i].axes.clients[2]"-style path) on the first
/// violation.
std::optional<std::vector<Scenario>> ParseScenarioFile(std::string_view text,
                                                       std::string* error = nullptr);

/// Overwrites the data fields of `spec` — which must be the live spec of
/// the scenario's sweep (spec.name == scenario.sweep) — with the
/// scenario's, resolving loss/variant labels and metric names against the
/// spec's compiled-in axes first and the builtin registries second.
/// Execution control (shard, observer, runner, memo key, qlog dir) is left
/// untouched. Returns false and fills `error` on an unresolvable label.
bool ApplyScenario(const Scenario& scenario, SweepSpec& spec, std::string* error = nullptr);

/// 64-bit FNV-1a over the canonical serialization (bench name excluded) —
/// the spec content-hash carried by results and partial files.
std::uint64_t ScenarioHash(const SweepSpec& spec);

/// Lower-case hex of a hash, zero-padded to 16 digits.
std::string ScenarioHashHex(std::uint64_t hash);

/// Markdown table (field | type | default | description) of every base
/// config field, generated from the descriptor table — the README
/// "Scenario files" defaults table and `bench_suite schema`.
std::string ScenarioSchemaMarkdown();

}  // namespace quicer::core
