#include "core/sweep_partial.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "core/csv.h"
#include "core/json.h"
#include "core/scenario.h"

namespace quicer::core {
namespace {

constexpr std::string_view kFormat = "quicer-sweep-partial-v1";

void AppendDoubleArray(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    AppendJsonNumber(out, values[i]);
  }
  out += ']';
}

std::string U64String(std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, v);
  return buffer;
}

/// Member `key` of an overflowed accumulator's moments: the writer spells
/// NaN (the moments an infinite sample leaves) as null, so null reads back
/// as NaN; an absent member reads as 0.
double Moment(const JsonValue& overflow, std::string_view key) {
  const JsonValue* value = overflow.Get(key);
  if (value == nullptr) return 0.0;
  return value->is_null() ? std::numeric_limits<double>::quiet_NaN() : value->AsNumber();
}

std::vector<double> ParseDoubleArray(const JsonValue& value) {
  std::vector<double> out;
  out.reserve(value.Items().size());
  for (const JsonValue& item : value.Items()) out.push_back(item.AsNumber());
  return out;
}

constexpr double kTwoTo63 = 9223372036854775808.0;
constexpr double kTwoTo64 = 18446744073709551616.0;

/// Reads the fields that become integers. A present field must be a whole
/// number in [lo, hi), so the cast is defined and writing the result back
/// gives the same digits; the first that is not is recorded with its path,
/// and the document is rejected.
class WholeReader {
 public:
  /// `value`, member `key` of the value at `where`, checked against
  /// [lo, hi); 0 when it fails.
  double Read(const JsonValue& value, std::string_view where, std::string_view key,
              double lo = 0.0, double hi = kTwoTo64) {
    const double v = value.AsNumber(std::nan(""));
    if (InRange(v, lo, hi)) return v;
    Fail(std::string(where) + "." + std::string(key));
    return 0.0;
  }

  /// Member `key` of `object` (the value at `where`) as a size, or
  /// `fallback` when absent.
  std::size_t Size(const JsonValue& object, std::string_view key, std::string_view where,
                   std::size_t fallback = 0) {
    const JsonValue* value = object.Get(key);
    return value == nullptr ? fallback : static_cast<std::size_t>(Read(*value, where, key));
  }

  /// Header member `key` of `doc`, a uint64 written as a string: exactly 16
  /// hex digits when `hex`, else decimal digits that fit 64 bits.
  std::uint64_t U64(const JsonValue& doc, std::string_view key, bool hex) {
    const std::string& text = doc.GetString(key);
    const bool digits = std::all_of(text.begin(), text.end(), [hex](unsigned char c) {
      return hex ? std::isxdigit(c) != 0 : std::isdigit(c) != 0;
    });
    errno = 0;
    const std::uint64_t value = std::strtoull(text.c_str(), nullptr, hex ? 16 : 10);
    if (digits && (hex ? text.size() == 16 : !text.empty()) && errno != ERANGE) return value;
    Fail("$." + std::string(key), hex ? " is not 16 hex digits" : " is not a decimal uint64");
    return 0;
  }

  std::vector<std::size_t> Sizes(const JsonValue& array, std::string_view path) {
    std::vector<std::size_t> out;
    out.reserve(array.Items().size());
    for (const JsonValue& item : array.Items()) {
      const double v = item.AsNumber(std::nan(""));
      if (!InRange(v, 0.0, kTwoTo64)) {
        Fail(std::string(path) + "[" + std::to_string(out.size()) + "]");
        break;
      }
      out.push_back(static_cast<std::size_t>(v));
    }
    return out;
  }

  const std::string& error() const { return error_; }

 private:
  static bool InRange(double v, double lo, double hi) {
    return v >= lo && v < hi && v == std::floor(v);
  }

  void Fail(const std::string& path, std::string_view what = " is not a whole number in range") {
    if (error_.empty()) error_ = path + std::string(what);
  }

  std::string error_;
};

/// The first repetitions an executed point of `merged` lacks, as an error
/// naming the sweep, the point and the range; empty when every executed
/// point covers [0, repetitions). `merged` came from MergeSweepResults over
/// `partials`, so no two windows of one point overlap.
std::string FirstCoverageGap(const std::vector<SweepResult>& partials,
                             const SweepResult& merged) {
  std::vector<const SweepResult*> ordered;
  for (const SweepResult& partial : partials) ordered.push_back(&partial);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SweepResult* a, const SweepResult* b) {
                     return a->shard.rep_begin < b->shard.rep_begin;
                   });
  const std::size_t reps =
      merged.repetitions > 0 ? static_cast<std::size_t>(merged.repetitions) : 0;
  for (std::size_t i = 0; i < merged.points.size(); ++i) {
    if (!merged.points[i].executed) continue;
    std::size_t next = 0;  // the first repetition no window covers yet
    std::size_t gap_end = reps;
    for (const SweepResult* partial : ordered) {
      if (!partial->points[i].executed) continue;
      const std::pair<std::size_t, std::size_t> window = partial->shard.RepWindow(reps);
      if (window.first > next) {
        gap_end = window.first;
        break;
      }
      next = window.second;
    }
    if (next < gap_end) {
      return "sweep '" + merged.name + "': point " + std::to_string(i) + " repetitions [" +
             std::to_string(next) + ", " + std::to_string(gap_end) +
             ") are covered by no partial (rerun that window with --shard/--rep-range, then"
             " merge again)";
    }
  }
  return "";
}

}  // namespace

std::string SweepPartialJson(const SweepResult& result) {
  std::string out = "{\n";
  out += "  \"format\": \"" + std::string(kFormat) + "\",\n";
  out += "  \"sweep\": \"" + JsonEscape(result.name) + "\",\n";
  out += "  \"spec_hash\": \"" + ScenarioHashHex(result.spec_hash) + "\",\n";
  out += "  \"shard_index\": " + std::to_string(result.shard.index) + ",\n";
  out += "  \"shard_count\": " + std::to_string(result.shard.count) + ",\n";
  if (result.shard.rep_begin != 0 || result.shard.rep_end != 0) {
    out += "  \"rep_begin\": " + std::to_string(result.shard.rep_begin) + ",\n";
    out += "  \"rep_end\": " + std::to_string(result.shard.rep_end) + ",\n";
  }
  out += "  \"repetitions\": " + std::to_string(result.repetitions) + ",\n";
  out += "  \"reservoir_capacity\": " + std::to_string(result.reservoir_capacity) + ",\n";
  // Seeds ride as strings: they are full-range uint64, beyond the exact
  // range of JSON numbers as doubles.
  out += "  \"seed_base\": \"" + U64String(result.seed_base) + "\",\n";
  out += "  \"seed_stride\": \"" + U64String(result.seed_stride) + "\",\n";
  // Telemetry rides only when the producing run recorded it, so documents
  // from telemetry-off runs keep their exact legacy bytes.
  if (result.telemetry.enabled) {
    out += "  \"telemetry\": {\"wall_seconds\": " + JsonNumber(result.telemetry.wall_seconds) +
           ", \"counters\": {";
    for (std::size_t i = 0; i < result.telemetry.counters.size(); ++i) {
      const auto& [counter_name, value] = result.telemetry.counters[i];
      if (i != 0) out += ", ";
      out += "\"" + JsonEscape(counter_name) + "\": " + U64String(value);
    }
    out += "}},\n";
  }
  out += "  \"points_total\": " + std::to_string(result.points.size()) + ",\n";
  out += "  \"points\": [\n";

  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointSummary& summary = result.points[i];
    out += "    {\"point\": " + std::to_string(summary.point.index);
    out += ", \"executed\": " + std::string(summary.executed ? "true" : "false");
    out += ", \"client\": \"" + JsonEscape(summary.point.client) + "\"";
    out += ", \"http\": \"" + JsonEscape(summary.point.http) + "\"";
    out += ", \"behavior\": \"" + JsonEscape(summary.point.behavior) + "\"";
    out += ", \"mode\": \"" + JsonEscape(summary.point.mode) + "\"";
    out += ", \"loss\": \"" + JsonEscape(summary.point.loss) + "\"";
    out += ", \"variant\": \"" + JsonEscape(summary.point.variant) + "\"";
    // Off-default only, so pre-links partial files and their byte layout
    // stay stable.
    if (summary.point.link != "default") {
      out += ", \"link\": \"" + JsonEscape(summary.point.link) + "\"";
    }
    out += ", \"extras\": [";
    for (std::size_t e = 0; e < summary.point.extras.size(); ++e) {
      const auto& [axis, value] = summary.point.extras[e];
      if (e != 0) out += ", ";
      out += "{\"axis\": \"" + JsonEscape(axis) + "\", \"label\": \"" +
             JsonEscape(value.label) + "\", \"value\": " + std::to_string(value.value) + "}";
    }
    out += "]";
    out += ", \"rtt_ms\": " + JsonNumber(summary.point.rtt_ms);
    out += ", \"delta_ms\": " + JsonNumber(summary.point.delta_ms);
    out += ", \"cert_bytes\": " + std::to_string(summary.point.certificate_bytes);
    out += ",\n     \"metrics\": [";
    for (std::size_t m = 0; m < summary.metrics.size(); ++m) {
      const MetricSeries& series = summary.metrics[m];
      if (m != 0) out += ", ";
      out += "{\"name\": \"" + JsonEscape(series.name) + "\"";
      out += ", \"mode\": \"" + std::string(ToString(series.mode)) + "\"";
      out += ", \"aborted\": " + std::to_string(series.aborted);
      out += ", \"skipped\": " + std::to_string(series.skipped);
      if (series.mode == MetricMode::kTrace) {
        out += ", \"trace\": ";
        AppendDoubleArray(out, series.trace);
      } else {
        const stats::AccumulatorState state = series.summary.state();
        if (!state.overflowed) {
          out += ", \"samples\": ";
          AppendDoubleArray(out, state.samples);
        } else {
          out += ", \"overflow\": {\"count\": " + std::to_string(state.count);
          out += ", \"mean\": " + JsonNumber(state.mean);
          out += ", \"m2\": " + JsonNumber(state.m2);
          out += ", \"min\": " + JsonNumber(state.min);
          out += ", \"max\": " + JsonNumber(state.max);
          out += ", \"lo\": " + JsonNumber(state.histo_lo);
          out += ", \"hi\": " + JsonNumber(state.histo_hi);
          out += ", \"bins\": ";
          AppendJsonSizeArray(out, state.bins);
          out += "}";
        }
      }
      out += "}";
    }
    out += "]";
    out += i + 1 < result.points.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::optional<SweepResult> ParseSweepPartialJson(std::string_view json, std::string* error) {
  auto fail = [error](std::string message) -> std::optional<SweepResult> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const std::optional<JsonValue> doc = JsonValue::Parse(json, &parse_error);
  if (!doc) return fail("invalid JSON: " + parse_error);
  if (doc->GetString("format") != kFormat) {
    return fail("not a sweep partial-result document (format '" + doc->GetString("format") +
                "')");
  }

  WholeReader whole;
  SweepResult result;
  result.name = doc->GetString("sweep");
  result.spec_hash = whole.U64(*doc, "spec_hash", /*hex=*/true);
  result.shard.index = whole.Size(*doc, "shard_index", "$");
  result.shard.count = whole.Size(*doc, "shard_count", "$", 1);
  result.shard.rep_begin = whole.Size(*doc, "rep_begin", "$");
  result.shard.rep_end = whole.Size(*doc, "rep_end", "$");
  if (const JsonValue* repetitions = doc->Get("repetitions")) {
    result.repetitions = static_cast<int>(
        whole.Read(*repetitions, "$", "repetitions", std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max() + 1.0));
  }
  result.reservoir_capacity = whole.Size(*doc, "reservoir_capacity", "$");
  result.seed_base = whole.U64(*doc, "seed_base", /*hex=*/false);
  result.seed_stride = whole.U64(*doc, "seed_stride", /*hex=*/false);
  if (const JsonValue* telemetry = doc->Get("telemetry")) {
    result.telemetry.enabled = true;
    result.telemetry.wall_seconds = telemetry->GetNumber("wall_seconds");
    if (const JsonValue* counters = telemetry->Get("counters")) {
      for (const auto& [counter_name, value] : counters->Members()) {
        result.telemetry.counters.emplace_back(
            counter_name, static_cast<std::uint64_t>(
                              whole.Read(value, "$.telemetry.counters", counter_name)));
      }
    }
  }

  const JsonValue* points = doc->Get("points");
  if (points == nullptr) return fail("missing 'points' array");
  const std::size_t points_total = whole.Size(*doc, "points_total", "$");
  if (!whole.error().empty()) return fail(whole.error());
  if (points->Items().size() != points_total) {
    return fail("points_total (" + std::to_string(points_total) + ") does not match the " +
                std::to_string(points->Items().size()) + " serialised points");
  }

  result.points.reserve(points->Items().size());
  for (const JsonValue& point : points->Items()) {
    const std::string where = "$.points[" + std::to_string(result.points.size()) + "]";
    PointSummary summary;
    summary.executed = point.GetBool("executed");
    summary.point.index = whole.Size(point, "point", where);
    if (summary.point.index != result.points.size()) {
      return fail("point ids out of order at position " + std::to_string(result.points.size()));
    }
    summary.point.client = point.GetString("client");
    summary.point.http = point.GetString("http");
    summary.point.behavior = point.GetString("behavior");
    summary.point.mode = point.GetString("mode");
    summary.point.loss = point.GetString("loss");
    summary.point.variant = point.GetString("variant");
    if (point.Get("link") != nullptr) summary.point.link = point.GetString("link");
    if (const JsonValue* extras = point.Get("extras")) {
      for (const JsonValue& extra : extras->Items()) {
        SweepAxisValue value;
        value.label = extra.GetString("label");
        if (const JsonValue* number = extra.Get("value")) {
          value.value = static_cast<std::int64_t>(whole.Read(
              *number, where + ".extras[" + std::to_string(summary.point.extras.size()) + "]",
              "value", -kTwoTo63, kTwoTo63));
        }
        summary.point.extras.emplace_back(extra.GetString("axis"), value);
      }
    }
    summary.point.rtt_ms = point.GetNumber("rtt_ms");
    summary.point.delta_ms = point.GetNumber("delta_ms");
    summary.point.certificate_bytes = whole.Size(point, "cert_bytes", where);

    const JsonValue* metrics = point.Get("metrics");
    if (metrics == nullptr) return fail("point " + std::to_string(summary.point.index) +
                                        " misses its 'metrics' array");
    for (const JsonValue& metric : metrics->Items()) {
      const std::string metric_where =
          where + ".metrics[" + std::to_string(summary.metrics.size()) + "]";
      MetricSeries series;
      series.name = metric.GetString("name");
      const std::string& mode = metric.GetString("mode");
      if (mode != "summary" && mode != "trace") {
        return fail("unknown metric mode '" + mode + "'");
      }
      series.mode = mode == "trace" ? MetricMode::kTrace : MetricMode::kSummary;
      series.aborted = whole.Size(metric, "aborted", metric_where);
      series.skipped = whole.Size(metric, "skipped", metric_where);
      if (series.mode == MetricMode::kTrace) {
        if (const JsonValue* trace = metric.Get("trace")) series.trace = ParseDoubleArray(*trace);
      } else {
        stats::AccumulatorState state;
        state.capacity = result.reservoir_capacity;
        if (const JsonValue* overflow = metric.Get("overflow")) {
          state.overflowed = true;
          state.count = whole.Size(*overflow, "count", metric_where + ".overflow");
          state.mean = Moment(*overflow, "mean");
          state.m2 = Moment(*overflow, "m2");
          state.min = Moment(*overflow, "min");
          state.max = Moment(*overflow, "max");
          state.histo_lo = Moment(*overflow, "lo");
          state.histo_hi = Moment(*overflow, "hi");
          if (const JsonValue* bins = overflow->Get("bins")) {
            state.bins = whole.Sizes(*bins, metric_where + ".overflow.bins");
          }
        } else if (const JsonValue* samples = metric.Get("samples")) {
          // The writer lists samples only while they fit the reservoir; more
          // would overflow it here, into moments the document never held.
          if (samples->Items().size() > std::max<std::size_t>(state.capacity, 1)) {
            return fail(metric_where + ".samples holds more values than reservoir_capacity");
          }
          state.samples = ParseDoubleArray(*samples);
        }
        series.summary = stats::Accumulator::FromState(state);
      }
      summary.metrics.push_back(std::move(series));
    }
    if (!whole.error().empty()) return fail(whole.error());
    result.points.push_back(std::move(summary));
  }

  const std::size_t reps =
      result.repetitions > 0 ? static_cast<std::size_t>(result.repetitions) : 0;
  const std::pair<std::size_t, std::size_t> window = result.shard.RepWindow(reps);
  std::size_t executed_points = 0;
  for (const PointSummary& summary : result.points) {
    if (summary.executed) ++executed_points;
  }
  result.total_runs = result.points.size() * reps;
  result.executed_runs = executed_points * (window.second - window.first);
  return result;
}

std::optional<SweepResult> ReadSweepPartialFile(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseSweepPartialJson(buffer.str(), error);
}

std::string SweepPartialFileName(const SweepResult& result) {
  std::string stem = result.name + "_sweep";
  if (result.shard.count > 1) {
    stem += ".shard" + std::to_string(result.shard.index) + "of" +
            std::to_string(result.shard.count);
  }
  if (result.shard.rep_begin != 0 || result.shard.rep_end != 0) {
    stem += ".reps" + std::to_string(result.shard.rep_begin) + "to" +
            (result.shard.rep_end == 0 ? std::string("end")
                                       : std::to_string(result.shard.rep_end));
  }
  return stem + ".json";
}

bool WriteSweepData(const SweepResult& result, const std::string& directory) {
  if (result.name.empty()) return false;
  if (result.sharded()) {
    std::ofstream partial(directory + "/" + SweepPartialFileName(result));
    if (!partial.is_open()) return false;
    partial << SweepPartialJson(result);
    return true;
  }
  CsvWriter csv(directory, result.name + "_sweep", SweepCsvHeader());
  if (!csv.active()) return false;
  WriteSweepCsv(result, csv);
  std::ofstream json(directory + "/" + result.name + "_sweep.json");
  if (!json.is_open()) return false;
  json << SweepResultJson(result);
  return true;
}

bool MergeSweepPartialFiles(const std::vector<std::string>& files, const std::string& out_dir,
                            std::FILE* log, std::vector<SweepResult>* merged_out) {
  // Group the partials by sweep name, in first-seen order.
  std::vector<std::pair<std::string, std::vector<SweepResult>>> groups;
  bool ok = true;
  for (const std::string& file : files) {
    std::string error;
    std::optional<SweepResult> partial = ReadSweepPartialFile(file, &error);
    if (!partial) {
      if (log != nullptr) std::fprintf(log, "%s: %s\n", file.c_str(), error.c_str());
      ok = false;
      continue;
    }
    auto group = groups.begin();
    for (; group != groups.end(); ++group) {
      if (group->first == partial->name) break;
    }
    if (group == groups.end()) {
      groups.push_back({partial->name, {}});
      group = groups.end() - 1;
    }
    group->second.push_back(std::move(*partial));
  }

  // Merge and coverage-check every group before anything is written.
  std::vector<SweepResult> merged;
  for (const auto& group : groups) {
    const std::vector<SweepResult>& partials = group.second;
    std::string error;
    std::optional<SweepResult> result = MergeSweepResults(partials, &error);
    if (result) error = FirstCoverageGap(partials, *result);
    if (!error.empty()) {
      if (log != nullptr) std::fprintf(log, "merge failed: %s\n", error.c_str());
      ok = false;
      continue;
    }
    merged.push_back(std::move(*result));
  }
  if (!ok) {
    if (log != nullptr) std::fprintf(log, "nothing written to '%s'\n", out_dir.c_str());
    return false;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    if (log != nullptr) {
      std::fprintf(log, "cannot create out dir '%s': %s\n", out_dir.c_str(),
                   ec.message().c_str());
    }
    return false;
  }
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (!WriteSweepData(merged[i], out_dir)) {
      if (log != nullptr) {
        std::fprintf(log, "cannot write merged exports for sweep '%s' into '%s'\n",
                     merged[i].name.c_str(), out_dir.c_str());
      }
      return false;
    }
    if (log != nullptr) {
      std::fprintf(log, "[%s] merged %zu partials: %zu points, %zu runs\n",
                   merged[i].name.c_str(), groups[i].second.size(), merged[i].points.size(),
                   merged[i].executed_runs);
    }
  }
  if (merged_out != nullptr) {
    for (SweepResult& result : merged) merged_out->push_back(std::move(result));
  }
  return true;
}

}  // namespace quicer::core
