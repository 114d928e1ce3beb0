#include "core/sweep_partial.h"

#include <cinttypes>
#include <cstdlib>
#include <fstream>
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

std::vector<double> ParseDoubleArray(const JsonValue& value) {
  std::vector<double> out;
  out.reserve(value.Items().size());
  for (const JsonValue& item : value.Items()) out.push_back(item.AsNumber());
  return out;
}

std::vector<std::size_t> ParseSizeArray(const JsonValue& value) {
  std::vector<std::size_t> out;
  out.reserve(value.Items().size());
  for (const JsonValue& item : value.Items()) {
    out.push_back(static_cast<std::size_t>(item.AsNumber()));
  }
  return out;
}

}  // namespace

std::string SweepPartialJson(const SweepResult& result) {
  std::string out = "{\n";
  out += "  \"format\": \"" + std::string(kFormat) + "\",\n";
  out += "  \"sweep\": \"" + JsonEscape(result.name) + "\",\n";
  if (result.spec_hash != 0) {
    out += "  \"spec_hash\": \"" + ScenarioHashHex(result.spec_hash) + "\",\n";
  }
  out += "  \"shard_index\": " + std::to_string(result.shard.index) + ",\n";
  out += "  \"shard_count\": " + std::to_string(result.shard.count) + ",\n";
  if (!result.shard.points.empty()) {
    out += "  \"shard_points\": ";
    AppendJsonSizeArray(out, result.shard.points);
    out += ",\n";
  }
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
  out += "  \"budget_skipped_points\": ";
  AppendJsonSizeArray(out, result.BudgetSkippedPoints());
  out += ",\n  \"points\": [\n";

  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointSummary& summary = result.points[i];
    out += "    {\"point\": " + std::to_string(summary.point.index);
    out += ", \"executed\": " + std::string(summary.executed ? "true" : "false");
    if (summary.budget_skipped) out += ", \"budget_skipped\": true";
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

  SweepResult result;
  result.name = doc->GetString("sweep");
  result.spec_hash = std::strtoull(doc->GetString("spec_hash").c_str(), nullptr, 16);
  result.shard.index = static_cast<std::size_t>(doc->GetNumber("shard_index"));
  result.shard.count = static_cast<std::size_t>(doc->GetNumber("shard_count", 1.0));
  if (const JsonValue* shard_points = doc->Get("shard_points")) {
    result.shard.points = ParseSizeArray(*shard_points);
  }
  result.shard.rep_begin = static_cast<std::size_t>(doc->GetNumber("rep_begin"));
  result.shard.rep_end = static_cast<std::size_t>(doc->GetNumber("rep_end"));
  result.repetitions = static_cast<int>(doc->GetNumber("repetitions"));
  result.reservoir_capacity = static_cast<std::size_t>(doc->GetNumber("reservoir_capacity"));
  result.seed_base = std::strtoull(doc->GetString("seed_base").c_str(), nullptr, 10);
  result.seed_stride = std::strtoull(doc->GetString("seed_stride").c_str(), nullptr, 10);
  if (const JsonValue* telemetry = doc->Get("telemetry")) {
    result.telemetry.enabled = true;
    result.telemetry.wall_seconds = telemetry->GetNumber("wall_seconds");
    if (const JsonValue* counters = telemetry->Get("counters")) {
      for (const auto& [counter_name, value] : counters->Members()) {
        result.telemetry.counters.emplace_back(
            counter_name, static_cast<std::uint64_t>(value.AsNumber()));
      }
    }
  }

  const JsonValue* points = doc->Get("points");
  if (points == nullptr) return fail("missing 'points' array");
  const auto points_total = static_cast<std::size_t>(doc->GetNumber("points_total"));
  if (points->Items().size() != points_total) {
    return fail("points_total (" + std::to_string(points_total) + ") does not match the " +
                std::to_string(points->Items().size()) + " serialised points");
  }

  result.points.reserve(points->Items().size());
  for (const JsonValue& point : points->Items()) {
    PointSummary summary;
    summary.executed = point.GetBool("executed");
    summary.budget_skipped = point.GetBool("budget_skipped");
    summary.point.index = static_cast<std::size_t>(point.GetNumber("point"));
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
        value.value = static_cast<std::int64_t>(extra.GetNumber("value"));
        summary.point.extras.emplace_back(extra.GetString("axis"), value);
      }
    }
    summary.point.rtt_ms = point.GetNumber("rtt_ms");
    summary.point.delta_ms = point.GetNumber("delta_ms");
    summary.point.certificate_bytes = static_cast<std::size_t>(point.GetNumber("cert_bytes"));

    const JsonValue* metrics = point.Get("metrics");
    if (metrics == nullptr) return fail("point " + std::to_string(summary.point.index) +
                                        " misses its 'metrics' array");
    for (const JsonValue& metric : metrics->Items()) {
      MetricSeries series;
      series.name = metric.GetString("name");
      const std::string& mode = metric.GetString("mode");
      if (mode != "summary" && mode != "trace") {
        return fail("unknown metric mode '" + mode + "'");
      }
      series.mode = mode == "trace" ? MetricMode::kTrace : MetricMode::kSummary;
      series.aborted = static_cast<std::size_t>(metric.GetNumber("aborted"));
      series.skipped = static_cast<std::size_t>(metric.GetNumber("skipped"));
      if (series.mode == MetricMode::kTrace) {
        if (const JsonValue* trace = metric.Get("trace")) series.trace = ParseDoubleArray(*trace);
      } else {
        stats::AccumulatorState state;
        state.capacity = result.reservoir_capacity;
        if (const JsonValue* overflow = metric.Get("overflow")) {
          state.overflowed = true;
          state.count = static_cast<std::size_t>(overflow->GetNumber("count"));
          state.mean = overflow->GetNumber("mean");
          state.m2 = overflow->GetNumber("m2");
          state.min = overflow->GetNumber("min");
          state.max = overflow->GetNumber("max");
          state.histo_lo = overflow->GetNumber("lo");
          state.histo_hi = overflow->GetNumber("hi");
          if (const JsonValue* bins = overflow->Get("bins")) {
            state.bins = ParseSizeArray(*bins);
          }
        } else if (const JsonValue* samples = metric.Get("samples")) {
          state.samples = ParseDoubleArray(*samples);
        }
        series.summary = stats::Accumulator::FromState(state);
      }
      summary.metrics.push_back(std::move(series));
    }
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
  if (!result.shard.points.empty()) {
    stem += ".points";
  } else if (result.shard.count > 1) {
    stem += ".shard" + std::to_string(result.shard.index) + "of" +
            std::to_string(result.shard.count);
  }
  if (result.shard.rep_begin != 0 || result.shard.rep_end != 0) {
    stem += ".reps" + std::to_string(result.shard.rep_begin) + "to" +
            (result.shard.rep_end == 0 ? std::string("end")
                                       : std::to_string(result.shard.rep_end));
  }
  if (stem == result.name + "_sweep") stem += ".partial";
  return stem + ".json";
}

bool WriteSweepData(const SweepResult& result, const std::string& directory) {
  if (result.name.empty()) return false;
  if (!result.sharded()) {
    CsvWriter csv(directory, result.name + "_sweep", SweepCsvHeader());
    if (!csv.active()) return false;
    WriteSweepCsv(result, csv);
    std::ofstream json(directory + "/" + result.name + "_sweep.json");
    if (!json.is_open()) return false;
    json << SweepResultJson(result);
    if (!result.partial()) return true;
    // Budget-skipped points remain: also leave a partial-result file so a
    // later --points rerun can be merged in.
  }
  std::ofstream partial(directory + "/" + SweepPartialFileName(result));
  if (!partial.is_open()) return false;
  partial << SweepPartialJson(result);
  return true;
}

bool MaybeWriteSweepData(const SweepResult& result) {
  const auto dir = DataDirFromEnv();
  if (!dir) return false;
  return WriteSweepData(result, *dir);
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

  for (const auto& [name, partials] : groups) {
    std::string error;
    const std::optional<SweepResult> merged = MergeSweepResults(partials, &error);
    if (!merged) {
      if (log != nullptr) std::fprintf(log, "merge failed: %s\n", error.c_str());
      ok = false;
      continue;
    }
    if (!WriteSweepData(*merged, out_dir)) {
      if (log != nullptr) {
        std::fprintf(log, "cannot write merged exports for sweep '%s' into '%s'\n",
                     name.c_str(), out_dir.c_str());
      }
      ok = false;
      continue;
    }
    if (log != nullptr) {
      const std::vector<std::size_t> still_skipped = merged->BudgetSkippedPoints();
      std::fprintf(log, "[%s] merged %zu partials: %zu points, %zu runs%s\n", name.c_str(),
                   partials.size(), merged->points.size(), merged->executed_runs,
                   still_skipped.empty()
                       ? ""
                       : (" (" + std::to_string(still_skipped.size()) +
                          " budget-skipped points remain — see the partial file)")
                             .c_str());
    }
    if (merged_out != nullptr) merged_out->push_back(*merged);
  }
  return ok;
}

}  // namespace quicer::core
