#include "dist/collect.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>

#include "core/scenario.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "obs/telemetry.h"

namespace quicer::dist {
namespace {

namespace fs = std::filesystem;

/// The units of one sweep with the partials they published.
struct SweepGroup {
  const SweepInventory* inventory = nullptr;
  std::vector<const WorkUnit*> units;  // manifest-planned, in id order
};

/// Checks that the group's units tile every point's repetition range
/// exactly once. Returns an empty string on success.
std::string VerifyCoverage(const std::string& sweep, const SweepGroup& group) {
  const std::size_t reps = std::max<std::size_t>(group.inventory->repetitions, 1);
  // point id -> covering repetition windows
  std::map<std::size_t, std::vector<std::pair<std::size_t, std::size_t>>> windows;
  for (const WorkUnit* unit : group.units) {
    const std::size_t end = unit->rep_end == 0 ? reps : unit->rep_end;
    if (unit->rep_begin >= end || end > reps) {
      return "unit " + unit->id + " of sweep '" + sweep + "' has repetition window [" +
             std::to_string(unit->rep_begin) + ", " + std::to_string(end) +
             ") outside [0, " + std::to_string(reps) + ")";
    }
    for (std::size_t point : unit->points) {
      if (point >= group.inventory->point_count) {
        return "unit " + unit->id + " of sweep '" + sweep + "' references point " +
               std::to_string(point) + " beyond the " +
               std::to_string(group.inventory->point_count) + "-point grid";
      }
      windows[point].emplace_back(unit->rep_begin, end);
    }
  }
  for (std::size_t point = 0; point < group.inventory->point_count; ++point) {
    auto it = windows.find(point);
    if (it == windows.end()) {
      return "sweep '" + sweep + "': point " + std::to_string(point) +
             " is covered by no unit";
    }
    std::sort(it->second.begin(), it->second.end());
    std::size_t cursor = 0;
    for (const auto& [begin, end] : it->second) {
      if (begin != cursor) {
        return "sweep '" + sweep + "': point " + std::to_string(point) +
               " repetitions are " + (begin > cursor ? "uncovered" : "covered twice") +
               " around index " + std::to_string(std::min(begin, cursor));
      }
      cursor = end;
    }
    if (cursor != reps) {
      return "sweep '" + sweep + "': point " + std::to_string(point) +
             " repetitions [" + std::to_string(cursor) + ", " + std::to_string(reps) +
             ") are uncovered";
    }
  }
  return "";
}

/// Reads the unit's published partial for its target sweep; any other file
/// in the unit's result directory is ignored.
std::optional<core::SweepResult> ReadUnitPartial(const WorkQueue& queue,
                                                 const WorkUnit& unit,
                                                 std::string* error) {
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(queue.ResultDir(unit.id), ec)) {
    if (entry.path().extension() != ".json") continue;
    std::string read_error;
    std::optional<core::SweepResult> partial =
        core::ReadSweepPartialFile(entry.path().string(), &read_error);
    if (!partial) continue;  // not a partial document (stray export)
    if (partial->name == unit.sweep) return partial;
  }
  *error = "unit " + unit.id + " published no partial for sweep '" + unit.sweep + "'";
  return std::nullopt;
}

/// The unit's partial must have executed exactly the unit's points —
/// anything else means the results directory holds output of a different
/// plan (a stale or hand-edited queue).
std::string VerifyUnitPartial(const WorkUnit& unit, const core::SweepResult& partial) {
  // The spec content-hash pins the grid's serializable data: a partial
  // produced from a different scenario file, or from a binary whose
  // compiled-in axes/base/metric set changed, must never merge into this
  // queue's exports. (It cannot see closure *bodies* — a binary that
  // changed only a loss/variant lambda under the same label hashes
  // identically; keep worker binaries at one revision per queue.) Hash 0
  // means "unknown" and is tolerated for pre-hash documents.
  if (unit.spec_hash != 0 && partial.spec_hash != 0 && unit.spec_hash != partial.spec_hash) {
    return "unit " + unit.id + " published results with spec hash " +
           core::ScenarioHashHex(partial.spec_hash) + " but the plan expects " +
           core::ScenarioHashHex(unit.spec_hash) +
           " — the results come from a different grid definition";
  }
  std::vector<std::size_t> expected = unit.points;
  std::sort(expected.begin(), expected.end());
  std::vector<std::size_t> executed;
  for (const core::PointSummary& summary : partial.points) {
    if (summary.executed) executed.push_back(summary.point.index);
  }
  if (executed != expected) {
    return "unit " + unit.id + " executed " + std::to_string(executed.size()) +
           " points of sweep '" + unit.sweep + "' but the plan assigned " +
           std::to_string(expected.size());
  }
  if (partial.shard.rep_begin != unit.rep_begin || partial.shard.rep_end != unit.rep_end) {
    return "unit " + unit.id + " executed repetition window [" +
           std::to_string(partial.shard.rep_begin) + ", " +
           std::to_string(partial.shard.rep_end) + ") but the plan assigned [" +
           std::to_string(unit.rep_begin) + ", " + std::to_string(unit.rep_end) + ")";
  }
  return "";
}

}  // namespace

bool Collect(const WorkQueue& queue, const std::string& out_dir, CollectReport* report,
             std::FILE* log, const std::string& telemetry_file) {
  CollectReport local;
  CollectReport& r = report != nullptr ? *report : local;
  r = CollectReport{};
  auto fail = [&](std::string message) {
    r.error = std::move(message);
    if (log != nullptr && !r.error.empty()) {
      std::fprintf(log, "collect: %s\n", r.error.c_str());
    }
    return false;
  };

  std::string units_error;
  const std::vector<WorkUnit> units = queue.Units(&units_error);
  if (!units_error.empty()) return fail("unreadable unit: " + units_error);
  r.units_total = units.size();
  if (units.size() != queue.manifest().unit_count) {
    return fail("queue holds " + std::to_string(units.size()) + " units but the manifest " +
                "planned " + std::to_string(queue.manifest().unit_count));
  }

  // Group the units per sweep and verify the plan tiles every grid.
  std::map<std::string, SweepGroup> groups;
  for (const SweepInventory& inventory : queue.manifest().sweeps) {
    groups[inventory.sweep].inventory = &inventory;
  }
  for (const WorkUnit& unit : units) {
    auto it = groups.find(unit.sweep);
    if (it == groups.end()) {
      return fail("unit " + unit.id + " targets sweep '" + unit.sweep +
                  "', which the manifest does not list");
    }
    it->second.units.push_back(&unit);
  }
  for (const auto& [sweep, group] : groups) {
    if (group.inventory->point_count == 0) continue;
    std::string coverage = VerifyCoverage(sweep, group);
    if (!coverage.empty()) return fail(std::move(coverage));
  }

  // Every unit must have published its results.
  for (const WorkUnit& unit : units) {
    if (queue.HasResult(unit.id)) {
      ++r.units_with_results;
    } else {
      r.missing_units.push_back(unit.id + " [" + queue.UnitState(unit.id) + "]");
    }
  }
  if (!r.missing_units.empty()) {
    std::string names;
    for (const std::string& missing : r.missing_units) {
      if (!names.empty()) names += ", ";
      names += missing;
    }
    return fail(std::to_string(r.missing_units.size()) + " of " +
                std::to_string(r.units_total) + " units have no results yet: " + names);
  }

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) return fail("cannot create '" + out_dir + "': " + ec.message());

  // Merge per sweep. Units are in id order; MergeSweepResults folds the
  // partials in stable window-start order over that, so every split point's
  // windows concatenate in repetition order.
  std::vector<obs::SweepRecord> telemetry_records;
  for (const auto& [sweep, group] : groups) {
    if (group.units.empty()) continue;
    std::vector<core::SweepResult> partials;
    partials.reserve(group.units.size());
    for (const WorkUnit* unit : group.units) {
      std::string read_error;
      std::optional<core::SweepResult> partial = ReadUnitPartial(queue, *unit, &read_error);
      if (!partial) return fail(std::move(read_error));
      std::string mismatch = VerifyUnitPartial(*unit, *partial);
      if (!mismatch.empty()) return fail(std::move(mismatch));
      partials.push_back(std::move(*partial));
    }
    std::string merge_error;
    const std::optional<core::SweepResult> merged =
        core::MergeSweepResults(partials, &merge_error);
    if (!merged) return fail("sweep '" + sweep + "': " + merge_error);
    if (!core::WriteSweepData(*merged, out_dir)) {
      return fail("cannot write merged exports for sweep '" + sweep + "' into '" +
                  out_dir + "'");
    }
    if (log != nullptr) {
      std::fprintf(log, "[%s] merged %zu units: %zu points, %zu runs\n", sweep.c_str(),
                   partials.size(), merged->points.size(), merged->executed_runs);
    }
    if (!telemetry_file.empty() && merged->telemetry.enabled) {
      telemetry_records.push_back(core::TelemetryRecordOf(*merged, group.inventory->bench));
    }
  }
  if (!telemetry_file.empty() &&
      !obs::WriteTelemetryReport(telemetry_records, telemetry_file, log)) {
    r.error = "telemetry report not written to '" + telemetry_file + "'";
    return false;
  }
  r.complete = true;
  return true;
}

}  // namespace quicer::dist
