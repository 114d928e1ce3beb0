// Cross-process interchange for the sweep engine's merge phase.
//
// A sharded execution (SweepSpec::shard) serialises its SweepResult —
// including the complete per-series accumulator state, trace vectors and
// the full grid's point metadata — as a partial-result JSON document. A
// merge process (bench_suite's `merge` subcommand) parses any set of these
// files, recombines them with MergeSweepResults, and emits the usual
// CSV/JSON exports. Numbers are written in their shortest exactly
// round-tripping form (core::JsonNumber), so the merged exports are
// byte-identical to what a single-process run of the same spec would have
// written. Every document carries the spec content-hash (core::
// ScenarioHash); the merge phase refuses to combine partials whose hashes
// differ.
//
// The document also lists budget-skipped point ids, so a later run can
// re-execute exactly those (`bench_suite --points=...`) and the rerun's
// partial merges in cleanly.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.h"

namespace quicer::core {

/// Serialises a (possibly partial) result as a partial-result document.
std::string SweepPartialJson(const SweepResult& result);

/// Parses a partial-result document. The returned result carries the full
/// grid metadata (labels, stable ids) but default-constructed point
/// configs — everything the merge and export phases need, nothing the
/// execute phase does. Returns nullopt and fills `error` on malformed or
/// wrong-format input.
std::optional<SweepResult> ParseSweepPartialJson(std::string_view json,
                                                std::string* error = nullptr);

/// Reads and parses one partial-result file.
std::optional<SweepResult> ReadSweepPartialFile(const std::string& path,
                                                std::string* error = nullptr);

/// Canonical file name for a result's partial document:
/// "<name>_sweep.shard<i>of<N>.json" for round-robin shards,
/// "<name>_sweep.points.json" for explicit point-id runs, and
/// "<name>_sweep.partial.json" for unsharded runs with budget skips.
/// A repetition window appends ".reps<a>to<b>" before the extension, so
/// windows of the same point-id set land in distinct files.
std::string SweepPartialFileName(const SweepResult& result);

/// Driver of the `merge` subcommand: reads every file, groups the partials
/// by sweep name, merges each group and writes the final exports into
/// `out_dir` (plus a fresh partial file when budget-skipped points remain).
/// Diagnostics go to `log` (may be null). Returns false if any file fails
/// to read or any group fails to merge or export. Beyond MergeSweepResults'
/// checks, every executed point must cover all its repetitions: a gap
/// between repetition windows fails the group, so each (point, repetition)
/// of an export is counted exactly once. When `merged_out` is
/// non-null, every successfully merged result is appended to it (in
/// first-seen sweep order) — the --telemetry report path uses this to fold
/// the partials' telemetry into a per-sweep report.
bool MergeSweepPartialFiles(const std::vector<std::string>& files, const std::string& out_dir,
                            std::FILE* log, std::vector<SweepResult>* merged_out = nullptr);

}  // namespace quicer::core
