// Work units of the distributed sweep queue.
//
// A unit is the claimable quantum of a distributed run: a (bench, sweep,
// point-id set, repetition window) tuple small enough that losing one to a
// crashed host wastes little work. PlanUnits splits a suite's enumerated
// sweeps into units so no unit exceeds a target run count: cheap points are
// chunked together, and a single point whose repetitions alone exceed the
// target is split into repetition windows (the seed schedule depends only on
// the absolute repetition index, so the windows merge bit-identically).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace quicer::dist {

/// One claimable unit of work. `runs` is the cost estimate the planner
/// balanced (points x repetition window; runners that memoize whole-grid
/// computations cost less in practice, which only makes units finish early).
struct WorkUnit {
  std::string id;     // "u00042": stable, zero-padded, unique per queue
  std::string bench;  // registry name the worker invokes
  std::string sweep;  // SweepSpec::name the unit targets (== bench when the
                      // bench runs a single sweep)
  std::vector<std::size_t> points;  // explicit point ids of the sweep's grid
  std::size_t rep_begin = 0;        // repetition window [rep_begin, rep_end)
  std::size_t rep_end = 0;          // 0 = all repetitions
  std::size_t runs = 0;
  /// Content-hash of the sweep's spec (core::ScenarioHash) at planning
  /// time; the collect phase requires every published partial to carry the
  /// same hash, so results of a different grid definition never merge in.
  /// 0 = unknown (pre-hash queues).
  std::uint64_t spec_hash = 0;
  /// How many times this unit's runner has already failed; the worker's
  /// retry budget re-queues a failed unit (attempt + 1) until the budget is
  /// spent, then parks it in failed/.
  std::size_t attempt = 0;

  /// Measured execution telemetry, stamped by the worker when it publishes
  /// the unit into done/ (absent — 0 / empty — in todo/ and active/ units).
  /// This is the ROADMAP's adaptive-unit-planning prerequisite: a
  /// queue-rebalance pass can split by observed cost instead of
  /// points × window, and `queue-status --json` reports per-worker
  /// throughput from it.
  double wall_seconds = 0.0;
  double runs_per_second = 0.0;
  std::string worker;  // sanitized id of the worker that ran it

  /// True when the unit covers a strict repetition window (a split point).
  bool windowed() const { return rep_begin != 0 || rep_end != 0; }
};

std::string WorkUnitJson(const WorkUnit& unit);
std::optional<WorkUnit> ParseWorkUnitJson(std::string_view json, std::string* error = nullptr);

/// One sweep's enumeration facts, reported by queue-init's enumerate pass
/// and recorded in the queue manifest for collect-time coverage
/// verification.
struct SweepInventory {
  std::string bench;
  std::string sweep;
  std::size_t point_count = 0;
  std::size_t repetitions = 0;
  /// Content-hash of the sweep's spec (core::ScenarioHash) as enumerated by
  /// queue-init; copied into every planned unit. 0 = unknown.
  std::uint64_t spec_hash = 0;
};

/// Splits the inventories into units of at most `max_runs_per_unit` runs
/// (clamped to >= 1): consecutive points group together while their combined
/// repetitions fit, and a point whose repetitions alone exceed the target is
/// split into repetition windows. Unit ids are assigned sequentially in
/// inventory order, so the plan is deterministic.
std::vector<WorkUnit> PlanUnits(const std::vector<SweepInventory>& sweeps,
                                std::size_t max_runs_per_unit);

}  // namespace quicer::dist
