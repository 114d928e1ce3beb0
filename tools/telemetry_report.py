#!/usr/bin/env python3
"""Summarizes and diffs quicer telemetry reports.

A telemetry report is the JSON document written by `bench_suite
--telemetry=FILE` (or `run --grid`/`merge` with the same flag): format
"quicer-telemetry-v1", one entry per executed (bench, sweep) with its
wall-clock execute time, executed run count and runtime counters (event
loop, pools, netem queues, recovery, frontend cache — see
docs/observability.md).

Usage:
    tools/telemetry_report.py summary <report.json> [more.json ...]
        Prints one table row per (bench, sweep): wall time, runs, runs/s,
        simulated events/s, and the throughput-relevant counters. Multiple
        reports concatenate (a merge report plus a local run, say).

    tools/telemetry_report.py diff <baseline.json> <candidate.json> \
        [--threshold=0.25] [--strict]
        Compares sweeps present in both reports. Deterministic counters
        (sim.*, quic.*, netem.*, recovery.*) are expected to be EQUAL for
        the same grid: any difference is reported, and fails the diff under
        --strict. Wall-clock changes beyond the threshold (default 25%) are
        reported as slower/faster but only fail under --strict.

Exit codes: 0 ok, 1 differences under --strict, 2 usage/parse error.
"""
import json
import sys

FORMAT = "quicer-telemetry-v1"

# Timer-valued counters (micros spent per phase) vary with machine load.
# Arena placement counters vary with thread count and shard layout: run
# contexts are reused thread-locally, so whether a placement is served from
# retained chunks (quic.pool.*_hit) and how many chunk tails a run skips
# (quic.arena.bytes_highwater) depend on what the context ran before. Only
# flag those on wall-clock-sized swings, never on exact inequality.
# Frontend-cache counters are added once per memoised cluster simulation,
# and every process of a sharded run simulates the clusters its points
# need, so a merged report counts shared clusters once per shard.
# Everything else — event loop totals, netem enqueues/drops, recovery
# activity — is determined by the grid alone and must agree exactly.
TIMER_PREFIXES = ("sweep.",)
LAYOUT_PREFIXES = ("quic.pool.", "quic.arena.", "scan.frontend_cache.")
LAYOUT_SUFFIXES = ("max_queue_pkts", "max_queue_bytes")


def deterministic(name: str) -> bool:
    if name.startswith(TIMER_PREFIXES) or name.startswith(LAYOUT_PREFIXES):
        return False
    return not name.endswith(LAYOUT_SUFFIXES)


def load(path: str) -> list:
    with open(path) as f:
        report = json.load(f)
    if report.get("format") != FORMAT:
        raise ValueError(f"{path}: unexpected format {report.get('format')!r}")
    return report.get("sweeps", [])


def key(entry: dict) -> str:
    bench = entry.get("bench", "")
    sweep = entry.get("sweep", "")
    return f"{bench}/{sweep}" if bench else sweep


def summary(paths: list) -> int:
    entries = []
    for path in paths:
        entries.extend(load(path))
    if not entries:
        print("no sweeps recorded")
        return 0
    width = max(len(key(e)) for e in entries)
    width = max(width, len("sweep"))
    print(f"{'sweep':<{width}}  {'wall_s':>12}  {'runs':>8}  {'runs/s':>9}  "
          f"{'events/s':>12}  {'events':>12}")
    total_wall = 0.0
    total_runs = 0
    total_events = 0
    for entry in entries:
        wall = float(entry.get("wall_seconds", 0.0))
        runs = int(entry.get("executed_runs", 0))
        counters = entry.get("counters", {})
        events = int(counters.get("sim.events_run", 0))
        rps = runs / wall if wall > 0 else 0.0
        eps = float(entry.get("events_per_sec", events / wall if wall > 0 else 0.0))
        print(f"{key(entry):<{width}}  {wall:>12.6f}  {runs:>8}  {rps:>9.1f}  "
              f"{eps:>12.0f}  {events:>12}")
        total_wall += wall
        total_runs += runs
        total_events += events
    rps = total_runs / total_wall if total_wall > 0 else 0.0
    eps = total_events / total_wall if total_wall > 0 else 0.0
    print(f"{'TOTAL':<{width}}  {total_wall:>12.6f}  {total_runs:>8}  {rps:>9.1f}  "
          f"{eps:>12.0f}  {total_events:>12}")
    return 0


def diff(baseline_path: str, candidate_path: str, threshold: float,
         strict: bool) -> int:
    # Keyed by sweep name alone: a merged report (bench_suite merge
    # --telemetry) has no bench attribution, and sweep names are unique
    # across the suite.
    baseline = {e.get("sweep", ""): e for e in load(baseline_path)}
    candidate = {e.get("sweep", ""): e for e in load(candidate_path)}
    problems = []
    notes = []

    for name in sorted(set(baseline) - set(candidate)):
        notes.append(f"{name}: only in baseline")
    for name in sorted(set(candidate) - set(baseline)):
        notes.append(f"{name}: only in candidate")

    for name in sorted(set(baseline) & set(candidate)):
        base, cand = baseline[name], candidate[name]
        base_counters = base.get("counters", {})
        cand_counters = cand.get("counters", {})
        for counter in sorted(set(base_counters) | set(cand_counters)):
            b = int(base_counters.get(counter, 0))
            c = int(cand_counters.get(counter, 0))
            if b == c:
                continue
            if deterministic(counter):
                problems.append(f"{name}: {counter} {b} -> {c}")
            else:
                notes.append(f"{name}: {counter} {b} -> {c} (load-dependent)")
        # Wall times are informational only: a merged report's wall is the
        # shards' *summed compute*, which legitimately grows when memoized
        # runners recompute per process, and sub-second sweeps are noise.
        base_wall = float(base.get("wall_seconds", 0.0))
        cand_wall = float(cand.get("wall_seconds", 0.0))
        if base_wall > 0.5 and cand_wall > 0:
            delta = (cand_wall - base_wall) / base_wall
            if abs(delta) > threshold:
                direction = "slower" if delta > 0 else "faster"
                notes.append(f"{name}: wall {base_wall:.6f}s -> {cand_wall:.6f}s "
                             f"({delta:+.1%} {direction})")

    for note in notes:
        print(f"note: {note}")
    if problems:
        print(f"{len(problems)} difference(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1 if strict else 0
    print("ok: reports agree on every shared sweep's deterministic counters")
    return 0


def main(argv: list) -> int:
    threshold = 0.25
    strict = False
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg == "--strict":
            strict = True
        else:
            positional.append(arg)
    if not positional:
        print(__doc__, file=sys.stderr)
        return 2
    mode, paths = positional[0], positional[1:]
    try:
        if mode == "summary" and paths:
            return summary(paths)
        if mode == "diff" and len(paths) == 2:
            return diff(paths[0], paths[1], threshold, strict)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
