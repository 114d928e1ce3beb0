#!/usr/bin/env python3
"""quicer repository benchmark.

Builds perfbench_driver (this directory's CMake package, which links the
top-level `quicer` library) and runs one workload, each part in its own
process, then prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  run.py --workload W --seed N --seconds S --trace 0
      End-to-end metrics of workload W: runs_per_s, setup_s, peak_rss_mb.
  run.py --workload W --seed N --seconds S --trace 1
      Traced run: the per-layer metrics of every workload (W first, each
      for at most TRACED_SECONDS_MAX seconds), each prefixed with its
      workload's name.
  run.py --workload W --steady N [--seed K] [--seconds S]
      Steadiness report: N untraced runs of seed K, with the median,
      quartiles and extremes of every end-to-end metric.
  run.py --record-references
      Rewrites reference/digests.json for the shipped seeds.

See README.md for the workloads, the metrics and the noise findings behind
the estimators used here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "reference", "digests.json")

WORKLOADS = ["cert_cache", "tranco_scan", "handshake_paper", "lossy_transfer"]
SHIPPED_SEEDS = [1, 2]
# Set-up is timed this many times per run, each in a fresh process, half
# before and half after the timed run, plus the timed run's own set-up; the
# median is reported. The samples are spread over the run and over the
# allowed CPUs in turn, so that neither one slow stretch of the host nor one
# slow vCPU sets all of them (the driver moves the timed rounds likewise).
SETUP_SAMPLES_AROUND = 3
CPUS = sorted(os.sched_getaffinity(0))
# Rounds of a shipped seed re-checked against the references in every run
# whose own seed has none.
CANARY_ROUNDS = 3
# A traced run measures all four workloads, each for at most this many
# seconds, so it ends well within the time one untraced run may take.
TRACED_SECONDS_MAX = 10
DRIVER_TIMEOUT_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no quicer source tree at {ROOT}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if result.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench_driver")


def drive(binary, workload, seed, mode, extra=(), cpu=None):
    """Runs the driver once (on `cpu` only, when given) and returns its JSON
    line."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--work-dir", work, *extra]
    env = dict(os.environ, QUICER_THREADS="1")
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    result = subprocess.run(command, capture_output=True, text=True, env=env,
                            timeout=DRIVER_TIMEOUT_S, preexec_fn=pin)
    if result.returncode != 0:
        raise BenchError(f"{' '.join(command)} exited {result.returncode}: "
                         f"{result.stderr.strip()[-500:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def load_references():
    if not os.path.isfile(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)["workloads"]


def runs_per_s(rounds):
    """Work of one round over the time of the fastest round."""
    return rounds[0][3] / (min(r[1] for r in rounds) / 1e9)


class Checker:
    """Compares round digests with the references of the round's seed, or,
    for seeds without references, with the first digest seen at the same
    position. A mismatching round counts all its units as failed."""

    def __init__(self, workload, references):
        self.workload = workload
        self.references = references.get(workload, {}).get("seeds", {})
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def has_reference(self, seed):
        return str(seed) in self.references

    def rounds(self, seed, rounds):
        expected = self.references.get(str(seed))
        for position, _ns, digest, units in rounds:
            self.attempted += units
            if expected is not None:
                want = expected[position] if position < len(expected) else None
            else:
                want = self.seen.setdefault((seed, position), digest)
            if digest != want:
                self.failed += units
                log(f"{self.workload} seed {seed} round {position}: digest {digest}, "
                    f"expected {want}")

    def checks(self, line):
        self.attempted += line["check_attempted"]
        self.failed += line["check_failed"]
        if line["check_failed"]:
            log(f"{self.workload}: {line['check_failed']} units failed the output checks")

    def canary(self, binary, seed, references):
        """Re-checks the first rounds of a shipped seed when `seed` has no
        references, so every run compares outputs with committed ones."""
        if self.has_reference(seed):
            return
        shipped = SHIPPED_SEEDS[0]
        cycle = references[self.workload]["cycle"]
        line = drive(binary, self.workload, shipped, "rounds",
                     ["--rounds", str(min(cycle, CANARY_ROUNDS))])
        self.rounds(shipped, line["rounds"])
        self.checks(line)


def measure(binary, workload, seed, seconds, references):
    def setup_s(sample):
        return drive(binary, workload, seed, "setup", cpu=CPUS[sample % len(CPUS)])["setup_s"]

    setups = [setup_s(k) for k in range(SETUP_SAMPLES_AROUND)]
    line = drive(binary, workload, seed, "timed", ["--seconds", str(seconds)])
    setups.append(line["setup_s"])
    setups += [setup_s(k) for k in range(SETUP_SAMPLES_AROUND, 2 * SETUP_SAMPLES_AROUND)]
    checker = Checker(workload, references)
    checker.rounds(seed, line["rounds"])
    checker.checks(line)
    checker.canary(binary, seed, references)
    metrics = {
        "runs_per_s": {"value": runs_per_s(line["rounds"]), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": line["peak_rss_mb"], "unit": "MB"},
    }
    return checker, metrics


def measure_traced(binary, first, seed, seconds, references):
    """Per-layer metrics of every workload, `first` first."""
    metrics = {}
    attempted = failed = 0
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    for workload in [first] + [w for w in WORKLOADS if w != first]:
        line = drive(binary, workload, seed, "traced",
                     ["--seconds", str(min(seconds, TRACED_SECONDS_MAX)),
                      "--trace-out", os.path.join(traces, f"{workload}_{seed}.csv")])
        checker = Checker(workload, references)
        for key in ("untraced_rounds", "counted_rounds", "traced_rounds"):
            checker.rounds(seed, line[key])
        checker.checks(line)
        checker.canary(binary, seed, references)
        attempted += checker.attempted
        failed += checker.failed
        for name, metric in line["layers"].items():
            metrics[f"{workload}.{name}"] = metric
        untraced = runs_per_s(line["untraced_rounds"])
        metrics[f"{workload}.trace.untraced_runs_per_s"] = {"value": untraced, "unit": "1/s"}
        metrics[f"{workload}.trace.overhead_ratio"] = {
            "value": runs_per_s(line["traced_rounds"]) / untraced, "unit": "ratio"}
    return attempted, failed, metrics


def record_references(binary):
    workloads = {}
    for workload in WORKLOADS:
        probe = drive(binary, workload, SHIPPED_SEEDS[0], "rounds", ["--rounds", "1"])
        cycle = max(1, probe["cycle"])
        seeds = {}
        for seed in SHIPPED_SEEDS:
            line = drive(binary, workload, seed, "rounds", ["--rounds", str(cycle)])
            if line["check_failed"]:
                raise BenchError(f"{workload} seed {seed} fails its output checks")
            seeds[str(seed)] = [r[2] for r in line["rounds"]]
            log(f"{workload} seed {seed}: {cycle} rounds recorded")
        workloads[workload] = {"cycle": cycle, "seeds": seeds}
    os.makedirs(os.path.dirname(REFERENCES), exist_ok=True)
    with open(REFERENCES, "w") as f:
        json.dump({"format": "perfbench-digests-v1", "workloads": workloads}, f, indent=1)
        f.write("\n")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(binary, workload, runs, seed, seconds, references):
    """Repeats one seed, so the spread is the host's and not the inputs'."""
    samples = {}
    failed = attempted = 0
    for i in range(runs):
        checker, metrics = measure(binary, workload, seed, seconds, references)
        attempted += checker.attempted
        failed += checker.failed
        for name, metric in metrics.items():
            samples.setdefault(name, []).append(metric["value"])
        log(f"{workload} seed {seed} run {i + 1}/{runs}: " +
            ", ".join(f"{n}={m['value']:.6g}" for n, m in metrics.items()))
    report = {}
    print(f"{workload}: {runs} runs of seed {seed}, {seconds} s each")
    print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'min':>14}{'max':>14}{'iqr/med':>10}")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        report[name] = {"median": med, "q1": q1, "q3": q3, "min": min(values),
                        "max": max(values), "iqr_share": spread, "values": values}
        print(f"{name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{min(values):>14.6g}"
              f"{max(values):>14.6g}{spread:>10.4f}")
    print(json.dumps({"workload": workload, "seed": seed, "runs": runs, "attempted": attempted,
                      "failed": failed, "metrics": report}))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
        if args.record_references:
            record_references(binary)
            return 0
        references = load_references()
        if set(references) != set(WORKLOADS):
            raise BenchError(f"{REFERENCES} lacks reference digests")
        if args.steady:
            steadiness(binary, args.workload, args.steady, args.seed, args.seconds, references)
            return 0
        if args.trace:
            attempted, failed, metrics = measure_traced(binary, args.workload, args.seed,
                                                        args.seconds, references)
        else:
            checker, metrics = measure(binary, args.workload, args.seed, args.seconds,
                                       references)
            attempted, failed = checker.attempted, checker.failed
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
