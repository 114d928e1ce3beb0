#!/usr/bin/env python3
"""Profiles a command with the SIGPROF sampler and prints self time per function.

    tools/profile/sigprof_report.py [--top N] [--min-samples N] -- COMMAND [ARG...]

Compiles sigprof.c (next to this script) with `cc` into a temporary
directory, runs COMMAND with the sampler in LD_PRELOAD (its stdout goes to
stderr, so stdout holds only the report), then reads and removes the
sigprof.<pid>.txt it left in the working directory.

The sampler asks for one sample per millisecond of process CPU time (the
kernel's tick can coarsen that: 4 ms at HZ=250), so a row's share is its
share of self time. Addresses are symbolized with `addr2line`. A
library without a symbol table (libc, libstdc++ as distributions ship them)
only names its exported functions: an address outside every exported
symbol's extent goes to a row "[unexported] <library>", because addr2line
would credit it to the nearest exported symbol before it (memcmp's vector
variants, for one, are local to libc). Exits 1 when the profile holds fewer
than --min-samples samples.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ET_EXEC = 2


def build_sampler(directory):
    library = os.path.join(directory, "sigprof.so")
    subprocess.run(["cc", "-std=c11", "-O2", "-shared", "-fPIC",
                    os.path.join(HERE, "sigprof.c"), "-o", library], check=True)
    return library


def run_profiled(command, library):
    env = dict(os.environ)
    env["LD_PRELOAD"] = " ".join(filter(None, [library, env.get("LD_PRELOAD")]))
    child = subprocess.Popen(command, env=env, stdout=sys.stderr)
    status = child.wait()
    if status != 0:
        print(f"sigprof_report: command exited with status {status}", file=sys.stderr)
    path = f"sigprof.{child.pid}.txt"
    if not os.path.exists(path):
        sys.exit(f"sigprof_report: {path} not written (did the command exit normally?)")
    return path


def read_profile(path):
    """Returns (mappings sorted by start, sample pcs, samples dropped)."""
    mappings, pcs, dropped = [], [], 0
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif kind == "map":
                fields = rest.split(maxsplit=5)
                start, end = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5] if len(fields) == 6 else "[anonymous]"
                mappings.append((start, end, int(fields[2], 16), name))
            elif kind == "dropped":
                dropped = int(rest)
    mappings.sort()
    return mappings, pcs, dropped


def elf_type(path):
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return None
    if len(header) < 18 or header[:4] != b"\x7fELF":
        return None
    return struct.unpack_from("<H", header, 16)[0]


def exported_ranges(path):
    """Sorted (start, end, name) of the defined functions in `path`'s dynamic
    symbol table, or None when `path` has a full symbol table."""
    full = subprocess.run(["nm", "--defined-only", path], capture_output=True, text=True)
    if full.returncode == 0 and full.stdout.strip():
        return None
    dynamic = subprocess.run(["nm", "-D", "-C", "-S", "--defined-only", path],
                             capture_output=True, text=True)
    ranges = []
    for line in dynamic.stdout.splitlines():
        fields = line.split(maxsplit=3)
        if len(fields) == 4 and fields[2] in "TtWwi":
            start, size = int(fields[0], 16), int(fields[1], 16)
            ranges.append((start, start + size, fields[3]))
    ranges.sort()
    return ranges


def addr2line(path, addresses):
    """Function name per address (None where addr2line knows none)."""
    result = subprocess.run(["addr2line", "-f", "-C", "-e", path],
                            input="".join(f"{a:#x}\n" for a in addresses),
                            capture_output=True, text=True)
    lines = result.stdout.splitlines()
    names = lines[0::2] if len(lines) == 2 * len(addresses) else []
    return [None if i >= len(names) or names[i] == "??" else names[i]
            for i in range(len(addresses))]


def symbolize(mappings, pcs):
    """Counter of (function, module) over the samples."""
    starts = [m[0] for m in mappings]
    base = {}
    for start, _, offset, name in mappings:
        if offset == 0:
            base.setdefault(name, start)
    by_module = collections.defaultdict(collections.Counter)
    rows = collections.Counter()
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= mappings[i][1]:
            rows[("[unmapped]", "")] += 1
            continue
        name = mappings[i][3]
        if not name.startswith("/"):
            rows[(name, "")] += 1
            continue
        address = pc if elf_type(name) == ET_EXEC else pc - base.get(name, mappings[i][0])
        by_module[name][address] += 1
    for path, counts in by_module.items():
        module = os.path.basename(path)
        addresses = sorted(counts)
        names = addr2line(path, addresses)
        ranges = exported_ranges(path)
        range_starts = [r[0] for r in ranges] if ranges is not None else []
        for address, function in zip(addresses, names):
            if ranges is not None:
                j = bisect.bisect_right(range_starts, address) - 1
                inside = j >= 0 and address < ranges[j][1]
                function = ranges[j][2] if inside else "[unexported]"
            rows[(function or "[unknown]", module)] += counts[address]
    return rows


def main():
    parser = argparse.ArgumentParser(
        description="SIGPROF self-time profile of a command, per function.")
    parser.add_argument("--top", type=int, default=25, help="rows to print (default 25)")
    parser.add_argument("--min-samples", type=int, default=0,
                        help="exit 1 when the profile holds fewer samples")
    parser.add_argument("command", nargs="+", help="the command to profile, after --")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as directory:
        path = run_profiled(args.command, build_sampler(directory))
    mappings, pcs, dropped = read_profile(path)
    os.remove(path)

    rows = symbolize(mappings, pcs)
    total = len(pcs)
    print(f"{total} samples"
          + (f", buffer full: {dropped} later samples dropped" if dropped else ""))
    print(f"{'self %':>7}  {'samples':>7}  function [module]")
    for (function, module), n in rows.most_common(args.top):
        print(f"{100.0 * n / total:6.1f}%  {n:7d}  {function}" + (f" [{module}]" if module else ""))
    if total < args.min_samples:
        print(f"sigprof_report: {total} samples, fewer than --min-samples {args.min_samples}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
