#!/usr/bin/env python3
"""quicer project lint: determinism, codec-coverage, and telemetry rules.

The simulator's core contract is that every exported byte is a pure function
of the scenario: identical across thread counts, shard layouts and
repetition windows. This tool statically rejects the code patterns that have
historically broken that contract, plus two registry-coverage rules that keep
the scenario codec and the telemetry counter table in sync with the structs
they serialize.

Rules
-----
  ND001  std::rand/srand/rand(): banned everywhere (runs draw from the
         per-repetition forked sim::Rng only).
  ND002  Wall clocks (std::chrono::system_clock, std::chrono::steady_clock,
         std::time/time(nullptr)): banned in simulation and export code.
         Timing *measurement* (phase timers, wall-time tables) is
         legitimate and carries a per-site or per-file suppression naming
         the reason.
  ND003  std::getenv: banned outside the bench_suite driver (environment
         must not leak into run behaviour; the driver owns the CLI surface).
  ND004  Iterating an unordered_map/unordered_set in a file that writes
         CSV/JSON/partial/scenario output: iteration order is
         implementation-defined and has produced nondeterministic exports.
  ND005  Pointer-valued comparisons in sort predicates: pointer order is
         allocation order, which varies run to run.
  CC001  Codec coverage: every serializable field of ExperimentConfig must
         appear in scenario.cc's ConfigFields() descriptor table, every
         netem model field in netem/codec.cc, and every SweepAxes axis in
         the scenario JSON writer. A field that is deliberately not part of
         the scenario carries a suppression on its declaration line.
  TL001  Telemetry registry: the descriptor table in obs/telemetry.cc must
         match the Counter enum 1:1, names must be dotted lower_snake under
         a known layer prefix, and any counter-name string literal elsewhere
         in the tree must name a registered counter.

Suppressions
------------
  // lint:allow(RULE): reason          same line or the line above
  // lint:allow-file(RULE): reason     anywhere in the file, file-wide
A reason is mandatory; an empty reason is itself a finding.

Usage
-----
  tools/lint/quicer_lint.py [--root DIR]      lint DIR (default: repo root)
  tools/lint/quicer_lint.py --self-test       run the tests/lint fixtures
  tools/lint/quicer_lint.py --list-rules
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import re
import sys
from pathlib import Path

RULES = {
    "ND001": "std::rand/srand banned; use the per-repetition sim::Rng",
    "ND002": "wall clock (system_clock/steady_clock/time()) in sim/export code",
    "ND003": "std::getenv outside the bench_suite driver",
    "ND004": "unordered container iteration in an export-writing file",
    "ND005": "pointer-value comparison in a sort predicate",
    "CC001": "serializable field missing from its codec/descriptor table",
    "TL001": "telemetry counter table out of sync or bad counter name",
}

ALLOW_RE = re.compile(r"lint:allow\(([A-Z0-9, ]+)\)\s*:\s*(.*)")
ALLOW_FILE_RE = re.compile(r"lint:allow-file\(([A-Z0-9, ]+)\)\s*:\s*(.*)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def strip_comments(text, keep_strings):
    """Blank out comments (and optionally string/char literals) while
    preserving line structure, so regexes see code only and line numbers
    survive."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(c if keep_strings else " ")
                if nxt:
                    out.append(nxt if keep_strings else " ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail back to code
                state = "code"
                out.append(c)
            else:
                out.append(c if keep_strings else " ")
        i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path, root):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.text.split("\n")
        # Code with neither comments nor literal contents: determinism rules.
        self.code = strip_comments(self.text, keep_strings=False)
        self.code_lines = self.code.split("\n")
        # Code with literals kept: the counter-name literal scan.
        self.code_str = strip_comments(self.text, keep_strings=True)
        self.allow = {}  # line number -> set of rule ids
        self.allow_file = set()
        self.bad_suppressions = []  # (line, message)
        for idx, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if m and "allow-file" not in line:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                if not m.group(2).strip():
                    self.bad_suppressions.append(
                        (idx, "suppression without a reason"))
                for r in rules:
                    if r not in RULES:
                        self.bad_suppressions.append(
                            (idx, f"suppression names unknown rule {r}"))
                # Covers its own line and the next (comment-above style).
                self.allow.setdefault(idx, set()).update(rules)
                self.allow.setdefault(idx + 1, set()).update(rules)
            m = ALLOW_FILE_RE.search(line)
            if m:
                if not m.group(2).strip():
                    self.bad_suppressions.append(
                        (idx, "file suppression without a reason"))
                self.allow_file.update(
                    r.strip() for r in m.group(1).split(",") if r.strip())

    def suppressed(self, rule, line):
        return rule in self.allow_file or rule in self.allow.get(line, set())


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


# ---------------------------------------------------------------------------
# ND rules: per-file pattern scans.
# ---------------------------------------------------------------------------

ND001_RE = re.compile(r"\bstd::rand\b|\bsrand\s*\(|(?<![\w:.])rand\s*\(\s*\)")
ND002_RE = re.compile(
    r"std::chrono::system_clock|std::chrono::steady_clock|steady_clock::"
    r"|system_clock::|\bstd::time\s*\(|(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0)\s*\)")
ND003_RE = re.compile(r"\bgetenv\s*\(")

EXPORT_MARKER_RE = re.compile(
    r"\bCsv\w*|\bJson\w*|std::ofstream|\bPartial\w*|\bScenario\w*|WriteFile")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{]*?>\s+(\w+)")
SORT_CALL_RE = re.compile(
    r"std::(?:stable_)?sort\s*\(|std::nth_element\s*\(|std::partial_sort\s*\(")
LAMBDA_RE = re.compile(r"\[[^\]\n]*\]\s*\(([^)]*)\)\s*(?:->\s*[\w:]+\s*)?\{")


def scan_nd_rules(sf, findings):
    for rule, rx in (("ND001", ND001_RE), ("ND002", ND002_RE),
                     ("ND003", ND003_RE)):
        if rule == "ND003" and sf.rel == "bench/bench_suite.cc":
            continue  # the driver owns the CLI/environment surface
        for m in rx.finditer(sf.code):
            ln = line_of(sf.code, m.start())
            if sf.suppressed(rule, ln):
                continue
            findings.append(Finding(
                sf.rel, ln, rule,
                f"'{m.group(0).strip()}' — {RULES[rule]}"))

    # ND004: unordered iteration in export-writing files.
    if EXPORT_MARKER_RE.search(sf.code):
        unordered_names = set(UNORDERED_DECL_RE.findall(sf.code))
        if unordered_names:
            names = "|".join(re.escape(n) for n in sorted(unordered_names))
            iter_re = re.compile(
                rf"for\s*\([^;)]*:\s*(?:\w+\.)*({names})\s*\)"
                rf"|\b({names})\s*\.\s*begin\s*\(")
            for m in iter_re.finditer(sf.code):
                ln = line_of(sf.code, m.start())
                if sf.suppressed("ND004", ln):
                    continue
                name = m.group(1) or m.group(2)
                findings.append(Finding(
                    sf.rel, ln, "ND004",
                    f"iteration over unordered container '{name}' in a file "
                    "that writes exports — order is implementation-defined"))

    # ND005: pointer comparisons in sort predicates.
    for call in SORT_CALL_RE.finditer(sf.code):
        window = sf.code[call.start():call.start() + 600]
        lam = LAMBDA_RE.search(window)
        if not lam:
            continue
        params = lam.group(1)
        ptr_params = re.findall(r"\*\s*(\w+)\s*(?:,|$)", params)
        if len(ptr_params) < 2:
            continue
        a, b = ptr_params[0], ptr_params[1]
        body = window[lam.end():]
        depth = 1
        end = 0
        for i, c in enumerate(body):
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        body = body[:end] if end else body
        cmp_re = re.compile(
            rf"(?<![\w*>.]){re.escape(a)}\s*[<>]=?\s*{re.escape(b)}\b"
            rf"|(?<![\w*>.]){re.escape(b)}\s*[<>]=?\s*{re.escape(a)}\b")
        m = cmp_re.search(body)
        if m:
            ln = line_of(sf.code, call.start() + lam.end() + m.start())
            if sf.suppressed("ND005", ln):
                continue
            findings.append(Finding(
                sf.rel, ln, "ND005",
                f"sort predicate compares pointers '{a}'/'{b}' by value — "
                "pointer order is allocation order, not deterministic"))


# ---------------------------------------------------------------------------
# CC001: codec coverage.
# ---------------------------------------------------------------------------

FIELD_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^;=]*?>)?[\s&]+"
    r"([A-Za-z_]\w*)\s*(?:\[\d+\])?\s*(?:=[^;]*|\{[^;]*\})?;\s*$")
SKIP_DECL_RE = re.compile(
    r"^\s*(?://|friend\b|using\b|enum\b|struct\b|class\b|return\b|static\b)")


def parse_struct_fields(sf, struct_name):
    """Data members of `struct <name> { ... }`, as (name, line) pairs."""
    m = re.search(rf"struct\s+{struct_name}\s*\{{", sf.code)
    if not m:
        return []
    fields = []
    depth = 1
    pos = m.end()
    start_line = line_of(sf.code, m.end())
    lines = sf.code[pos:].split("\n")
    for off, line in enumerate(lines):
        open_b, close_b = line.count("{"), line.count("}")
        if depth == 1 and not SKIP_DECL_RE.match(line) and "(" not in line.split("=")[0].split("{")[0]:
            dm = FIELD_DECL_RE.match(line)
            if dm:
                fields.append((dm.group(1), start_line + off))
        depth += open_b - close_b
        if depth <= 0:
            break
    return fields


def check_codec_coverage(files, findings):
    by_rel = {sf.rel: sf for sf in files}
    exp = by_rel.get("src/core/experiment.h")
    scen = by_rel.get("src/core/scenario.cc")
    if exp and scen:
        for name, ln in parse_struct_fields(exp, "ExperimentConfig"):
            if exp.suppressed("CC001", ln):
                continue
            if not re.search(rf"\bc\.{re.escape(name)}\b", scen.code):
                findings.append(Finding(
                    exp.rel, ln, "CC001",
                    f"ExperimentConfig::{name} is not read by any "
                    "ConfigFields() descriptor in src/core/scenario.cc — "
                    "serialize it or suppress with the reason it is "
                    "deliberately outside the scenario"))

    model = by_rel.get("src/netem/model.h")
    codec = by_rel.get("src/netem/codec.cc")
    if model and codec:
        for struct in ("LossModel", "QueueModel", "PathOverride", "LinkModel"):
            for name, ln in parse_struct_fields(model, struct):
                if model.suppressed("CC001", ln):
                    continue
                if not re.search(rf"\b{re.escape(name)}\b", codec.code_str):
                    findings.append(Finding(
                        model.rel, ln, "CC001",
                        f"netem::{struct}::{name} never appears in "
                        "src/netem/codec.cc — the scenario codec cannot "
                        "round-trip it"))

    sweep = by_rel.get("src/core/sweep.h")
    if sweep and scen:
        for name, ln in parse_struct_fields(sweep, "SweepAxes"):
            if sweep.suppressed("CC001", ln):
                continue
            if not re.search(rf"\baxes\.{re.escape(name)}\b", scen.code):
                findings.append(Finding(
                    sweep.rel, ln, "CC001",
                    f"SweepAxes::{name} is not written by the scenario JSON "
                    "writer in src/core/scenario.cc"))


# ---------------------------------------------------------------------------
# TL001: telemetry counter registry.
# ---------------------------------------------------------------------------

COUNTER_NAME_RE = re.compile(
    r"^(sim|quic\.pool|quic\.arena|netem|recovery|scan|sweep)\.[a-z0-9_]+(\.[a-z0-9_]+)*$")
COUNTER_LITERAL_RE = re.compile(
    r'"((?:sim|quic\.pool|quic\.arena|netem|recovery|scan|sweep)\.[a-z0-9_.]+)"')


def parse_counter_enum(sf):
    m = re.search(r"enum\s+Counter\b[^{]*\{", sf.code)
    if not m:
        return []
    body = sf.code[m.end():]
    body = body[:body.find("}")]
    names = re.findall(r"\b(k[A-Z]\w*)\b", body)
    return [n for n in names if n != "kCounterCount"]


def parse_descriptor_names(sf):
    m = re.search(r"kDescriptors\s*=\s*\{\{", sf.code_str)
    if not m:
        return []
    body = sf.code_str[m.end():]
    body = body[:body.find("}};")]
    out = []
    for dm in re.finditer(r'\{\s*"([^"]+)"', body):
        out.append((dm.group(1), line_of(sf.code_str, m.end() + dm.start())))
    return out


def check_telemetry_registry(files, findings):
    by_rel = {sf.rel: sf for sf in files}
    hdr = by_rel.get("src/obs/telemetry.h")
    imp = by_rel.get("src/obs/telemetry.cc")
    registered = set()
    if hdr and imp:
        enum_names = parse_counter_enum(hdr)
        desc = parse_descriptor_names(imp)
        if len(enum_names) != len(desc):
            findings.append(Finding(
                imp.rel, desc[0][1] if desc else 1, "TL001",
                f"descriptor table has {len(desc)} entries but the Counter "
                f"enum declares {len(enum_names)} — every counter needs a "
                "name, in enum order"))
        seen = set()
        for name, ln in desc:
            registered.add(name)
            if name in seen:
                findings.append(Finding(
                    imp.rel, ln, "TL001", f'duplicate counter name "{name}"'))
            seen.add(name)
            if not COUNTER_NAME_RE.match(name) and not imp.suppressed("TL001", ln):
                findings.append(Finding(
                    imp.rel, ln, "TL001",
                    f'counter name "{name}" violates the naming policy: '
                    "dotted lower_snake under sim/quic.pool/quic.arena/netem/"
                    "recovery/scan/sweep"))
    if not registered:
        return
    # Counter-name literals anywhere else must name a registered counter.
    for sf in files:
        if sf.rel == "src/obs/telemetry.cc":
            continue
        for m in COUNTER_LITERAL_RE.finditer(sf.code_str):
            name = m.group(1)
            if name in registered:
                continue
            ln = line_of(sf.code_str, m.start())
            if sf.suppressed("TL001", ln):
                continue
            findings.append(Finding(
                sf.rel, ln, "TL001",
                f'"{name}" looks like a telemetry counter name but is not in '
                "the registry (src/obs/telemetry.cc)"))


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

LINT_DIRS = ("src", "bench")
LINT_SUFFIXES = (".h", ".cc")


def collect_files(root):
    files = []
    for d in LINT_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in LINT_SUFFIXES and path.is_file():
                files.append(SourceFile(path, root))
    return files


def lint_root(root):
    files = collect_files(root)
    findings = []
    for sf in files:
        for ln, msg in sf.bad_suppressions:
            findings.append(Finding(sf.rel, ln, "LINT", msg))
        scan_nd_rules(sf, findings)
    check_codec_coverage(files, findings)
    check_telemetry_registry(files, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Self-test over tests/lint/fixtures.
# ---------------------------------------------------------------------------

def self_test(fixtures):
    """Each bad_<rule>* fixture tree must produce ≥1 finding of its rule and
    none of any other; clean/suppressed trees must produce none."""
    failures = []
    cases = sorted(p for p in fixtures.iterdir() if p.is_dir())
    if not cases:
        print(f"self-test: no fixture trees under {fixtures}", file=sys.stderr)
        return 2
    tested_rules = set()
    for case in cases:
        findings = lint_root(case)
        got_rules = {f.rule for f in findings}
        name = case.name
        if name.startswith("bad_"):
            want = name.split("_")[1].upper()
            tested_rules.add(want)
            if want not in got_rules:
                failures.append(f"{name}: expected a {want} finding, got "
                                f"{sorted(got_rules) or 'none'}")
            if got_rules - {want}:
                failures.append(f"{name}: unexpected extra findings "
                                f"{sorted(got_rules - {want})}: "
                                + "; ".join(str(f) for f in findings
                                            if f.rule != want))
        else:  # clean_* / suppressed_*: must be silent
            if findings:
                failures.append(f"{name}: expected no findings, got:\n  "
                                + "\n  ".join(str(f) for f in findings))
    missing = set(RULES) - tested_rules
    if missing:
        failures.append(f"rules with no bad_* fixture: {sorted(missing)}")
    if failures:
        print("self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(cases)} fixture trees, "
          f"{len(tested_rules)} rules covered")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2],
                    help="tree to lint (default: repo root)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite under tests/lint/fixtures")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}  {desc}")
        return 0
    if args.self_test:
        fixtures = Path(__file__).resolve().parents[2] / "tests/lint/fixtures"
        return self_test(fixtures)

    findings = lint_root(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} finding(s). Suppress a legitimate site "
              "with '// lint:allow(RULE): reason' — see "
              "docs/static-analysis.md.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
