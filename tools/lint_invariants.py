#!/usr/bin/env python3
"""Repo-invariant linter: enforces what generic tools cannot.

The simulator's guarantees live above the type system: byte-identical
parallel/distributed/cached sweeps, crash-safe tmp+rename queue
writes, and a versioned spec codec whose key must change whenever
semantics do.  Each invariant is a registered check (see CHECKS);
``--list-checks`` prints the registry, docs/ANALYSIS.md documents
every check (enforced by tools/check_docs.sh).

Checks
------
nondeterminism
    No nondeterminism sources in src/: std::rand/srand,
    std::random_device, wall/monotonic clock reads
    (system_clock/steady_clock/high_resolution_clock, time(),
    gettimeofday, clock_gettime), localtime/gmtime.  Simulation must
    be a pure function of the spec; host-side seams (host-seconds
    measurement, the dispatcher's stall clock, the queue's injectable
    wallClock fallback) carry explicit waivers.

raw-queue-write
    Inside the queue/cache layers (src/dist/, src/exp/cache.cc) every
    std::ofstream must target a tmp-staged path (atomic tmp+rename
    publication).  In-place rewrites whose only signal is the mtime
    (lease heartbeats, the staleness probe) carry waivers at the
    site.

unit-suffix
    Arithmetic-typed duration/power fields in src/ headers must name
    their unit: a field whose name says latency/timeout/power/...
    must end in a recognized unit suffix (_ns/_ms/_s/_w/... or the
    camelCase Ns/Ms/Seconds/Mw/... equivalents).  std::chrono and
    unit-typedef'd fields are exempt — their type carries the unit.

governor-soc-mutation
    Governor *policy* files (src/core/governor* minus the
    governor.hh interface and governor_driver.{cc,hh} mechanics)
    never mutate the SoC directly: no ``soc.setX(...)`` /
    ``soc.cpu().setX(...)`` calls, no hand-rolled flow
    ``execute()``.  Every grant goes through the GovernorDriver
    (requestOpPoint/setCoreFreqCap/refreshBudget) so transition-
    latency constraints and the notifier chain stay in the loop.
    Reads are unrestricted — policies observe, drivers apply.

trace-side-effect
    Arguments to the tracing macros (TRACE_SPAN / TRACE_INSTANT /
    TRACE_COUNTER, src/obs/trace.hh) must be pure expressions: no
    ``++``/``--``, no assignment, no compound assignment.  The macros
    compile to nothing under SYSSCALE_NO_TRACING and short-circuit
    when the sink is disabled, so a side effect in an argument runs
    in some builds and not others — the exact heisenbug the
    deterministic-trace contract exists to rule out.

spec-version-guard
    Diff mode only (--diff-base/--diff-file): a diff that touches
    src/exp/spec_codec.* or any spec-serialized header must also
    change kSpecFormatVersion, or carry an explicit waiver line
    ``spec-version-waiver: <reason>`` among its additions.  Catches
    the silent cache-poisoning change: semantics moved, key did not.

snap-version-guard
    Diff mode only: the same contract for the snapshot codec — a
    diff touching src/sim/snapshot.* must also change
    kSnapFormatVersion or carry ``snap-version-waiver: <reason>``.
    A format change without a bump lets a stale checkpoint restore
    into a build that reads its bytes differently; the golden
    fixture (snap_inspect check) catches behavioural drift, this
    guard catches the codec itself moving.

Waiver syntax
-------------
A finding is waived by a comment on the flagged line or in the
//-comment block directly above it::

    // lint:allow <check-name> -- <reason>

The reason is mandatory; an empty reason is itself a finding.  The
spec-version-guard waiver is a line added in the diff (any file)::

    spec-version-waiver: <reason>

Exit status: 0 = clean, 1 = findings, 2 = usage/environment error.
``--self-test`` runs the fixture corpus under tools/lint_fixtures/
(known-bad snippets must trip their check, clean ones must not) and
is wired as the ctest target ``lint_selftest``.
"""

import argparse
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "lint_fixtures")

# Headers whose structures ride the spec codec: a change here without
# a kSpecFormatVersion bump silently poisons every cache/queue key.
SPEC_SERIALIZED = (
    "src/exp/spec_codec.cc",
    "src/exp/spec_codec.hh",
    "src/exp/experiment.hh",
    "src/soc/config.hh",
    "src/dram/spec.hh",
    "src/workloads/profile.hh",
    "src/workloads/scenario.hh",
    "src/compute/cstates.hh",
)

WAIVER_RE = re.compile(
    r"//\s*lint:allow\s+(?P<check>[a-z-]+)\s*(?:--\s*(?P<reason>.*\S))?")


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.check,
                                   self.message)


CHECKS = {}


def check(name, doc):
    def register(fn):
        fn.check_name = name
        fn.check_doc = doc
        CHECKS[name] = fn
        return fn
    return register


def strip_comments(lines):
    """Return lines with comments and string literals blanked (same
    length/positions), so patterns never match prose or log text.
    Line-oriented: handles //, /* */ across lines, and "..." within a
    line — enough for this codebase's style."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i, n = 0, len(line)
        in_str = False
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif in_str:
                if c == "\\" and i + 1 < n:
                    buf.append("  ")
                    i += 2
                elif c == '"':
                    in_str = False
                    buf.append('"')
                    i += 1
                else:
                    buf.append(" ")
                    i += 1
            elif line.startswith("//", i):
                buf.append(" " * (n - i))
                break
            elif line.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
            elif c == '"':
                in_str = True
                buf.append('"')
                i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


def waived(check_name, lines, idx, findings, path):
    """True when line idx (0-based) or the comment block directly
    above carries a ``lint:allow <check>`` waiver with a non-empty
    reason.  The upward scan walks contiguous //-comment lines so a
    multi-line waiver comment works."""
    probes = [idx]
    up = idx - 1
    while up >= 0 and lines[up].lstrip().startswith("//"):
        probes.append(up)
        up -= 1
    for probe in probes:
        m = WAIVER_RE.search(lines[probe])
        if m and m.group("check") == check_name:
            if not m.group("reason"):
                findings.append(Finding(
                    check_name, path, probe + 1,
                    "waiver without a reason (write "
                    "'// lint:allow %s -- <why>')" % check_name))
            return True
    return False


NONDET_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*rand\b|\bsrand\s*\("),
     "libc rand — use the seeded sim RNG (src/sim/random.hh)"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic — seed from the spec"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "clock read — simulation must be a pure function of the spec"),
    (re.compile(r"\bfile_time_type\s*::\s*clock\b"),
     "filesystem clock read outside the injectable wallClock seam"),
    (re.compile(r"\b(gettimeofday|clock_gettime)\s*\("),
     "wall-clock syscall"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "time() read"),
    (re.compile(r"\b(localtime|gmtime)\s*\("),
     "wall-clock conversion"),
)


@check("nondeterminism",
       "no RNG/clock nondeterminism in src/ outside waived host-side "
       "seams")
def check_nondeterminism(path, lines, findings):
    if not path.startswith("src/"):
        return
    code = strip_comments(lines)
    for i, line in enumerate(code):
        for pat, why in NONDET_PATTERNS:
            if pat.search(line) and not waived("nondeterminism", lines,
                                               i, findings, path):
                findings.append(Finding(
                    "nondeterminism", path, i + 1, why))


OFSTREAM_RE = re.compile(r"\bstd\s*::\s*ofstream\s+\w+\s*[({]"
                         r"(?P<arg>[^,)}]*)")


@check("raw-queue-write",
       "queue/cache layers write through tmp+rename only (no raw "
       "std::ofstream to a final path)")
def check_raw_queue_write(path, lines, findings):
    if not (path.startswith("src/dist/") or path == "src/exp/cache.cc"):
        return
    code = strip_comments(lines)
    for i, line in enumerate(code):
        m = OFSTREAM_RE.search(line)
        if not m:
            continue
        # A tmp-staged write names its staging path: the constructor
        # argument references a 'tmp' variable/path component.
        if re.search(r"tmp", m.group("arg"), re.IGNORECASE):
            continue
        if waived("raw-queue-write", lines, i, findings, path):
            continue
        findings.append(Finding(
            "raw-queue-write", path, i + 1,
            "std::ofstream to a non-tmp path — publish via the "
            "tmp+rename helper so readers never see a torn file"))


ARITH_DECL_RE = re.compile(
    r"^\s*(?:const\s+|constexpr\s+|static\s+|mutable\s+)*"
    r"(?:double|float|int|long(?:\s+long)?|unsigned(?:\s+\w+)?"
    r"|std::size_t|size_t|u?int\d+_t|Hertz)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;")
UNIT_KEYWORD_RE = re.compile(
    r"(time|duration|timeout|interval|latency|period|delay|elapsed"
    r"|age|power|energy)", re.IGNORECASE)
def has_unit_suffix(name):
    # camelCase (latencyNs, elapsedSeconds) or snake (_ms, lease_age_s),
    # with an optional member underscore (lastMemLatencyNs_).
    base = name.rstrip("_")
    return bool(re.search(
        r"(Ns|Us|Ms|Sec|Seconds|Min|Hz|Khz|Mhz|Ghz|W|Mw|Kw|Watts"
        r"|J|Mj|Pj|Joules|V|Mv)$", base) or re.search(
        r"_(ns|us|ms|s|sec|secs|seconds|min|mins|hz|khz|mhz|ghz"
        r"|w|mw|kw|watts|j|mj|pj|joules|v|mv)$", base))


@check("unit-suffix",
       "arithmetic duration/power fields in src/ headers carry a unit "
       "suffix (_ms/_ns/_s/_w or Ns/Ms/Seconds/Mw ...)")
def check_unit_suffix(path, lines, findings):
    if not (path.startswith("src/") and path.endswith(".hh")):
        return
    code = strip_comments(lines)
    for i, line in enumerate(code):
        m = ARITH_DECL_RE.match(line)
        if not m:
            continue
        name = m.group("name")
        if not UNIT_KEYWORD_RE.search(name):
            continue
        # Counts of things are dimensionless even when the thing
        # counted is a duration (kMemLatencyMaxPasses).
        if re.search(r"(count|passes|iters|iterations|retries"
                     r"|attempts|cells|rows)_?$", name, re.IGNORECASE):
            continue
        if has_unit_suffix(name):
            continue
        if waived("unit-suffix", lines, i, findings, path):
            continue
        findings.append(Finding(
            "unit-suffix", path, i + 1,
            "field '%s' reads like a duration/power quantity but "
            "names no unit — suffix it (_ms/_ns/_s/_w or "
            "Ns/Ms/Seconds/Mw) or use a std::chrono type" % name))


# The CPUFreq-style layering (docs/ARCHITECTURE.md): policy files
# decide, the GovernorDriver applies.  Mechanics files are exempt —
# they ARE the layer that touches the SoC.
GOVERNOR_MECHANICS_FILES = (
    "src/core/governor.hh",
    "src/core/governor_driver.cc", "src/core/governor_driver.hh",
)
# The receiver directly preceding a flagged call: `soc.setX(` gives
# 'soc', `soc.cpu().setX(` gives 'cpu()'.  Driver receivers are the
# sanctioned path.
GOVERNOR_MUTATOR_RE = re.compile(
    r"(?P<recv>[A-Za-z_]\w*(?:\s*\(\s*\))?)\s*\.\s*"
    r"(?P<call>set[A-Z]\w*|execute|markInstalled|run)\s*\(")
GOVERNOR_DRIVER_RECEIVERS = re.compile(
    r"^(drv_?|driver\s*\(\s*\))$")


@check("governor-soc-mutation",
       "governor policy files never mutate the SoC directly — every "
       "grant goes through the GovernorDriver")
def check_governor_soc_mutation(path, lines, findings):
    if not (path.startswith("src/core/governor") and
            path.endswith((".cc", ".hh"))):
        return
    if path in GOVERNOR_MECHANICS_FILES:
        return
    code = strip_comments(lines)
    for i, line in enumerate(code):
        for m in GOVERNOR_MUTATOR_RE.finditer(line):
            recv = re.sub(r"\s+", "", m.group("recv"))
            if GOVERNOR_DRIVER_RECEIVERS.match(recv):
                continue
            if waived("governor-soc-mutation", lines, i, findings,
                      path):
                continue
            findings.append(Finding(
                "governor-soc-mutation", path, i + 1,
                "policy-layer call '%s.%s(...)' mutates the SoC "
                "directly — route it through the GovernorDriver "
                "(requestOpPoint/setCoreFreqCap/refreshBudget) so "
                "latency constraints and notifiers stay in the "
                "loop" % (m.group("recv"), m.group("call"))))


def _version_guard(diff_text, findings, check_name, guarded_files,
                   constant, waiver_key, message):
    """Shared engine of the two codec-version guards."""
    touched = set()
    bumped = False
    waiver = None
    current = None
    for line in diff_text.splitlines():
        m = re.match(r"\+\+\+ (?:b/)?(.+)", line)
        if m:
            current = m.group(1).strip()
            continue
        if line.startswith("+") and not line.startswith("+++"):
            body = line[1:]
            if constant in body and "=" in body:
                bumped = True
            wm = re.search(waiver_key + r":\s*(\S.*)", body)
            if wm:
                waiver = wm.group(1)
        if line.startswith(("+", "-")) and not \
                line.startswith(("+++", "---")):
            if current in guarded_files:
                touched.add(current)
        # Deleting the constant alone must not count as a bump.
    if touched and not bumped and not waiver:
        findings.append(Finding(
            check_name, ", ".join(sorted(touched)), 0, message))


@check("spec-version-guard",
       "a diff touching spec_codec.* or a spec-serialized header must "
       "bump kSpecFormatVersion or carry a spec-version-waiver line")
def check_spec_version_guard(diff_text, findings):
    _version_guard(
        diff_text, findings, "spec-version-guard", SPEC_SERIALIZED,
        "kSpecFormatVersion", "spec-version-waiver",
        "spec-serialized code changed without a kSpecFormatVersion "
        "bump — bump it (and re-bake codec goldens) or add a line "
        "'spec-version-waiver: <reason>' to the diff if the change "
        "is provably encoding-neutral")


# The snapshot codec itself: a format change without a version bump
# lets a stale checkpoint restore into a build that decodes its bytes
# differently.  Component saveState() bodies are deliberately NOT
# listed — the golden fixture test (snap_inspect check) pins those,
# field by named field.
SNAP_SERIALIZED = (
    "src/sim/snapshot.cc",
    "src/sim/snapshot.hh",
)


@check("snap-version-guard",
       "a diff touching sim/snapshot.* must bump kSnapFormatVersion "
       "or carry a snap-version-waiver line")
def check_snap_version_guard(diff_text, findings):
    _version_guard(
        diff_text, findings, "snap-version-guard", SNAP_SERIALIZED,
        "kSnapFormatVersion", "snap-version-waiver",
        "snapshot codec changed without a kSnapFormatVersion bump — "
        "bump it (and re-bake tests/data/videoconf.t1s.snap with "
        "snap_inspect bake-golden) or add a line "
        "'snap-version-waiver: <reason>' to the diff if the change "
        "is provably encoding-neutral")


# The macro expansion guards every argument behind TRACE_ACTIVE (and
# the whole call behind SYSSCALE_NO_TRACING), so argument evaluation
# is conditional on the build and the sink state.  Any mutation in an
# argument therefore changes simulation behavior when tracing is
# toggled — flag ++/--, compound assignment, and bare assignment.
TRACE_MACRO_RE = re.compile(
    r"\b(?:TRACE_SPAN|TRACE_INSTANT|TRACE_COUNTER)\s*\(")
TRACE_SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|[+\-*/%&|^]=|<<=|>>="
    r"|(?<![=!<>+\-*/%&|^\[])=(?!=)")


@check("trace-side-effect",
       "TRACE_SPAN/TRACE_INSTANT/TRACE_COUNTER arguments are pure — "
       "no ++/--/assignment inside a macro that may not evaluate "
       "them")
def check_trace_side_effect(path, lines, findings):
    if not path.endswith((".cc", ".hh")):
        return
    if path == "src/obs/trace.hh":  # the macro definitions themselves
        return
    code = strip_comments(lines)
    for i, line in enumerate(code):
        m = TRACE_MACRO_RE.search(line)
        if not m:
            continue
        # Collect the balanced-paren argument list, spanning lines.
        depth = 0
        arg_chars = []
        row, col = i, m.end() - 1
        done = False
        while row < len(code) and not done:
            text = code[row]
            while col < len(text):
                c = text[col]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        done = True
                        break
                if depth >= 1:
                    arg_chars.append(c)
                col += 1
            arg_chars.append(" ")
            row += 1
            col = 0
        args = "".join(arg_chars)
        if not TRACE_SIDE_EFFECT_RE.search(args):
            continue
        if waived("trace-side-effect", lines, i, findings, path):
            continue
        findings.append(Finding(
            "trace-side-effect", path, i + 1,
            "trace-macro argument contains ++/--/assignment — the "
            "macro skips argument evaluation when tracing is off, so "
            "the side effect makes traced and untraced runs diverge; "
            "hoist the mutation out of the macro call"))


SOURCE_CHECKS = ("nondeterminism", "raw-queue-write", "unit-suffix",
                 "governor-soc-mutation", "trace-side-effect")


def iter_source_files(root):
    for dirpath, dirnames, filenames in os.walk(os.path.join(root,
                                                             "src")):
        dirnames[:] = [d for d in dirnames if d != "build"]
        for name in sorted(filenames):
            if name.endswith((".cc", ".hh")):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root).replace(os.sep, "/")


def run_source_checks(root, findings):
    for rel in iter_source_files(root):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for name in SOURCE_CHECKS:
            CHECKS[name](rel, lines, findings)


def git_diff(base, root):
    cmd = ["git", "-C", root, "diff", "--unified=0", base, "--"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("git diff %s failed: %s" %
                           (base, proc.stderr.strip()))
    return proc.stdout


# ----------------------------------------------------------------------
# Self-test: every known-bad fixture must trip exactly its check, and
# the clean fixtures must not trip anything.  Fixture paths are mapped
# to virtual src/ paths so the applicability rules are exercised too.
# ----------------------------------------------------------------------
FIXTURES = (
    # (fixture file, virtual path, check, min findings)
    ("nondeterminism.cc", "src/sim/nondeterminism.cc",
     "nondeterminism", 3),
    ("raw_queue_write.cc", "src/dist/raw_queue_write.cc",
     "raw-queue-write", 1),
    ("unit_suffix.hh", "src/soc/unit_suffix.hh", "unit-suffix", 2),
    ("governor_soc_mutation.cc", "src/core/governor_zoo.cc",
     "governor-soc-mutation", 3),
    ("trace_side_effect.cc", "src/soc/trace_side_effect.cc",
     "trace-side-effect", 3),
    ("clean.cc", "src/dist/clean.cc", None, 0),
    ("clean.hh", "src/soc/clean.hh", None, 0),
    ("governor_clean.cc", "src/core/governor_zoo.cc", None, 0),
)
DIFF_FIXTURES = (
    ("spec_change_no_bump.diff", 1),
    ("spec_change_bump.diff", 0),
    ("spec_change_waiver.diff", 0),
    ("non_spec_change.diff", 0),
    ("snap_change_no_bump.diff", 1),
    ("snap_change_bump.diff", 0),
    ("snap_change_waiver.diff", 0),
)

DIFF_CHECKS = ("spec-version-guard", "snap-version-guard")


def run_diff_checks(diff_text, findings):
    for name in DIFF_CHECKS:
        CHECKS[name](diff_text, findings)


def self_test():
    failures = []
    for fname, vpath, expect_check, min_count in FIXTURES:
        with open(os.path.join(FIXTURE_DIR, fname),
                  encoding="utf-8") as f:
            lines = f.read().splitlines()
        findings = []
        for name in SOURCE_CHECKS:
            CHECKS[name](vpath, lines, findings)
        if expect_check is None:
            if findings:
                failures.append("%s: expected clean, got:\n  %s" %
                                (fname, "\n  ".join(map(str,
                                                        findings))))
        else:
            hits = [f for f in findings if f.check == expect_check]
            if len(hits) < min_count:
                failures.append(
                    "%s: expected >=%d %s finding(s), got %d" %
                    (fname, min_count, expect_check, len(hits)))
            stray = [f for f in findings if f.check != expect_check]
            if stray:
                failures.append("%s: stray findings:\n  %s" %
                                (fname, "\n  ".join(map(str, stray))))
    for fname, expect in DIFF_FIXTURES:
        with open(os.path.join(FIXTURE_DIR, fname),
                  encoding="utf-8") as f:
            diff = f.read()
        findings = []
        run_diff_checks(diff, findings)
        if len(findings) != expect:
            failures.append("%s: expected %d version-guard finding(s), "
                            "got %d" % (fname, expect, len(findings)))
    if failures:
        print("lint_invariants --self-test FAILED:")
        for f in failures:
            print("  " + f.replace("\n", "\n  "))
        return 1
    print("lint_invariants --self-test: OK (%d fixtures)" %
          (len(FIXTURES) + len(DIFF_FIXTURES)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="SysScale repo-invariant linter "
                    "(docs/ANALYSIS.md)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint")
    parser.add_argument("--diff-base", metavar="REF",
                        help="also run the spec/snap version guards "
                             "against git diff REF")
    parser.add_argument("--diff-file", metavar="PATH",
                        help="run the spec/snap version guards "
                             "against a unified diff file (testing)")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check registry and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture corpus")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in sorted(CHECKS):
            print("%-20s %s" % (name, CHECKS[name].check_doc))
        return 0
    if args.self_test:
        return self_test()

    findings = []
    run_source_checks(args.root, findings)
    if args.diff_file:
        with open(args.diff_file, encoding="utf-8") as f:
            run_diff_checks(f.read(), findings)
    elif args.diff_base:
        try:
            run_diff_checks(git_diff(args.diff_base, args.root),
                            findings)
        except RuntimeError as e:
            print("lint_invariants: %s" % e, file=sys.stderr)
            return 2

    for f in findings:
        print(f)
    if findings:
        print("lint_invariants: %d finding(s)" % len(findings))
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
