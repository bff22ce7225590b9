#!/bin/sh
# Documentation consistency checks, run by the CI docs job and as a
# ctest (from the repository root):
#
#   1. every intra-repo markdown link resolves to an existing file
#      (external http(s)/mailto links and pure #anchors are skipped),
#   2. every bench/bench_*.cc binary is mentioned in the README's
#      "Reproducing paper figures" table,
#   3. every scenario registered in src/workloads/scenario.cc is
#      documented in docs/EXPERIMENTS.md,
#   4. every sweep_queue subcommand (the kSubcommands registry in
#      tools/sweep_queue.cc) is documented in docs/OPERATIONS.md,
#      and likewise every snap_inspect subcommand (the kSubcommands
#      registry in tools/snap_inspect.cc),
#   5. every --flag the sweep tools accept (extracted from their
#      `arg == "--x"` dispatch) is documented somewhere in the
#      README or docs/,
#   6. every check registered in tools/lint_invariants.py (the
#      @check("name", ...) registry) is documented in
#      docs/ANALYSIS.md,
#   7. the idle skip-ahead opt-out (the --no-skip-ahead flag) is
#      documented in docs/EXPERIMENTS.md — the byte-identity escape
#      hatch must stay discoverable,
#   8. every governor registered in src/core/governor_registry.cc
#      (the `addEntry(reg, "<name>"` idiom) is documented in
#      docs/EXPERIMENTS.md's governor-zoo table,
#   9. every trace category (the `kCat*[] = "<name>"` constants in
#      src/obs/trace.hh) and every TRACE_* macro is documented in
#      docs/OBSERVABILITY.md — the trace schema is a stable surface
#      (tools/trace_summary.py and external Perfetto queries key on
#      the category strings).
#
# POSIX sh + grep/sed only, so it runs anywhere the build does.

set -u

repo_root=$(dirname "$0")/..
cd "$repo_root" || exit 2

errors=0

# --- 1. intra-repo markdown links -----------------------------------
md_files=$(find . -name '*.md' -not -path './build/*' \
                -not -path './.git/*' | sort)

old_ifs=$IFS
for f in $md_files; do
    # Inline links: capture the (...) target of ](...), ignoring
    # fenced code blocks (C++ lambdas look like markdown links) and
    # stripping optional link titles ([x](path "Title")).
    targets=$(awk '/^[[:space:]]*```/ { fence = !fence; next }
                   !fence' "$f" |
              grep -o ']([^)]*)' |
              sed 's/^](//; s/)$//; s/ "[^"]*"$//')
    [ -z "$targets" ] && continue
    # Newline-only splitting so paths containing spaces stay whole.
    IFS='
'
    for target in $targets; do
        case "$target" in
          http://*|https://*|mailto:*|'#'*) continue ;;
        esac
        # Strip an anchor suffix and ignore empty remainders.
        path=${target%%#*}
        [ -z "$path" ] && continue
        # Resolve relative to the linking file's directory only —
        # that is GitHub's semantic; a repo-root fallback would let
        # links that 404 on GitHub pass the check.
        dir=$(dirname "$f")
        if [ ! -e "$dir/$path" ]; then
            echo "check_docs: broken link in $f -> $target"
            errors=$((errors + 1))
        fi
    done
    IFS=$old_ifs
done

# --- 2. README covers every bench binary ----------------------------
for b in bench/bench_*.cc; do
    name=$(basename "$b" .cc)
    if ! grep -q "$name" README.md; then
        echo "check_docs: README.md does not mention $name" \
             "(add it to the 'Reproducing paper figures' table)"
        errors=$((errors + 1))
    fi
done

# --- 3. EXPERIMENTS.md documents every registered scenario ----------
# Extract the quoted names from the scenarioNames() registry block.
scenario_src=src/workloads/scenario.cc
scenarios=$(sed -n '/scenarioNames()/,/^}/p' "$scenario_src" |
            grep -o '"[a-z0-9-]*"' | tr -d '"')
if [ -z "$scenarios" ]; then
    echo "check_docs: could not extract scenario names from" \
         "$scenario_src"
    errors=$((errors + 1))
fi
for s in $scenarios; do
    if ! grep -q "\`$s\`" docs/EXPERIMENTS.md; then
        echo "check_docs: docs/EXPERIMENTS.md does not document" \
             "scenario '$s' (add it to the scenario table)"
        errors=$((errors + 1))
    fi
done

# --- 4. OPERATIONS.md documents every sweep_queue subcommand --------
queue_src=tools/sweep_queue.cc
subcommands=$(sed -n '/kSubcommands\[\]/,/};/p' "$queue_src" |
              grep -o '"[a-z-]*"' | tr -d '"')
if [ -z "$subcommands" ]; then
    echo "check_docs: could not extract subcommands from" \
         "$queue_src"
    errors=$((errors + 1))
fi
for cmd in $subcommands; do
    if ! grep -q "sweep_queue $cmd" docs/OPERATIONS.md; then
        echo "check_docs: docs/OPERATIONS.md does not document" \
             "'sweep_queue $cmd'"
        errors=$((errors + 1))
    fi
done

# --- 4b. OPERATIONS.md documents every snap_inspect subcommand ------
snap_src=tools/snap_inspect.cc
snap_cmds=$(sed -n '/kSubcommands\[\]/,/};/p' "$snap_src" |
            grep -o '"[a-z-]*"' | tr -d '"')
if [ -z "$snap_cmds" ]; then
    echo "check_docs: could not extract subcommands from $snap_src"
    errors=$((errors + 1))
fi
for cmd in $snap_cmds; do
    if ! grep -q "snap_inspect $cmd" docs/OPERATIONS.md; then
        echo "check_docs: docs/OPERATIONS.md does not document" \
             "'snap_inspect $cmd'"
        errors=$((errors + 1))
    fi
done

# --- 5. every sweep-tool flag is documented -------------------------
# Flags are extracted from the exact-match dispatch comparisons
# (`arg == "--x"`), which appear as standalone quoted strings; usage
# text never matches because its strings carry more than the flag.
for tool in tools/sweep_grid.cc tools/sweep_worker.cc \
            tools/sweep_queue.cc; do
    flags=$(grep -o '"--[a-z0-9-]*"' "$tool" | tr -d '"' | sort -u)
    if [ -z "$flags" ]; then
        echo "check_docs: could not extract flags from $tool"
        errors=$((errors + 1))
    fi
    for flag in $flags; do
        [ "$flag" = "--help" ] && continue
        if ! grep -qF -- "$flag" README.md docs/EXPERIMENTS.md \
                docs/OPERATIONS.md docs/OBSERVABILITY.md; then
            echo "check_docs: flag $flag ($(basename "$tool"))" \
                 "is not documented in README.md or docs/"
            errors=$((errors + 1))
        fi
    done
done

# --- 6. ANALYSIS.md documents every registered lint check -----------
lint_src=tools/lint_invariants.py
lint_checks=$(grep -o '@check("[a-z-]*"' "$lint_src" |
              sed 's/@check("//; s/"$//')
if [ -z "$lint_checks" ]; then
    echo "check_docs: could not extract lint checks from $lint_src"
    errors=$((errors + 1))
fi
for c in $lint_checks; do
    if ! grep -q "\`$c\`" docs/ANALYSIS.md; then
        echo "check_docs: docs/ANALYSIS.md does not document lint" \
             "check '$c' (add it to the check registry table)"
        errors=$((errors + 1))
    fi
done

# --- 7a. EXPERIMENTS.md documents every registered governor ---------
# Extract the quoted names from the addEntry(reg, "<name>" calls —
# the greppable registration idiom the registry header mandates.
gov_src=src/core/governor_registry.cc
governors=$(grep -o 'addEntry(reg, "[a-z0-9-]*"' "$gov_src" |
            sed 's/.*"\([a-z0-9-]*\)"/\1/')
if [ -z "$governors" ]; then
    echo "check_docs: could not extract governor names from" \
         "$gov_src"
    errors=$((errors + 1))
fi
for g in $governors; do
    if ! grep -q "\`$g\`" docs/EXPERIMENTS.md; then
        echo "check_docs: docs/EXPERIMENTS.md does not document" \
             "governor '$g' (add it to the governor-zoo table)"
        errors=$((errors + 1))
    fi
done

# --- 9. OBSERVABILITY.md documents the trace schema surface ---------
# Categories come from the greppable `constexpr char kCatX[] = "x";`
# idiom in the trace header; macros are the public instrumentation
# API.  Both must appear in backtick form so readers can search for
# them verbatim.
trace_hdr=src/obs/trace.hh
trace_cats=$(grep -o 'kCat[A-Za-z]*\[\] = "[a-z-]*"' "$trace_hdr" |
             sed 's/.*"\([a-z-]*\)"/\1/')
if [ -z "$trace_cats" ]; then
    echo "check_docs: could not extract trace categories from" \
         "$trace_hdr"
    errors=$((errors + 1))
fi
for cat in $trace_cats; do
    if ! grep -q "\`$cat\`" docs/OBSERVABILITY.md; then
        echo "check_docs: docs/OBSERVABILITY.md does not document" \
             "trace category '$cat' (add it to the category table)"
        errors=$((errors + 1))
    fi
done
for macro in TRACE_SPAN TRACE_INSTANT TRACE_COUNTER; do
    if ! grep -q "\`$macro\`" docs/OBSERVABILITY.md; then
        echo "check_docs: docs/OBSERVABILITY.md does not document" \
             "the $macro macro"
        errors=$((errors + 1))
    fi
done

# --- 7. the skip-ahead opt-out is documented -----------------------
if ! grep -qF -- "--no-skip-ahead" docs/EXPERIMENTS.md; then
    echo "check_docs: docs/EXPERIMENTS.md does not document the" \
         "skip-ahead opt-out '--no-skip-ahead'"
    errors=$((errors + 1))
fi

if [ "$errors" -ne 0 ]; then
    echo "check_docs: $errors problem(s) found"
    exit 1
fi
echo "check_docs: OK"
exit 0
