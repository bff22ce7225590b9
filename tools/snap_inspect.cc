/**
 * @file
 * snap_inspect: decode, compare, and regression-check simulator
 * snapshots (sim/snapshot.hh). dump and diff also read every other
 * record in that codec: cache entries, queue entries, failure
 * markers and worker metrics.
 *
 * The snapshot format is deliberately line-oriented text so a
 * divergence bisects to a *named field* instead of a byte offset.
 * This tool closes the loop:
 *
 *   snap_inspect dump FILE           # decoded view: doubles shown
 *                                    # as %.17g next to their bit
 *                                    # pattern, diff(1)-friendly
 *   snap_inspect diff A B            # field-level diff of two
 *                                    # snapshots (exit 1 on any)
 *   snap_inspect check GOLDEN        # re-simulate the builtin
 *                                    # golden cell and byte-compare
 *                                    # against GOLDEN (exit 1 on
 *                                    # divergence)
 *   snap_inspect bake-golden OUT     # write the golden snapshot
 *
 * The golden cell is the repo's videoconf reference scenario
 * (web-browsing base workload + the registered "videoconf" scenario,
 * sysscale governor, warmup 200 ms, window 2 s) checkpointed at
 * t = 1 s. The committed fixture lives at
 * tests/data/videoconf.t1s.snap and `check` runs as a ctest: any
 * change to serialized state — a new field, a reordered section, a
 * behavioural drift in the first simulated second — shows up as a
 * named-field diff, and intentional changes are rebaked with
 * `bake-golden` plus a kSnapFormatVersion bump.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/experiment.hh"
#include "sim/snapshot.hh"
#include "workloads/battery.hh"
#include "workloads/scenario.hh"

using namespace sysscale;

namespace {

/**
 * The command registry; tools/check_docs.sh extracts these names
 * and insists each is documented in docs/OPERATIONS.md.
 */
const char *const kSubcommands[] = {
    "dump",
    "diff",
    "check",
    "bake-golden",
};

void
usage()
{
    std::printf(
        "usage: snap_inspect <command> [args]\n"
        "commands:\n"
        "  dump FILE        decoded field-by-field view of a\n"
        "                   snapshot or record (cache entry, queue\n"
        "                   file); 16-hex doubles are annotated\n"
        "                   with their %%.17g value (read-only)\n"
        "  diff A B         field-level comparison of two\n"
        "                   snapshots; prints every differing key\n"
        "                   and exits 1 when they differ\n"
        "  check GOLDEN     re-simulate the builtin golden cell\n"
        "                   (videoconf @ t=1s) and byte-compare the\n"
        "                   snapshot against GOLDEN; exits 1 and\n"
        "                   prints the field diff on divergence\n"
        "  bake-golden OUT  simulate the golden cell and write its\n"
        "                   snapshot to OUT\n");
}

/** One decoded `key = value` line of a snapshot body. */
struct Field
{
    std::string key;
    std::string value;
};

/**
 * Header + body fields of a validated snapshot. Validation goes
 * through SnapshotReader first so a corrupt file fails with the
 * codec's own loud message, then the (now trusted) text is split
 * line-wise: the reader API is typed and consuming, which is right
 * for restore but wrong for a generic viewer.
 */
struct Decoded
{
    std::string specKey;
    Tick tick = 0;
    std::vector<Field> fields;
};

Decoded
decode(const std::string &path)
{
    const std::string text = readSnapshotFile(path);
    SnapshotReader reader(text); // full validation, throws on rot

    Decoded out;
    out.specKey = reader.specKey();
    out.tick = reader.tick();

    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        const std::size_t sep = line.find(" = ");
        if (sep == std::string::npos)
            continue; // header line
        const std::string key = line.substr(0, sep);
        if (key == "spec" || key == "tick" || key == "checksum")
            continue;
        out.fields.push_back({key, line.substr(sep + 3)});
    }
    return out;
}

/** Whether @p v looks like an encoded double (16 lowercase hex). */
bool
isHex16(const std::string &v)
{
    if (v.size() != 16)
        return false;
    for (const char c : v) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    return true;
}

/** Render a value for humans: bit pattern plus %.17g when double. */
std::string
pretty(const std::string &v)
{
    if (!isHex16(v))
        return v;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s (%.17g)", v.c_str(),
                  decodeDouble(v));
    return buf;
}

int
cmdDump(const std::string &path)
{
    const Decoded d = decode(path);
    std::printf("file     %s\n", path.c_str());
    std::printf("format   v%d\n", kSnapFormatVersion);
    std::printf("spec     %s\n", d.specKey.c_str());
    std::printf("tick     %llu\n",
                static_cast<unsigned long long>(d.tick));
    std::printf("fields   %zu\n", d.fields.size());
    for (const Field &f : d.fields)
        std::printf("%s = %s\n", f.key.c_str(),
                    pretty(f.value).c_str());
    return 0;
}

/**
 * Field-level diff: every key whose value differs, plus keys present
 * on only one side. Returns the number of differences.
 */
std::size_t
diffFields(const Decoded &a, const Decoded &b)
{
    std::size_t diffs = 0;
    if (a.specKey != b.specKey) {
        std::printf("spec: %s != %s\n", a.specKey.c_str(),
                    b.specKey.c_str());
        ++diffs;
    }
    if (a.tick != b.tick) {
        std::printf("tick: %llu != %llu\n",
                    static_cast<unsigned long long>(a.tick),
                    static_cast<unsigned long long>(b.tick));
        ++diffs;
    }

    // Snapshot field order is deterministic (writer emission order),
    // so walk both lists with a two-finger merge over sorted copies
    // to report adds/removes by name.
    auto byKey = [](const Decoded &d) {
        std::vector<Field> v = d.fields;
        std::sort(v.begin(), v.end(),
                  [](const Field &x, const Field &y) {
                      return x.key < y.key;
                  });
        return v;
    };
    const std::vector<Field> av = byKey(a);
    const std::vector<Field> bv = byKey(b);
    std::size_t i = 0, j = 0;
    while (i < av.size() || j < bv.size()) {
        if (j >= bv.size() ||
            (i < av.size() && av[i].key < bv[j].key)) {
            std::printf("- %s = %s\n", av[i].key.c_str(),
                        pretty(av[i].value).c_str());
            ++diffs;
            ++i;
        } else if (i >= av.size() || bv[j].key < av[i].key) {
            std::printf("+ %s = %s\n", bv[j].key.c_str(),
                        pretty(bv[j].value).c_str());
            ++diffs;
            ++j;
        } else {
            if (av[i].value != bv[j].value) {
                std::printf("%s: %s != %s\n", av[i].key.c_str(),
                            pretty(av[i].value).c_str(),
                            pretty(bv[j].value).c_str());
                ++diffs;
            }
            ++i;
            ++j;
        }
    }
    return diffs;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB)
{
    const std::size_t diffs = diffFields(decode(pathA), decode(pathB));
    if (diffs == 0) {
        std::printf("snapshots are identical\n");
        return 0;
    }
    std::printf("%zu field(s) differ\n", diffs);
    return 1;
}

/**
 * The golden cell: the repo's videoconf reference scenario,
 * checkpointed one simulated second in. Mirrors the fixture trace
 * (tests/data/videoconf.trace.json) family: same base workload and
 * scenario, long enough that every subsystem has real state — live
 * scripted actions, governor history, display/camera activity,
 * non-trivial stats.
 */
exp::ExperimentSpec
goldenSpec()
{
    exp::ExperimentSpec spec;
    spec.id = "videoconf-golden";
    spec.workload = workloads::webBrowsing();
    spec.scenario = workloads::scenarioByName("videoconf");
    spec.governor = "sysscale";
    spec.warmup = 200 * kTicksPerMs;
    spec.window = 2 * kTicksPerSec;
    return spec;
}

constexpr Tick kGoldenTick = kTicksPerSec;

/** Simulate the golden cell's first second and snapshot it. */
void
bakeGolden(const std::string &out)
{
    exp::SliceOptions so;
    so.t1 = kGoldenTick;
    so.outSnap = out;
    const exp::RunResult res = exp::runCellSlice(goldenSpec(), so);
    if (!res.ok)
        throw std::runtime_error("golden cell failed: " + res.error);
}

int
cmdCheck(const std::string &golden)
{
    // Fresh bake goes to the system tmp — `check` must never write
    // into the tree holding the committed fixture (ctest runs it
    // against the source dir).
    const std::string fresh =
        (std::filesystem::temp_directory_path() /
         ("snap-recheck-" + std::to_string(::getpid()) + ".snap"))
            .string();
    bakeGolden(fresh);
    const std::string want = readSnapshotFile(golden);
    const std::string got = readSnapshotFile(fresh);
    if (want == got) {
        std::remove(fresh.c_str());
        std::printf("golden snapshot matches (%zu bytes, %s @ t=%llu)\n",
                    want.size(), decode(golden).specKey.c_str(),
                    static_cast<unsigned long long>(kGoldenTick));
        return 0;
    }
    std::printf("golden snapshot DIVERGED (committed vs fresh):\n");
    diffFields(decode(golden), decode(fresh));
    std::printf(
        "if the change is intentional, bump kSnapFormatVersion and\n"
        "rebake: snap_inspect bake-golden %s\n",
        golden.c_str());
    std::remove(fresh.c_str());
    return 1;
}

int
cmdBakeGolden(const std::string &out)
{
    bakeGolden(out);
    std::printf("wrote %s (%zu bytes)\n", out.c_str(),
                readSnapshotFile(out).size());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    (void)kSubcommands;
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 2 && args[0] == "dump")
            return cmdDump(args[1]);
        if (args.size() == 3 && args[0] == "diff")
            return cmdDiff(args[1], args[2]);
        if (args.size() == 2 && args[0] == "check")
            return cmdCheck(args[1]);
        if (args.size() == 2 && args[0] == "bake-golden")
            return cmdBakeGolden(args[1]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "snap_inspect: %s\n", e.what());
        return 1;
    }
    usage();
    return 2;
}
