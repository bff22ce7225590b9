/**
 * @file
 * Campaign benchmark: one closed-batch workload per run.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *               --work-dir DIR [--trace-out FILE]
 *
 * Each pass submits the workload's whole grid at t=0 from this
 * process and waits for every row; passes repeat while another one
 * still fits in S seconds. With --trace 0 the run reports the end-to-end
 * metrics; with --trace 1 it runs the grid once untraced and once
 * traced, then probes every layer, and reports the per-layer
 * metrics plus its own overhead. Every row is checked either way.
 *
 * The last stdout line is "RESULT <json>"; perfbench/run.py (the
 * entry point that builds this binary) turns it into the result
 * line.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hh"
#include "exp/report.hh"

using namespace sysscale;
using namespace perfbench;
using exp::RunResult;
namespace fs = std::filesystem;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "spec-cpu|battery-day --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--work-dir")
            a.workDir = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else
            usage("unknown option " + flag);
    }
    bool known = false;
    for (const auto &w : workloadNames())
        known = known || w == a.workload;
    if (!known)
        usage("unknown workload '" + a.workload + "'");
    if (a.workDir.empty() || !(a.seconds > 0.0))
        usage("--work-dir and a positive --seconds are required");
    return a;
}

/**
 * Wall milliseconds of a fixed integer/FP kernel (median of three):
 * taken before and after a result set, it shows host-speed drift
 * while the set runs.
 */
double
calibrationMs()
{
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point t0 = Clock::now();
        std::uint64_t x = 88172645463325252ULL;
        double acc = 0.0;
        for (int i = 0; i < 20000000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += static_cast<double>(x & 0xffff) * 1e-5;
        }
        ms.push_back(1e3 * seconds(t0, Clock::now()));
        if (acc < 0.0)
            std::printf("%g\n", acc); // Keeps the kernel live.
    }
    return median(ms);
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage()
 * would report the parent's peak when that is larger: Linux keeps
 * ru_maxrss across execve.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * Everything a run accumulates over its passes. Each cell's host
 * time is kept for every pass, and the timing metrics are taken over
 * each cell's median across passes. Other tenants of the host slow
 * random cells 2-3.5x for a few hundred milliseconds at a time, so a
 * cell's median drops those spikes unless they hit half its passes.
 */
struct Tally
{
    std::vector<double> setup;    //!< Seconds per set-up.
    double lastPassWall = 0.0;    //!< Host seconds of the last pass.
    /** Host seconds of cell i in every pass, in pass order. */
    std::vector<std::vector<double>> cellSeconds;
    double simSeconds = 0.0; //!< Of one pass's grid.
    std::size_t latencySamples = 0;
    std::size_t passes = 0;
    std::size_t cells = 0;
    CheckTally checks;
    /** Rows every later pass must reproduce (modulo host time). */
    std::vector<RunResult> reference;
};

/** Set-ups per pass, for the median of a sub-ms time. */
constexpr int kSetupsPerPass = 3;

double
gridSimSeconds(const Grid &g)
{
    double sum = 0.0;
    for (const auto &spec : g)
        sum += simSeconds(spec);
    return sum;
}

/** One pass: set-up, then the grid on one runner thread. */
void
runPass(const Args &a, Tally &t)
{
    Grid g;
    for (int rep = 0; rep < kSetupsPerPass; ++rep) {
        const Clock::time_point t0 = Clock::now();
        g = buildGrid(a.workload, a.seed);
        t.setup.push_back(seconds(t0, Clock::now()));
    }
    const Clock::time_point t1 = Clock::now();
    const std::vector<RunResult> rows = runInProcess(g);
    const double wall = seconds(t1, Clock::now());

    t.lastPassWall = wall;
    t.simSeconds = gridSimSeconds(g);
    t.cellSeconds.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        t.cellSeconds[i].push_back(rows[i].hostSeconds);
    t.latencySamples += rows.size();
    if (t.reference.empty()) {
        checkRows(rows, nullptr, t.checks);
        t.reference = rows;
    } else {
        checkRows(rows, &t.reference, t.checks);
    }
    t.cells = rows.size();
    ++t.passes;
}

/**
 * The untraced run: passes for --seconds, end-to-end metrics. A pass
 * starts only if one as long as the longest so far still ends within
 * --seconds, so a run never overshoots its budget by a pass (up to
 * 15 s on a loaded host) and a set of runs has a known length.
 */
MetricSet
measure(const Args &a, Tally &t)
{
    const Clock::time_point start = Clock::now();
    double longest = 0.0;
    do {
        const Clock::time_point p0 = Clock::now();
        runPass(a, t);
        longest = std::max(longest, seconds(p0, Clock::now()));
    } while (seconds(start, Clock::now()) + longest <= a.seconds);

    // A pass at each cell's median host time.
    double hostSeconds = 0.0;
    std::vector<double> ms;
    for (const std::vector<double> &perPass : t.cellSeconds) {
        const double s = median(perPass);
        hostSeconds += s;
        ms.push_back(1e3 * s);
    }

    MetricSet m;
    m.add("sim_s_per_host_s", t.simSeconds / hostSeconds, "s/s");
    m.add("cells_per_s", static_cast<double>(ms.size()) / hostSeconds,
          "1/s");
    m.add("cell_ms_p50", percentile(ms, 50.0), "ms");
    m.add("cell_ms_p90", percentile(ms, 90.0), "ms");
    m.add("setup_s", median(t.setup), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("ok_frac",
          1.0 - static_cast<double>(t.checks.failed) /
                    static_cast<double>(t.checks.attempted),
          "ratio");
    m.add("paper_gap_pp", paperGapPp(t.reference), "pp");
    return m;
}

/** The traced run: per-layer metrics and the tracing overhead. */
MetricSet
traceLayers(const Args &a, Tally &t)
{
    runPass(a, t);
    const double untracedWall = t.lastPassWall;

    const Grid g = buildGrid(a.workload, a.seed);
    SpanRecorder rec;
    std::vector<RunResult> traced;
    const Clock::time_point t0 = Clock::now();
    {
        const SpanRecorder::Scope pass(&rec, "pass");
        for (const auto &spec : g) {
            const SpanRecorder::Scope span(&rec, "exp.runCell");
            traced.push_back(exp::runCell(spec));
        }
    }
    const double tracedWall = seconds(t0, Clock::now());
    checkRows(traced, &t.reference, t.checks);

    MetricSet m;
    probeLayers(g, traced, a.workDir, rec, m);
    m.add("bench.traced_run_overhead_frac",
          (tracedWall - untracedWall) / untracedWall, "ratio");

    std::printf("per-layer self time (s) in the traced run:\n");
    for (const auto &kv : rec.selfSecondsByName())
        std::printf("  %-40s %12.6f\n", kv.first.c_str(), kv.second);
    if (!a.traceOut.empty()) {
        rec.write(a.traceOut);
        std::printf("spans written to %s\n", a.traceOut.c_str());
    }
    return m;
}

} // namespace

int
run(const Args &a)
{
    fs::create_directories(a.workDir);

    const double calBefore = calibrationMs();
    Tally t;
    MetricSet m = a.trace ? traceLayers(a, t) : measure(a, t);
    const double calAfter = calibrationMs();
    fs::remove_all(a.workDir);

    const double failedFrac = static_cast<double>(t.checks.failed) /
                              static_cast<double>(t.checks.attempted);
    std::printf("workload %s seed %llu: %zu pass(es) of %zu cells, "
                "%zu latency samples\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), t.passes, t.cells,
                t.latencySamples);
    std::printf("output checks: %zu of %zu rows failed (failed_frac %g); "
                "%zu rows with low_point_residency past [0,1] by "
                "rounding only\n",
                t.checks.failed, t.checks.attempted, failedFrac,
                t.checks.residencyRounding);
    for (const auto &why : t.checks.reasons)
        std::printf("  FAILED %s\n", why.c_str());
    const std::string digest = outputDigest(t.reference);
    std::printf("output_digest %s\n", digest.c_str());

    std::printf(
        "RESULT {\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": %s, \"info\": {\"workload\": %s, \"seed\": %llu, "
        "\"passes\": %zu, \"cells\": %zu, \"latency_samples\": %zu, "
        "\"failed_frac\": %s, \"residency_rounding_rows\": %zu, "
        "\"output_digest\": \"%s\", "
        "\"calibration_ms_before\": %s, \"calibration_ms_after\": %s}}\n",
        t.checks.failed == 0 ? "true" : "false", t.checks.attempted,
        t.checks.failed, m.json().c_str(), exp::jsonQuote(a.workload).c_str(),
        static_cast<unsigned long long>(a.seed), t.passes, t.cells,
        t.latencySamples, exp::formatDouble(failedFrac).c_str(),
        t.checks.residencyRounding, digest.c_str(),
        exp::formatDouble(calBefore).c_str(),
        exp::formatDouble(calAfter).c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
