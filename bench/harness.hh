/**
 * @file
 * Shared experiment harness for the per-figure/table benchmarks.
 *
 * Every bench builds a Skylake-class SoC per Table 2, attaches the
 * laptop HD panel (all paper experiments run with the display on),
 * binds a workload profile and a governor, warms up, and measures a
 * fixed window. Helpers cover the two non-governor modes the paper
 * uses: pinning an operating point (the ITP-forced motivation
 * experiments of Sec. 3) and collecting counter averages (predictor
 * training, Sec. 4.2).
 *
 * Execution itself lives in src/exp: makeSpec() builds the
 * exp::ExperimentSpec for one run, and benches hand their spec
 * vector to the same ExperimentRunner grid sweeps use (see
 * bench_fig10_tdp.cc for the pattern).
 */

#ifndef SYSSCALE_BENCH_HARNESS_HH
#define SYSSCALE_BENCH_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "core/governors.hh"
#include "core/transition_flow.hh"
#include "exp/cache.hh"
#include "exp/experiment.hh"
#include "exp/runner.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"
#include "workloads/profile.hh"

namespace sysscale {
namespace bench {

/** Experiment knobs. */
struct RunConfig
{
    Watt tdp = 4.5;
    Tick warmup = 200 * kTicksPerMs;
    Tick window = 2 * kTicksPerSec;
    bool hdPanel = true;
    bool camera = false;

    /** Pin the CPU cores to this frequency (0 = PBM-controlled). */
    Hertz pinnedCoreFreq = 0.0;

    /** Pin the IO/memory domains to this operating point. */
    std::optional<soc::OperatingPoint> pinnedOpPoint;

    /** Apply unoptimized (boot-trained) MRC at the pinned point. */
    bool pinnedUnoptimizedMrc = false;

    std::optional<soc::SocConfig> socConfig;
};

/** Build the exp cell equivalent to (@p profile, @p rc). */
inline exp::ExperimentSpec
makeSpec(const workloads::WorkloadProfile &profile,
         const RunConfig &rc = {})
{
    exp::ExperimentSpec spec;
    spec.id = profile.name();
    spec.soc = rc.socConfig ? *rc.socConfig
                            : soc::skylakeConfig(rc.tdp);
    spec.workload = profile;
    spec.warmup = rc.warmup;
    spec.window = rc.window;
    spec.hdPanel = rc.hdPanel;
    spec.camera = rc.camera;
    spec.pinnedCoreFreq = rc.pinnedCoreFreq;
    spec.pinnedOpPoint = rc.pinnedOpPoint;
    spec.pinnedUnoptimizedMrc = rc.pinnedUnoptimizedMrc;
    return spec;
}

/** Abort the bench on a failed cell (benches have no error path). */
inline const exp::RunResult &
checkResult(const exp::RunResult &res)
{
    if (!res.ok) {
        std::fprintf(stderr, "bench cell \"%s\" failed: %s\n",
                     res.id.c_str(), res.error.c_str());
        std::exit(1);
    }
    return res;
}

/**
 * Experiment-runner job count for benches: all hardware threads, or
 * the SYSSCALE_BENCH_JOBS override (0 = hardware concurrency).
 */
inline std::size_t
benchJobs()
{
    const char *env = std::getenv("SYSSCALE_BENCH_JOBS");
    if (!env)
        return 0;
    return static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
}

/**
 * Result cache for grid-shaped benches, resolved exactly like
 * sweep_grid: --cache-dir DIR on the command line, the
 * SYSSCALE_CACHE_DIR environment variable as the fallback, and
 * --no-cache to disable both. Returns null when caching is off.
 * Unknown options abort: a typo must not silently run uncached.
 */
inline std::unique_ptr<exp::ResultCache>
benchCache(int argc, char **argv)
{
    std::string dir;
    bool no_cache = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cache-dir") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --cache-dir needs a value\n",
                             argv[0]);
                std::exit(2);
            }
            dir = argv[++i];
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else {
            std::fprintf(stderr,
                         "%s: unknown option %s (supported: "
                         "--cache-dir DIR, --no-cache)\n",
                         argv[0], arg.c_str());
            std::exit(2);
        }
    }
    try {
        return exp::resolveCache(std::move(dir), no_cache);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        std::exit(2);
    }
}

/**
 * Run a bench's spec batch on the shared runner configuration.
 * With a cache, finished cells are served from disk; the
 * simulated-vs-cached split goes to stderr (stdout stays
 * byte-identical to an uncached run).
 */
inline std::vector<exp::RunResult>
runBatch(const std::vector<exp::ExperimentSpec> &specs,
         exp::ResultCache *cache = nullptr)
{
    exp::RunnerOptions opts;
    opts.jobs = benchJobs();
    opts.cache = cache;
    const std::size_t hits_before = cache ? cache->stats().hits : 0;
    auto results = exp::ExperimentRunner(opts).run(specs);
    if (cache) {
        const std::size_t hits = cache->stats().hits - hits_before;
        std::fprintf(stderr,
                     "bench cache: %zu cells (%zu simulated, %zu "
                     "from cache)\n",
                     specs.size(), specs.size() - hits, hits);
    }
    return results;
}

/** Percent delta helper: (b - a) / a in percent. */
inline double
pct(double a, double b)
{
    return (b / a - 1.0) * 100.0;
}

/** Section banner shared by all benches. */
inline void
banner(const char *id, const char *title)
{
    std::printf("==========================================================="
                "=====\n");
    std::printf("%s — %s\n", id, title);
    std::printf("==========================================================="
                "=====\n");
}

} // namespace bench
} // namespace sysscale

#endif // SYSSCALE_BENCH_HARNESS_HH
