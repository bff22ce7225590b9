/**
 * @file
 * Shared pieces of the campaign benchmark (perfbench/main.cc).
 *
 * The benchmark drives the simulator only through its public
 * library API: it builds grids of exp::ExperimentSpec cells from a
 * workload seed, runs them on the in-process runner, checks every
 * output row, and (in a traced run) times its own calls into each
 * module, the distributed path included.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exp/cache.hh"
#include "exp/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two steady-clock points. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** @name Workload grids (grids.cc). @{ */

/** One benchmark workload: the cells it submits at t=0. */
using Grid = std::vector<sysscale::exp::ExperimentSpec>;

/** The workload names, in presentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Generate @p workload's grid. @p seed drives only generated
 * inputs: the SynthSweep corpus and the scenario scripts.
 */
Grid buildGrid(const std::string &workload, std::uint64_t seed);

/** Simulated seconds (warm-up + window) of one cell. */
double simSeconds(const sysscale::exp::ExperimentSpec &spec);

/** @} */

/** @name Output checks and the paper table (checks.cc). @{ */

/** Failed cells and the reasons, over every row checked. */
struct CheckTally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> reasons; //!< First few, for the log.
    /** Rows whose residency left [0,1] by rounding alone (<= 1e-9). */
    std::size_t residencyRounding = 0;

    void fail(const std::string &why);
};

/**
 * A row's output identity: its CSV row with host_seconds zeroed,
 * plus its stats dump. Two runs of one cell agree exactly when
 * their canonical rows are byte-identical.
 */
std::string canonicalRow(const sysscale::exp::RunResult &res);

/** FNV-1a/64 of the canonical rows, as 16 hex digits. */
std::string outputDigest(
    const std::vector<sysscale::exp::RunResult> &results);

/**
 * Check every row (ok, rail energies sum to energy_j and residency
 * lies in [0,1], both to 1e-9, no NaN field); counts each row once
 * into @p tally. When
 * @p reference is given, each row must also match the reference
 * row at its index byte for byte, modulo host_seconds.
 */
void checkRows(const std::vector<sysscale::exp::RunResult> &rows,
               const std::vector<sysscale::exp::RunResult> *reference,
               CheckTally &tally);

/**
 * Mean absolute gap, in percentage points, between the figure
 * values the rows reproduce and the paper's (rows labelled with a
 * "figure" label); throws when a figure's cells are missing.
 */
double paperGapPp(const std::vector<sysscale::exp::RunResult> &rows);

/** @} */

/** @name Spans of the traced run (spans.cc). @{ */

/** One timed call: [start, end] on the steady clock. */
struct Span
{
    std::size_t id = 0;
    std::size_t parent = 0; //!< 0 = root.
    std::string name;
    double start = 0.0; //!< Seconds since the recorder's origin.
    double end = 0.0;
};

/**
 * In-memory span store. Spans nest per thread through Scope guards;
 * spans reconstructed from another thread's events are added with an
 * explicit parent. Written out once, at the end of the run.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Id of this span (0 when recording is off). */
        std::size_t id() const { return id_; }

      private:
        SpanRecorder *rec_;
        std::size_t id_ = 0;
    };

    /** Seconds since the recorder's origin. */
    double now() const;

    /** Add a closed span; returns its id. Thread-safe. */
    std::size_t add(const std::string &name, double start, double end,
                    std::size_t parent);

    /** Self time of every span: duration minus children's union. */
    std::map<std::string, double> selfSecondsByName() const;

    /** Durations of every span called @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;

    /** Chrome trace-event JSON of every span. */
    void write(const std::string &path) const;

  private:
    std::size_t open(const char *name);
    void close(std::size_t id);

    Clock::time_point origin_;
    mutable std::mutex mu_; //!< Guards spans_.
    std::vector<Span> spans_;
};

/** @} */

/** @name Execution paths (runs.cc). @{ */

/** The in-process path: one runner thread, no cache. */
std::vector<sysscale::exp::RunResult>
runInProcess(const std::vector<sysscale::exp::ExperimentSpec> &specs);

/** One log line from the dispatcher or a worker, time-stamped. */
struct DispatchEvent
{
    double at = 0.0; //!< Seconds since the dispatch started.
    std::string line;
};

/** What one dist::runDistributed call showed from outside. */
struct Dispatched
{
    std::vector<sysscale::exp::RunResult> results;
    double wallSeconds = 0.0;
    /** When onResult delivered each row (seconds, spec order). */
    std::vector<double> resultAt;
    std::vector<DispatchEvent> events;
    /** Lookups of the dispatch's cache, by every thread, so far. */
    sysscale::exp::CacheStats cacheStats;
};

/** Workers a probe dispatch spawns. */
constexpr std::size_t kDispatchWorkers = 2;

/**
 * Dispatch @p specs through the queue at @p queueDir with
 * kDispatchWorkers spawned workers and checkpoint slices of
 * @p sliceTicks, at the default poll and lease settings. The call and
 * every slice a worker logs become spans of @p rec.
 */
Dispatched dispatch(
    const std::vector<sysscale::exp::ExperimentSpec> &specs,
    sysscale::Tick sliceTicks, const std::string &queueDir,
    sysscale::exp::ResultCache &cache, SpanRecorder &rec);

/** Host seconds the workers reported, summed over every slice. */
double workerSeconds(const Dispatched &d);

/** @} */

/** Named metric values with units, in insertion order. */
class MetricSet
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** JSON object {"name": {"value": v, "unit": u}, ...}. */
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        values_;
};

/** @name Per-layer probes of the traced run (layers.cc). @{ */

/**
 * Time the benchmark's own calls into each module on @p grid's
 * cells and add every per-layer metric to @p out. @p traced holds
 * the rows of the traced pass.
 */
void probeLayers(const Grid &grid,
                 const std::vector<sysscale::exp::RunResult> &traced,
                 const std::string &workDir, SpanRecorder &rec,
                 MetricSet &out);

/** @} */

/** Median of @p xs (0 for an empty set). */
double median(std::vector<double> xs);

/** Percentile @p p (0-100, nearest rank) of @p xs. */
double percentile(std::vector<double> xs, double p);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
