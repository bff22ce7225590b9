/**
 * @file
 * Per-layer probes of the traced run.
 *
 * Every number here is measured from outside the program: the
 * benchmark wraps its own calls into each module's public functions
 * in spans (a span's self time is its duration minus what its child
 * spans cover), or reads the counts every cell's stats dump already
 * carries. Nothing is instrumented inside the simulator.
 */

#include <cmath>
#include <filesystem>
#include <sstream>

#include "bench.hh"
#include "dist/work_queue.hh"
#include "exp/report.hh"
#include "exp/spec_codec.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"

namespace perfbench {

using namespace sysscale;
using exp::ExperimentSpec;
using exp::RunResult;
namespace fs = std::filesystem;

namespace {

/** Cells the sampled probes (slicing, skip-ahead off, tracing) run. */
constexpr std::size_t kSampleCells = 12;

/** Evenly spaced cells of @p specs, at most kSampleCells. */
std::vector<ExperimentSpec>
sampleOf(const std::vector<ExperimentSpec> &specs)
{
    std::vector<ExperimentSpec> out;
    const std::size_t n = std::min(kSampleCells, specs.size());
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(specs[i * specs.size() / n]);
    return out;
}

/** Value of stat @p name ("path.stat value # desc") in @p dump. */
double
statValue(const std::string &dump, const std::string &name)
{
    std::istringstream lines(dump);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.compare(0, name.size() + 1, name + " ") == 0)
            return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
    throw std::runtime_error("stats dump has no " + name);
}

/** Mean of @p xs (0 for an empty set). */
double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/** Wall seconds of @p fn, as a span called @p name. */
template <typename Fn>
double
timed(SpanRecorder &rec, const char *name, Fn &&fn)
{
    const double t0 = rec.now();
    {
        const SpanRecorder::Scope span(&rec, name);
        fn();
    }
    return rec.now() - t0;
}

/** A fresh, empty directory under @p workDir. */
std::string
freshDir(const std::string &workDir, const std::string &name)
{
    const fs::path p = fs::path(workDir) / name;
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

/** exp: cell execution, spec codec, result cache, report. */
void
probeExp(const Grid &grid, const std::vector<RunResult> &rows,
         const std::string &workDir, SpanRecorder &rec, MetricSet &out)
{
    out.add("exp.run_cell_ms",
            1e3 * mean(rec.durations("exp.runCell")), "ms");

    for (const ExperimentSpec &spec : grid) {
        timed(rec, "exp.specCodec", [&] {
            const std::string text = exp::serializeSpec(spec);
            const std::string key = exp::specKey(spec);
            if (!(exp::parseSpec(text) == spec) || key.size() != 16)
                throw std::runtime_error("spec codec round trip failed");
        });
    }
    out.add("exp.spec_codec_us",
            1e6 * mean(rec.durations("exp.specCodec")), "us");

    // One cache taken cold (every lookup misses, every row is
    // stored) and then hot (every lookup hits), like a campaign
    // re-run against its own cache.
    exp::ResultCache cache(freshDir(workDir, "probe-cache"));
    std::vector<double> entryBytes;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        RunResult miss;
        timed(rec, "exp.ResultCache.lookup.miss",
              [&] { cache.lookup(grid[i], miss); });
        timed(rec, "exp.ResultCache.store",
              [&] { cache.store(grid[i], rows[i]); });
        entryBytes.push_back(static_cast<double>(
            fs::file_size(cache.pathFor(grid[i]))));
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        RunResult hit;
        timed(rec, "exp.ResultCache.lookup.hit",
              [&] { cache.lookup(grid[i], hit); });
        if (canonicalRow(hit) != canonicalRow(rows[i]))
            throw std::runtime_error("cache hit differs: " + rows[i].id);
    }
    out.add("exp.cache_store_us",
            1e6 * mean(rec.durations("exp.ResultCache.store")), "us");
    out.add("exp.cache_lookup_hit_us",
            1e6 * mean(rec.durations("exp.ResultCache.lookup.hit")),
            "us");
    out.add("exp.cache_lookup_miss_us",
            1e6 * mean(rec.durations("exp.ResultCache.lookup.miss")),
            "us");
    out.add("exp.cache_entry_bytes", mean(entryBytes), "bytes");

    std::vector<double> reports;
    for (int rep = 0; rep < 5; ++rep) {
        reports.push_back(timed(rec, "exp.report", [&] {
            std::ostringstream csv, json;
            exp::writeCsv(csv, rows);
            exp::writeJson(json, rows);
        }));
    }
    out.add("exp.report_ms", 1e3 * median(reports), "ms");
}

/**
 * dist: queue operations on @p grid's cells, and what the sliced
 * dispatch @p d of @p dispatched showed.
 */
void
probeDist(const Grid &grid, const std::vector<ExperimentSpec> &dispatched,
          Tick sliceTicks, const Dispatched &d, const std::string &workDir,
          SpanRecorder &rec, MetricSet &out)
{
    dist::WorkQueue queue(freshDir(workDir, "probe-queue"));
    for (const ExperimentSpec &spec : grid)
        timed(rec, "dist.WorkQueue.enqueue", [&] { queue.enqueue(spec); });
    std::vector<dist::Claim> claims;
    for (;;) {
        dist::Claim c;
        const double s = rec.now();
        if (!queue.tryClaim("probe", c))
            break;
        rec.add("dist.WorkQueue.tryClaim", s, rec.now(), 0);
        claims.push_back(std::move(c));
    }
    for (const dist::Claim &c : claims)
        timed(rec, "dist.WorkQueue.release", [&] { queue.release(c); });
    out.add("dist.enqueue_us",
            1e6 * mean(rec.durations("dist.WorkQueue.enqueue")), "us");
    out.add("dist.claim_us",
            1e6 * mean(rec.durations("dist.WorkQueue.tryClaim")), "us");
    out.add("dist.release_us",
            1e6 * mean(rec.durations("dist.WorkQueue.release")), "us");

    // Worker log lines: every claim ends in one of them. A claim is
    // useful when it simulated (an "ok" line), wasted when its work
    // was already done elsewhere (a cache or snapshot hit).
    std::size_t attempts = 0, useful = 0;
    std::map<std::string, double> cellDone; // queue key -> final "ok"
    for (const DispatchEvent &e : d.events) {
        const bool ok = e.line.find(" ok (") != std::string::npos;
        const bool hit = e.line.find(" hit)") != std::string::npos;
        const bool failed = e.line.find(" FAILED (") != std::string::npos;
        attempts += ok || hit || failed;
        useful += ok;
        if (ok && e.line.find(" slice ") == std::string::npos)
            cellDone[e.line.substr(0, e.line.find(' '))] = e.at;
    }
    if (useful == 0)
        throw std::runtime_error("no worker \"ok\" event in the dispatch log");
    // The workers' lookups alone make the denominator non-zero.
    const exp::CacheStats &cs = d.cacheStats;
    out.add("exp.cache_hit_frac",
            static_cast<double>(cs.hits) /
                static_cast<double>(cs.hits + cs.misses),
            "ratio");
    out.add("dist.claims_per_cell",
            static_cast<double>(attempts) / static_cast<double>(useful),
            "ratio");
    std::vector<double> lag;
    for (std::size_t i = 0; i < d.results.size(); ++i) {
        // A chain's last slice publishes the cell under its own key.
        std::string key = exp::specKey(dispatched[i]);
        const std::uint64_t n =
            dist::WorkQueue::sliceCount(dispatched[i], sliceTicks);
        if (n > 1)
            key = dist::WorkQueue::sliceKeyFor(key, sliceTicks, n - 1);
        const auto it = cellDone.find(key);
        if (it != cellDone.end())
            lag.push_back(d.resultAt[i] - it->second);
    }
    out.add("dist.result_lag_ms", 1e3 * median(lag), "ms");
    out.add("dist.worker_busy_frac",
            workerSeconds(d) /
                (static_cast<double>(kDispatchWorkers) * d.wallSeconds),
            "ratio");
}

/** sim: snapshot file API and the cost of slicing a cell. */
void
probeSim(const std::vector<ExperimentSpec> &sample, Tick sliceTicks,
         const std::vector<double> &unslicedSeconds,
         const std::string &workDir, SpanRecorder &rec, MetricSet &out)
{
    const std::string dir = freshDir(workDir, "probe-snaps");
    double sliced = 0.0, unsliced = 0.0;
    std::vector<double> bytes;
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const ExperimentSpec &spec = sample[i];
        const Tick total = spec.warmup + spec.window;
        std::string in;
        for (Tick t0 = 0; t0 < total; t0 += sliceTicks) {
            exp::SliceOptions so;
            so.t0 = t0;
            so.t1 = std::min(total, t0 + sliceTicks);
            so.inSnap = in;
            if (so.t1 < total) {
                so.outSnap = dir + "/c" + std::to_string(i) + ".t" +
                             std::to_string(so.t1) + ".snap";
            }
            sliced += timed(rec, "exp.runCellSlice", [&] {
                if (!exp::runCellSlice(spec, so).ok)
                    throw std::runtime_error("slice failed: " + spec.id);
            });
            in = so.outSnap;
        }
        unsliced += unslicedSeconds[i];

        // The first checkpoint of the chain, through the file API.
        const std::string snap = dir + "/c" + std::to_string(i) + ".t" +
                                 std::to_string(sliceTicks) + ".snap";
        for (int rep = 0; rep < 5; ++rep) {
            std::string text;
            timed(rec, "sim.snapshot.load", [&] {
                text = readSnapshotFile(snap);
                const SnapshotReader reader(text);
            });
            timed(rec, "sim.snapshot.save",
                  [&] { writeSnapshotFile(snap + ".copy", text); });
            bytes.push_back(static_cast<double>(text.size()));
        }
    }
    out.add("sim.snapshot_save_us",
            1e6 * mean(rec.durations("sim.snapshot.save")), "us");
    out.add("sim.snapshot_load_us",
            1e6 * mean(rec.durations("sim.snapshot.load")), "us");
    out.add("sim.snapshot_bytes", mean(bytes), "bytes");
    out.add("sim.slice_overhead_frac", (sliced - unsliced) / unsliced,
            "ratio");
}

/** soc + core: counts from the stats dumps, step costs by rerun. */
void
probeSoc(const std::vector<RunResult> &rows,
         const std::vector<ExperimentSpec> &sample,
         const std::vector<RunResult> &sampleRows,
         const std::vector<double> &onSeconds, SpanRecorder &rec,
         MetricSet &out)
{
    double steps = 0.0, replayed = 0.0, evals = 0.0, transitions = 0.0,
           stall = 0.0;
    for (const RunResult &r : rows) {
        steps += statValue(r.statsDump, "soc.steps");
        replayed += statValue(r.statsDump, "soc.replayed_steps");
        evals += statValue(r.statsDump, "soc.pmu.evaluations");
        transitions += statValue(r.statsDump, "soc.transitions");
        stall += statValue(r.statsDump, "soc.stall_ticks");
    }
    const double n = static_cast<double>(rows.size());
    out.add("soc.steps", steps / n, "count");
    out.add("soc.replay_frac", replayed / steps, "ratio");

    // The same sample once more with skip-ahead off: every step then
    // takes the slow path, which splits the two step costs.
    double sSteps = 0.0, sReplayed = 0.0, on = 0.0, off = 0.0;
    soc::Soc::setSkipAheadDefault(false);
    for (std::size_t i = 0; i < sample.size(); ++i) {
        // The replay counters differ by design; the rows must not.
        off += timed(rec, "exp.runCell.noSkipAhead", [&] {
            RunResult r = exp::runCell(sample[i]);
            r.hostSeconds = sampleRows[i].hostSeconds;
            if (exp::csvRow(r) != exp::csvRow(sampleRows[i]))
                throw std::runtime_error("skip-ahead changed " +
                                         sample[i].id);
        });
        sSteps += statValue(sampleRows[i].statsDump, "soc.steps");
        sReplayed += statValue(sampleRows[i].statsDump, "soc.replayed_steps");
        on += onSeconds[i];
    }
    soc::Soc::setSkipAheadDefault(true);
    const double slow = off / sSteps;
    out.add("soc.slow_step_ns", 1e9 * slow, "ns");
    out.add("soc.replay_step_ns",
            sReplayed > 0.0
                ? 1e9 * (on - slow * (sSteps - sReplayed)) / sReplayed
                : 0.0,
            "ns");

    out.add("core.pmu_evaluations", evals / n, "count");
    out.add("core.transitions", transitions / n, "count");
    out.add("core.stall_ms",
            1e3 * stall / n / static_cast<double>(kTicksPerSec), "ms");
}

/** power + mem: the two hot model functions of the slow path. */
void
probeModel(SpanRecorder &rec, MetricSet &out)
{
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig(4.5));
    const power::PStateTable &table = chip.cpu().pstates();
    const double tdp = chip.config().tdp;
    constexpr int kBudgets = 64, kActivities = 16, kReps = 50;
    double sink = 0.0;
    const double pbm = timed(rec, "power.PStateTable.highestUnder", [&] {
        for (int rep = 0; rep < kReps; ++rep) {
            for (int b = 0; b < kBudgets; ++b) {
                for (int a = 0; a < kActivities; ++a) {
                    sink += table
                                .highestUnder(tdp * b / (kBudgets - 1),
                                              1.0 * a / (kActivities - 1))
                                .freq;
                }
            }
        }
    });
    out.add("power.highest_under_ns",
            1e9 * pbm / (kReps * kBudgets * kActivities), "ns");

    constexpr int kPoints = 1001, kMemReps = 200;
    const double mem = timed(rec, "mem.MemoryController.loadedLatencyAt", [&] {
        for (int rep = 0; rep < kMemReps; ++rep) {
            for (int u = 0; u < kPoints; ++u)
                sink += chip.mc().loadedLatencyAt(1.0 * u / (kPoints - 1));
        }
    });
    out.add("mem.loaded_latency_at_ns", 1e9 * mem / (kMemReps * kPoints),
            "ns");
    if (!std::isfinite(sink))
        throw std::runtime_error("model probe produced a non-finite sum");
}

/**
 * obs: price of a cell's Chrome trace (RunCellOptions::traceDir), on
 * the first kTracedCells of the sample — a trace runs to megabytes
 * per simulated second.
 */
void
probeObs(const std::vector<ExperimentSpec> &sample,
         const std::vector<double> &plainSeconds,
         const std::string &workDir, SpanRecorder &rec, MetricSet &out)
{
    constexpr std::size_t kTracedCells = 4;
    const std::size_t n = std::min(kTracedCells, sample.size());
    exp::RunCellOptions opts;
    opts.traceDir = freshDir(workDir, "probe-traces");
    double traced = 0.0, plain = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        traced += timed(rec, "exp.runCell.traced",
                        [&] { exp::runCell(sample[i], opts); });
        plain += plainSeconds[i];
    }
    double bytes = 0.0;
    for (const auto &f : fs::directory_iterator(opts.traceDir))
        bytes += static_cast<double>(f.file_size());
    out.add("obs.trace_overhead_frac", (traced - plain) / plain, "ratio");
    out.add("obs.trace_bytes_per_cell", bytes / static_cast<double>(n),
            "bytes");
}

} // namespace

void
probeLayers(const Grid &grid, const std::vector<RunResult> &traced,
            const std::string &workDir, SpanRecorder &rec, MetricSet &out)
{
    probeExp(grid, traced, workDir, rec, out);

    // The sampled probes share one untraced, unsliced baseline run.
    const std::vector<ExperimentSpec> sample = sampleOf(grid);
    std::vector<RunResult> sampleRows;
    std::vector<double> plain;
    for (const ExperimentSpec &spec : sample) {
        plain.push_back(timed(rec, "exp.runCell.sample", [&] {
            sampleRows.push_back(exp::runCell(spec));
        }));
    }

    // Slices short enough that every sampled cell is a chain.
    Tick slice = sample.front().warmup + sample.front().window;
    for (const ExperimentSpec &spec : sample)
        slice = std::min(slice, spec.warmup + spec.window);
    slice /= 2;
    exp::ResultCache cache(freshDir(workDir, "probe-dispatch-cache"));
    const Dispatched d = dispatch(
        sample, slice, freshDir(workDir, "probe-dispatch"), cache, rec);
    for (std::size_t i = 0; i < sample.size(); ++i) {
        if (canonicalRow(d.results[i]) != canonicalRow(sampleRows[i]))
            throw std::runtime_error("distributed row differs: " +
                                     sample[i].id);
    }
    probeDist(grid, sample, slice, d, workDir, rec, out);
    probeSim(sample, slice, plain, workDir, rec, out);
    probeSoc(traced, sample, sampleRows, plain, rec, out);
    probeModel(rec, out);
    probeObs(sample, plain, workDir, rec, out);
}

} // namespace perfbench
