#include "exp/experiment.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/governor_registry.hh"
#include "core/transition_flow.hh"
#include "exp/spec_codec.hh"
#include "io/display.hh"
#include "io/isp.hh"
#include "obs/trace.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "workloads/composite.hh"

namespace sysscale {
namespace exp {

namespace {

/** Workload wrapper that overrides the OS core-frequency request. */
class PinnedFreqAgent : public soc::WorkloadAgent
{
  public:
    PinnedFreqAgent(soc::WorkloadAgent &inner, Hertz freq)
        : inner_(inner), freq_(freq)
    {}

    void
    demandAt(Tick now, soc::IntervalDemand &demand) override
    {
        inner_.demandAt(now, demand);
        if (freq_ > 0.0)
            demand.coreFreqRequest = freq_;
    }

    bool
    finished(Tick now) const override
    {
        return inner_.finished(now);
    }

    Tick
    demandHorizon(Tick now) override
    {
        // The override is time-invariant, so the inner horizon holds.
        return inner_.demandHorizon(now);
    }

  private:
    soc::WorkloadAgent &inner_;
    Hertz freq_;
};

/**
 * Trace file name for @p spec: its content key when it has one, else
 * the cell id with filesystem-hostile characters replaced.
 */
std::string
traceFileStem(const ExperimentSpec &spec)
{
    if (isSerializableSpec(spec))
        return specKey(spec);
    std::string stem = spec.id.empty() ? "cell" : spec.id;
    for (char &c : stem) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    return stem;
}

/** @name RunAccumulators codec (the optional "run.baseline"). @{ */

void
saveAccumulators(SnapshotWriter &w,
                 const soc::Soc::RunAccumulators &a)
{
    w.putDouble("instructions", a.instructions);
    w.putDouble("frames", a.frames);
    for (std::size_t i = 0; i < power::kNumRails; ++i)
        w.putDouble("rail" + std::to_string(i), a.rail[i]);
    w.putDouble("lat_int", a.latInt);
    w.putDouble("lat_secs", a.latSecs);
    w.putDouble("bw_int", a.bwInt);
    w.putDouble("freq_int", a.freqInt);
    w.putDouble("low_secs", a.lowSecs);
    w.putDouble("elapsed_secs", a.elapsedSeconds);
    w.putDouble("qos", a.qos);
    w.putDouble("trans", a.trans);
    w.putDouble("stall", a.stall);
}

soc::Soc::RunAccumulators
loadAccumulators(SnapshotReader &r)
{
    soc::Soc::RunAccumulators a;
    a.instructions = r.getDouble("instructions");
    a.frames = r.getDouble("frames");
    for (std::size_t i = 0; i < power::kNumRails; ++i)
        a.rail[i] = r.getDouble("rail" + std::to_string(i));
    a.latInt = r.getDouble("lat_int");
    a.latSecs = r.getDouble("lat_secs");
    a.bwInt = r.getDouble("bw_int");
    a.freqInt = r.getDouble("freq_int");
    a.lowSecs = r.getDouble("low_secs");
    a.elapsedSeconds = r.getDouble("elapsed_secs");
    a.qos = r.getDouble("qos");
    a.trans = r.getDouble("trans");
    a.stall = r.getDouble("stall");
    return a;
}
/** @} */

/**
 * Serialize the full simulator state of a live cell: the pending
 * event queue in exact (tick, priority, seq) order, every SimObject's
 * private state (scoped under its path), the whole stats hierarchy,
 * the root RNG stream, the PMU's policy state, the trace buffer
 * when one is attached, and the measurement-window baseline sample
 * once the run has crossed warmup.
 */
void
encodeCellState(SnapshotWriter &w, Simulator &sim, const soc::Pmu &pmu,
                const obs::TraceSink *sink,
                const std::optional<soc::Soc::RunAccumulators>
                    &baseline)
{
    w.push("events");
    const std::vector<EventQueue::SavedEvent> events =
        sim.eventq().saveEvents();
    w.putU64("count", events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        w.push("e" + std::to_string(i));
        w.putString("name", events[i].name);
        w.putU64("when", events[i].when);
        w.putU64("priority",
                 static_cast<std::uint64_t>(events[i].priority));
        w.pop();
    }
    w.pop();

    w.push("objects");
    for (const SimObject *o : sim.objects()) {
        w.push(o->path());
        o->saveState(w);
        w.pop();
    }
    w.pop();

    w.push("stats");
    sim.statsRoot().saveStats(w);
    w.pop();

    w.push("rng");
    const std::array<std::uint64_t, 4> rng = sim.rootRng().saveState();
    for (std::size_t i = 0; i < rng.size(); ++i)
        w.putU64("s" + std::to_string(i), rng[i]);
    w.pop();

    w.push("policy");
    pmu.savePolicyState(w);
    w.pop();

    if (sink != nullptr) {
        w.push("obs");
        sink->saveState(w);
        w.pop();
    }

    if (baseline) {
        w.push("run.baseline");
        saveAccumulators(w, *baseline);
        w.pop();
    }
}

/**
 * Restore a freshly constructed cell to the snapshot's instant. The
 * caller has built the cell exactly as runCell would; this starts
 * the components (so their startup hooks register the same named
 * events), rebuilds the event queue from the saved list, and walks
 * the same sections encodeCellState wrote. Any shape mismatch —
 * unknown event name, missing/unconsumed field — throws
 * SnapshotError.
 */
void
restoreCellState(SnapshotReader &r, Simulator &sim, soc::Pmu &pmu,
                 obs::TraceSink *sink,
                 std::optional<soc::Soc::RunAccumulators> &baseline)
{
    // Harvest the startup-scheduled events: every event that can be
    // live mid-run is a named member some component schedules at
    // startup, so the harvest is a superset of the saved list.
    sim.startAll();
    std::map<std::string, Event *> by_name;
    for (Event *ev : sim.eventq().scheduledEvents())
        by_name[ev->name()] = ev;

    sim.eventq().clearScheduled();
    sim.eventq().restoreNow(r.tick());

    r.push("events");
    const std::uint64_t count = r.getU64("count");
    std::set<std::string> used;
    for (std::uint64_t i = 0; i < count; ++i) {
        r.push("e" + std::to_string(i));
        const std::string name = r.getString("name");
        const Tick when = r.getU64("when");
        const int priority = static_cast<int>(r.getU64("priority"));
        const auto it = by_name.find(name);
        if (it == by_name.end())
            throw SnapshotError(
                "snapshot schedules unknown event \"" + name + "\"");
        if (!used.insert(name).second)
            throw SnapshotError(
                "snapshot schedules event \"" + name + "\" twice");
        if (it->second->priority() != priority)
            throw SnapshotError(
                "event \"" + name + "\" priority mismatch");
        sim.eventq().schedule(it->second, when);
        r.pop();
    }
    r.pop();

    r.push("objects");
    for (SimObject *o : sim.objects()) {
        r.push(o->path());
        o->loadState(r);
        r.pop();
    }
    r.pop();

    r.push("stats");
    sim.statsRoot().loadStats(r);
    r.pop();

    r.push("rng");
    std::array<std::uint64_t, 4> rng{};
    for (std::size_t i = 0; i < rng.size(); ++i)
        rng[i] = r.getU64("s" + std::to_string(i));
    sim.rootRng().loadState(rng);
    r.pop();

    r.push("policy");
    pmu.loadPolicyState(r);
    r.pop();

    if (r.has("obs.dropped")) {
        if (sink != nullptr) {
            r.push("obs");
            sink->loadState(r);
            r.pop();
        } else {
            // Saved with tracing, restored without: drop the buffer.
            r.skipScope("obs");
        }
    }

    if (r.has("run.baseline.instructions")) {
        r.push("run.baseline");
        baseline = loadAccumulators(r);
        r.pop();
    }
}

} // anonymous namespace

const std::vector<std::string> &
governorNames()
{
    // The core registry, plus the policy-less "collect" sentinel.
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n = core::governorNames();
        n.push_back("collect");
        return n;
    }();
    return names;
}

bool
isGovernorName(const std::string &name)
{
    return name.empty() || name == "collect" ||
           core::isRegisteredGovernor(name);
}

GovernorFactory
governorFactory(const std::string &name, const GovernorParams &params)
{
    if (name.empty() || name == "collect") {
        if (!params.empty()) {
            throw std::invalid_argument(
                "governor \"collect\" takes no parameters");
        }
        return [] { return std::unique_ptr<core::Governor>(); };
    }
    // Construct once eagerly: makeGovernor validates both the name
    // (enumerating the registry on a miss) and the parameters, so a
    // bad --governors token dies here, not on a sweep worker.
    core::makeGovernor(name, params);
    return [name, params] { return core::makeGovernor(name, params); };
}

GovernorToken
parseGovernorToken(const std::string &token)
{
    GovernorToken out;
    std::size_t start = token.find(':');
    out.name = token.substr(0, start);
    while (start != std::string::npos) {
        ++start;
        std::size_t end = token.find(':', start);
        const std::string seg =
            token.substr(start, end == std::string::npos
                                    ? std::string::npos
                                    : end - start);
        const std::size_t eq = seg.find('=');
        if (eq == std::string::npos || eq == 0) {
            throw std::invalid_argument(
                "governor token \"" + token + "\": segment \"" + seg +
                "\" is not key=value");
        }
        out.params.emplace_back(seg.substr(0, eq), seg.substr(eq + 1));
        start = end;
    }
    return out;
}

void
validateSpec(const ExperimentSpec &spec)
{
    if (spec.workload.numPhases() == 0 && spec.scenario.layers.empty())
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": workload has no phases");
    try {
        workloads::validateScenario(spec.scenario);
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": " + e.what());
    }
    if (spec.window == 0)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": zero measurement window");
    if (!spec.governorFactory) {
        // governorFactory() validates both the name (enumerating the
        // registry on a miss) and the parameters.
        try {
            governorFactory(spec.governor, spec.governorParams);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(
                "cell \"" + spec.id + "\": " + e.what());
        }
    }
    // Catchable mirror of every SocConfig::validate() invariant:
    // cfg.validate() is fatal (process exit), which from a worker
    // thread would take the whole grid down instead of producing an
    // ok=false row for just this cell.
    const soc::SocConfig &cfg = spec.soc;
    if (cfg.tdp <= 0.0)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": non-positive TDP");
    if (cfg.cores == 0 || cfg.threadsPerCore == 0)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": zero cores/threads");
    if (cfg.pbmReserve < 0.0 || cfg.pbmReserve >= cfg.tdp)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": PBM reserve outside [0, TDP)");
    if (cfg.vSaBoot <= 0.0 || cfg.vIoBoot <= 0.0 || cfg.vddq <= 0.0)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": non-positive rail voltage");
    if (cfg.fabricFreqLow > cfg.fabricFreqHigh)
        throw std::invalid_argument(
            "cell \"" + spec.id +
            "\": fabric low clock above high clock");
    if (cfg.sampleInterval == 0 || cfg.evaluationInterval == 0 ||
        cfg.stepInterval == 0) {
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": zero PM cadence interval");
    }
    if (cfg.sampleInterval % cfg.stepInterval != 0 ||
        cfg.evaluationInterval % cfg.sampleInterval != 0) {
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": PM cadence intervals are not "
            "multiples of each other");
    }
    if (cfg.budgetUtilization <= 0.0 || cfg.budgetUtilization > 1.0)
        throw std::invalid_argument(
            "cell \"" + spec.id +
            "\": budget utilization out of (0,1]");

    // Peak concurrent hardware threads: the composite concatenates
    // the base workload's thread work with every layer active at
    // the same instant, and the CPU model asserts (process-fatal)
    // when that exceeds cores x threads — which from a sweep worker
    // would crash the daemon and crash-loop the reclaimed cell
    // across the whole fleet. Reject the cell here instead, using
    // each profile's worst phase at every layer arrival inside the
    // simulated window (a layer arriving after warmup + window
    // never materializes and cannot overflow). The base workload
    // alone is checked too — a too-wide profile is just as fatal
    // without any scenario.
    {
        const std::size_t capacity = cfg.cores * cfg.threadsPerCore;
        const Tick run_end = spec.warmup + spec.window;
        auto maxThreads =
            [](const workloads::WorkloadProfile &profile) {
                std::size_t m = 0;
                for (const workloads::Phase &p : profile.phases())
                    m = std::max(m, p.activeThreads);
                return m;
            };
        std::vector<Tick> edges{0};
        for (const workloads::ScenarioLayer &layer :
             spec.scenario.layers) {
            if (layer.start < run_end)
                edges.push_back(layer.start);
        }
        std::size_t peak = 0;
        for (const Tick t : edges) {
            std::size_t at = maxThreads(spec.workload);
            for (const workloads::ScenarioLayer &layer :
                 spec.scenario.layers) {
                if (layer.start <= t &&
                    (layer.stop == 0 || t < layer.stop))
                    at += maxThreads(layer.profile);
            }
            peak = std::max(peak, at);
        }
        if (peak > capacity) {
            throw std::invalid_argument(
                "cell \"" + spec.id + "\": workload plus scenario "
                "layers peak at " + std::to_string(peak) +
                " concurrent threads, above the " +
                std::to_string(capacity) + " the SoC has");
        }
    }
}

std::string
snapshotSpecKey(const ExperimentSpec &spec)
{
    return traceFileStem(spec);
}

namespace {

/**
 * The throwing core of runCellSlice: build the cell exactly as
 * runCell always has, optionally restore the snapshot at t0, run to
 * t1, optionally publish a snapshot, and produce the cell outputs
 * when t1 is the end of the run. @p use_snap false ignores inSnap
 * (the degrade-to-cache-miss retry path).
 */
void
executeSlice(const ExperimentSpec &spec, const SliceOptions &sopts,
             bool use_snap, RunResult &res)
{
    validateSpec(spec);

    const Tick total = spec.warmup + spec.window;
    const Tick t1 = sopts.t1 == 0 ? total : sopts.t1;
    if (t1 > total)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": slice ends past the run");
    if (sopts.t0 >= t1)
        throw std::invalid_argument(
            "cell \"" + spec.id + "\": empty slice");
    if (sopts.t0 > 0 && sopts.inSnap.empty())
        throw std::invalid_argument(
            "cell \"" + spec.id +
            "\": slice starts mid-run without an input snapshot");

    const GovernorFactory factory =
        spec.governorFactory
            ? spec.governorFactory
            : governorFactory(spec.governor, spec.governorParams);
    const std::unique_ptr<core::Governor> gov = factory();
    // Stateful governors (adaptive's learned thresholds) must not
    // leak across cells: every factory-built governor must be a
    // never-installed instance. Debug builds only.
    assert(!gov || !gov->everInstalled());

    Simulator sim(spec.seed);

    // The sink must be installed before the Soc is built so
    // construction-time trace sites (the boot op-point counters)
    // land in the file. One sink per cell, stamped only with sim
    // clock, written once below — which is what makes traces
    // byte-identical across --jobs counts and skip-ahead modes.
    obs::TraceSink sink;
    const bool tracing = !sopts.traceDir.empty();
    if (tracing)
        sim.setTraceSink(&sink);

    soc::Soc chip(sim, spec.soc);
    if (spec.hdPanel)
        chip.display().attachPanel(0, io::kDefaultHdPanel);
    if (spec.camera)
        chip.isp().startCamera(io::CameraConfig{});

    // Scenario-less cells bind the profile agent directly (the
    // single-workload fast path benches rely on); scenarios
    // overlay their layers through a CompositeAgent and replay
    // timed SoC mutations through a ScenarioScript.
    std::unique_ptr<workloads::ProfileAgent> base;
    if (spec.workload.numPhases() > 0)
        base.reset(new workloads::ProfileAgent(spec.workload));

    workloads::CompositeAgent composite;
    std::vector<std::unique_ptr<workloads::ProfileAgent>> layers;
    soc::WorkloadAgent *root = base.get();
    if (!spec.scenario.layers.empty()) {
        if (base)
            composite.addMember(*base);
        for (const workloads::ScenarioLayer &layer :
             spec.scenario.layers) {
            layers.emplace_back(
                new workloads::ProfileAgent(layer.profile));
            composite.addMember(*layers.back(), layer.start,
                                layer.stop);
        }
        root = &composite;
    }

    std::unique_ptr<workloads::ScenarioScript> script;
    if (!spec.scenario.actions.empty()) {
        script.reset(new workloads::ScenarioScript(
            sim, chip, spec.scenario.actions));
    }

    PinnedFreqAgent pinned(*root, spec.pinnedCoreFreq);
    chip.setWorkload(&pinned);

    chip.pmu().setGovernor(gov.get());
    res.governor = gov ? gov->name() : "collect";

    if (spec.pinnedOpPoint) {
        core::FlowOptions fopts;
        fopts.useOptimizedMrc = !spec.pinnedUnoptimizedMrc;
        core::TransitionFlow flow(chip, fopts);
        soc::OperatingPoint target = *spec.pinnedOpPoint;
        if (spec.pinnedUnoptimizedMrc)
            target.mrcTrainedBin = chip.opPoints().high().dramBin;
        flow.execute(target);
        chip.setComputeBudget(chip.pbm().computeBudget(
            chip.ioMemBudget(chip.opPoints().high()), 0.0));
    }

    const std::string key = snapshotSpecKey(spec);
    std::optional<soc::Soc::RunAccumulators> baseline;
    Tick pos = 0;
    if (use_snap && sopts.t0 > 0) {
        const std::string text = readSnapshotFile(sopts.inSnap);
        SnapshotReader reader(text);
        if (reader.specKey() != key) {
            throw SnapshotError(
                "snapshot " + sopts.inSnap + " belongs to spec " +
                reader.specKey() + ", not " + key);
        }
        if (reader.tick() != sopts.t0) {
            throw SnapshotError(
                "snapshot " + sopts.inSnap + " is at tick " +
                std::to_string(reader.tick()) + ", not slice start " +
                std::to_string(sopts.t0));
        }
        restoreCellState(reader, sim, chip.pmu(),
                         tracing ? &sink : nullptr, baseline);
        reader.finish();
        pos = sopts.t0;
    }

    // Cross the warmup boundary exactly as the unsliced path does:
    // run to it, then sample the measurement-window baseline. The
    // baseline rides subsequent snapshots so the final slice
    // differences the identical pair of samples.
    if (!baseline && t1 >= spec.warmup && pos <= spec.warmup) {
        if (spec.warmup > pos)
            chip.run(spec.warmup - pos);
        pos = spec.warmup;
        baseline = chip.sampleAccumulators();
    }
    if (t1 > pos)
        chip.run(t1 - pos);

    if (!sopts.outSnap.empty()) {
        // Publish before stats finalization: finalizeStats() closes
        // the time-averaged stats, which must not leak into an image
        // a continuation resumes from.
        SnapshotWriter writer(key, sim.now());
        encodeCellState(writer, sim, chip.pmu(),
                        tracing ? &sink : nullptr, baseline);
        writeSnapshotFile(sopts.outSnap, writer.str());
    }

    if (t1 == total) {
        res.metrics = soc::Soc::metricsBetween(
            *baseline, chip.sampleAccumulators(),
            secondsFromTicks(spec.window));
        res.counters = chip.pmu().counterAverage();

        // Per-cell stats export: close the time-weighted residency
        // stats and dump the whole hierarchy. Rides the result (and
        // the cache) without touching the CSV/JSON report surfaces.
        chip.finalizeStats(sim.now());
        std::ostringstream stats;
        sim.statsRoot().dumpStats(stats);
        res.statsDump = stats.str();

        if (tracing) {
            const std::string path = sopts.traceDir + "/" +
                                     traceFileStem(spec) +
                                     ".trace.json";
            std::ofstream os(path,
                             std::ios::binary | std::ios::trunc);
            if (!os) {
                throw std::runtime_error(
                    "cannot write trace file " + path);
            }
            sink.writeJson(os);
        }
    }
    res.ok = true;
}

} // anonymous namespace

RunResult
runCell(const ExperimentSpec &spec)
{
    return runCell(spec, RunCellOptions{});
}

RunResult
runCell(const ExperimentSpec &spec, const RunCellOptions &opts)
{
    SliceOptions sopts;
    sopts.traceDir = opts.traceDir;
    return runCellSlice(spec, sopts);
}

RunResult
runCellSlice(const ExperimentSpec &spec, const SliceOptions &sopts)
{
    RunResult res;
    res.id = spec.id;
    res.workload = spec.workload.name();
    res.labels = spec.labels;

    // lint:allow nondeterminism -- hostSeconds is measured host
    // timing, recorded as diagnostic metadata and replayed
    // byte-identically from the cache
    const auto host_start = std::chrono::steady_clock::now();
    try {
        try {
            executeSlice(spec, sopts, /*use_snap=*/true, res);
        } catch (const SnapshotError &e) {
            // Degrade to a cache miss: a bad input snapshot (absent,
            // truncated, corrupt, stale version, wrong spec) means
            // re-simulating the slice's prefix from tick 0, never a
            // failed cell. The retry rebuilds the whole cell — a
            // restore aborted midway leaves partial state behind.
            (void)e;
            RunResult fresh;
            fresh.id = res.id;
            fresh.workload = res.workload;
            fresh.labels = res.labels;
            res = fresh;
            executeSlice(spec, sopts, /*use_snap=*/false, res);
        }
        res.ok = true;
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = e.what();
    } catch (...) {
        res.ok = false;
        res.error = "unknown exception";
    }
    res.hostSeconds =
        std::chrono::duration<double>(
            // lint:allow nondeterminism -- hostSeconds measurement
            std::chrono::steady_clock::now() - host_start)
            .count();
    return res;
}

std::vector<ExperimentSpec>
expandGrid(const GridSpec &grid)
{
    // The scenario axis: explicit entries expand like any other
    // dimension (every cell suffixed and labeled, "none" included);
    // without them the single grid.scenario applies to every cell
    // and ids/labels stay exactly as before — suffixed only when
    // scenarioName is set, untouched for scenario-less grids.
    const bool scenario_axis = !grid.scenarios.empty();
    std::vector<GridSpec::NamedScenario> axis;
    if (scenario_axis)
        axis = grid.scenarios;
    else
        axis.push_back({grid.scenarioName, grid.scenario});

    std::vector<ExperimentSpec> cells;
    cells.reserve(grid.workloads.size() * grid.governors.size() *
                  grid.tdps.size() * grid.seeds.size() * axis.size());

    for (const auto &w : grid.workloads) {
        for (const auto &gov : grid.governors) {
            // Grid governors are sweep-console tokens: the base name
            // plus parameters land in the spec, while ids and the
            // "governor" label keep the full token so parameterized
            // variants stay distinguishable in aggregation. Plain
            // names (no parameters) expand exactly as before.
            const GovernorToken token = parseGovernorToken(gov);
            for (const Watt tdp : grid.tdps) {
                for (const std::uint64_t seed : grid.seeds) {
                    for (const auto &sc : axis) {
                        ExperimentSpec cell;
                        cell.soc = grid.base;
                        cell.soc.tdp = tdp;
                        cell.workload = w;
                        cell.scenario = sc.scenario;
                        cell.governor = token.name;
                        cell.governorParams = token.params;
                        cell.seed = seed;
                        cell.warmup = grid.warmup;
                        cell.window = grid.window;
                        cell.hdPanel = grid.hdPanel;
                        cell.camera = grid.camera;

                        char tdp_s[32];
                        std::snprintf(tdp_s, sizeof(tdp_s), "%.3gW",
                                      tdp);
                        cell.id = w.name() + "/" + gov + "/" + tdp_s +
                                  "/seed" + std::to_string(seed);
                        cell.labels = {
                            {"workload", w.name()},
                            {"governor", gov},
                            {"tdp", tdp_s},
                            {"seed", std::to_string(seed)},
                        };
                        if (scenario_axis || !sc.name.empty()) {
                            cell.id += "/" + sc.name;
                            cell.labels.emplace_back("scenario",
                                                     sc.name);
                        }
                        cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    return cells;
}

} // namespace exp
} // namespace sysscale
