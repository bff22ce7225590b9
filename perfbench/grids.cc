/**
 * @file
 * The benchmark workloads, generated from a workload seed.
 *
 * The seed drives only generated inputs — the workloads::SynthSweep
 * corpus (spec-cpu) and scenario scripts (battery-day). The
 * paper-suite cells are the same for every seed, so their figure
 * values, and paper_gap_pp, never depend on it.
 */

#include <algorithm>
#include <stdexcept>

#include "bench.hh"
#include "sim/random.hh"
#include "workloads/battery.hh"
#include "workloads/graphics.hh"
#include "workloads/spec.hh"
#include "workloads/sweep.hh"

namespace perfbench {

using namespace sysscale;
using exp::ExperimentSpec;
using workloads::WorkloadClass;
using workloads::WorkloadProfile;

namespace {

/** The governors of the paper's figures (Figs. 7-9). */
const std::vector<std::string> kPaperGovernors = {
    "fixed", "memscale-r", "coscale-r", "sysscale"};

/** The governors the seed-generated cells run under. */
const std::vector<std::string> kCorpusGovernors = {"fixed", "sysscale",
                                                   "ondemand"};

/** @name spec-cpu shape. @{ */
constexpr std::size_t kSpecCorpusSingle = 32;
constexpr std::size_t kSpecCorpusMulti = 8;
/** @} */

/** @name battery-day shape. @{ */
constexpr std::size_t kBatteryScripts = 7;
constexpr Tick kBatteryLongWindow = 30 * kTicksPerSec;
/** @} */

/** Per-purpose sub-seeds, so adding an input never shifts another. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t purpose)
{
    return seed * 0x9e3779b97f4a7c15ULL + purpose;
}

/** A cell at the paper's Fig. 7-9 settings (4.5 W, HD panel). */
ExperimentSpec
cell(const WorkloadProfile &w, const std::string &gov,
     const std::string &set)
{
    ExperimentSpec spec;
    spec.id = w.name() + "/" + gov;
    spec.soc = soc::skylakeConfig(4.5);
    spec.workload = w;
    spec.governor = gov;
    spec.labels = {{"set", set}, {"workload", w.name()},
                   {"governor", gov}};
    return spec;
}

/** Tag a cell as one of a paper figure's cells. */
void
setFigure(ExperimentSpec &spec, const char *figure)
{
    spec.labels.emplace_back("figure", figure);
}

/**
 * The Fig. 9 cells: the battery suite under the paper's governors,
 * camera on for video conferencing, measured over @p window.
 */
void
addFigure9(std::vector<ExperimentSpec> &out, Tick window,
           const std::string &set)
{
    for (const auto &w : workloads::batterySuite()) {
        for (const auto &gov : kPaperGovernors) {
            ExperimentSpec spec = cell(w, gov, set);
            spec.camera = w.name() == "video-conferencing";
            spec.window = window;
            setFigure(spec, "9");
            out.push_back(std::move(spec));
        }
    }
}

/** Generated profiles per corpus slot (see memoryBound()). */
constexpr std::size_t kPoolPerSlot = 8;

/**
 * @p n memory-bound SynthSweep profiles of @p klass. A pool of
 * 2 * n * kPoolPerSlot profiles is generated from @p seed; its upper
 * MPKI half is split into n equal-count strata and the
 * earliest-generated profile of each stratum is kept. The seed picks
 * the profiles, while the share of cells that defeat skip-ahead
 * stays the same from seed to seed, so cell-cost percentiles do not
 * jump between the replay and slow-path modes.
 */
std::vector<WorkloadProfile>
memoryBound(WorkloadClass klass, std::size_t n, std::uint64_t seed)
{
    const auto pool = workloads::SynthSweep::generateClass(
        klass, 2 * n * kPoolPerSlot, seed);
    std::vector<std::size_t> byMpki(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
        byMpki[i] = i;
    std::stable_sort(byMpki.begin(), byMpki.end(),
                     [&](std::size_t a, std::size_t b) {
                         return pool[a].phase(0).work.mpki <
                                pool[b].phase(0).work.mpki;
                     });
    std::vector<std::size_t> keep;
    for (std::size_t s = n; s < 2 * n; ++s) {
        keep.push_back(*std::min_element(
            byMpki.begin() + s * kPoolPerSlot,
            byMpki.begin() + (s + 1) * kPoolPerSlot));
    }
    std::sort(keep.begin(), keep.end());
    std::vector<WorkloadProfile> out;
    for (const std::size_t i : keep)
        out.push_back(pool[i]);
    return out;
}

/**
 * A seeded day-in-the-life script: every 1-8 s the display goes off
 * or on, a camera session starts or stops, or the TDP steps.
 */
workloads::Scenario
dayScript(Rng &rng, Tick warmup, Tick end, bool camera_on)
{
    using workloads::ScenarioActionKind;
    static const double kTdps[] = {3.5, 4.5, 5.5, 7.0};
    workloads::Scenario s;
    bool display_on = true;
    Tick t = warmup;
    for (;;) {
        t += static_cast<Tick>(rng.uniformInt(1000, 8000)) * kTicksPerMs;
        if (t >= end)
            break;
        workloads::ScenarioAction a;
        a.at = t;
        switch (rng.uniformInt(0, 2)) {
          case 0:
            a.kind = display_on ? ScenarioActionKind::DisplayOff
                                : ScenarioActionKind::DisplayOn;
            display_on = !display_on;
            break;
          case 1:
            a.kind = camera_on ? ScenarioActionKind::CameraOff
                               : ScenarioActionKind::CameraOn;
            camera_on = !camera_on;
            break;
          default:
            a.kind = ScenarioActionKind::SetTdp;
            a.value = kTdps[rng.uniformInt(0, 3)];
            break;
        }
        s.actions.push_back(a);
    }
    return s;
}

Grid
specCpu(std::uint64_t seed)
{
    Grid g;
    for (const auto &w : workloads::specSuite()) {
        for (const auto &gov : kPaperGovernors) {
            ExperimentSpec spec = cell(w, gov, "fig7");
            // bench_fig7_spec: at least two full phase periods.
            spec.window =
                std::max<Tick>(2 * kTicksPerSec, 2 * w.period());
            setFigure(spec, "7");
            g.push_back(std::move(spec));
        }
    }
    auto corpus = memoryBound(WorkloadClass::CpuSingleThread,
                              kSpecCorpusSingle, subSeed(seed, 1));
    for (auto &w : memoryBound(WorkloadClass::CpuMultiThread,
                               kSpecCorpusMulti, subSeed(seed, 2)))
        corpus.push_back(std::move(w));
    for (const auto &w : corpus) {
        for (const auto &gov : kCorpusGovernors)
            g.push_back(cell(w, gov, "corpus"));
    }
    return g;
}

Grid
batteryDay(std::uint64_t seed)
{
    Grid g;
    for (const auto &w : workloads::graphicsSuite()) {
        for (const auto &gov : kPaperGovernors) {
            ExperimentSpec spec = cell(w, gov, "fig8");
            setFigure(spec, "8");
            g.push_back(std::move(spec));
        }
    }
    addFigure9(g, 3 * kTicksPerSec, "fig9");
    const auto suite = workloads::batterySuite();
    for (std::size_t k = 0; k < kBatteryScripts; ++k) {
        for (std::size_t wi = 0; wi < suite.size(); ++wi) {
            const WorkloadProfile &w = suite[wi];
            const bool camera = w.name() == "video-conferencing";
            Rng rng(subSeed(seed, 100 + k * suite.size() + wi));
            const Tick warmup = ExperimentSpec().warmup;
            const workloads::Scenario script = dayScript(
                rng, warmup, warmup + kBatteryLongWindow, camera);
            for (const auto &gov : kCorpusGovernors) {
                ExperimentSpec spec = cell(w, gov, "day");
                spec.id = w.name() + "/day" + std::to_string(k) + "/" +
                          gov;
                spec.camera = camera;
                spec.window = kBatteryLongWindow;
                spec.scenario = script;
                spec.labels.emplace_back("script", std::to_string(k));
                g.push_back(std::move(spec));
            }
        }
    }
    return g;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"spec-cpu",
                                                   "battery-day"};
    return names;
}

Grid
buildGrid(const std::string &workload, std::uint64_t seed)
{
    Grid g;
    if (workload == "spec-cpu")
        g = specCpu(seed);
    else if (workload == "battery-day")
        g = batteryDay(seed);
    else
        throw std::invalid_argument("unknown workload " + workload);
    for (const auto &spec : g)
        exp::validateSpec(spec);
    return g;
}

double
simSeconds(const ExperimentSpec &spec)
{
    return static_cast<double>(spec.warmup + spec.window) /
           static_cast<double>(kTicksPerSec);
}

} // namespace perfbench
