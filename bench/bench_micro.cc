/**
 * @file
 * Microbenchmarks (google-benchmark): costs of the kernel and model
 * hot paths, and the per-step cost of the assembled SoC.
 */

#include <benchmark/benchmark.h>

#include "bench/harness.hh"
#include "core/governor.hh"
#include "core/governor_registry.hh"
#include "core/threshold_trainer.hh"
#include "obs/trace.hh"
#include "sim/random.hh"
#include "workloads/battery.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue q;
    EventFunctionWrapper ev("ev", [] {});
    Tick t = 1;
    for (auto _ : state) {
        q.schedule(&ev, t);
        q.step();
        ++t;
    }
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_RngUniform(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void
BM_McService(benchmark::State &state)
{
    Simulator sim;
    dram::DramDevice dev(sim, nullptr, dram::lpddr3Spec());
    mem::MrcStore mrc(dram::lpddr3Spec());
    mem::MemoryController mc(sim, nullptr, dev, mrc, 0.80);
    mem::MemDemand d;
    d.cpuRead = 6e9;
    d.ioIso = 4.3e9;
    for (auto _ : state)
        benchmark::DoNotOptimize(mc.service(d, 100 * kTicksPerUs));
}
BENCHMARK(BM_McService);

void
BM_LoadedLatency(benchmark::State &state)
{
    Simulator sim;
    dram::DramDevice dev(sim, nullptr, dram::lpddr3Spec());
    mem::MrcStore mrc(dram::lpddr3Spec());
    mem::MemoryController mc(sim, nullptr, dev, mrc, 0.80);
    double rho = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mc.loadedLatencyAt(rho));
        rho = rho > 0.9 ? 0.0 : rho + 0.01;
    }
}
BENCHMARK(BM_LoadedLatency);

/**
 * The PBM's P-state search on the CPU table, cycling through the same
 * 64 budgets x 16 activities sweep as perfbench's
 * power.highest_under_ns; one iteration is one call.
 */
void
BM_PStateHighestUnder(benchmark::State &state)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig(4.5));
    const power::PStateTable &table = chip.cpu().pstates();
    const double tdp = chip.config().tdp;
    constexpr int kBudgets = 64, kActivities = 16;
    int b = 0, a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.highestUnder(tdp * b / (kBudgets - 1),
                               1.0 * a / (kActivities - 1)));
        if (++a == kActivities) {
            a = 0;
            b = (b + 1) % kBudgets;
        }
    }
}
BENCHMARK(BM_PStateHighestUnder);

void
BM_PredictorDecision(benchmark::State &state)
{
    const core::DemandPredictor pred(
        core::SysScaleGovernor::defaultThresholds(), {});
    soc::CounterSnapshot snap;
    snap[soc::Counter::LlcStalls] = 1e5;
    for (auto _ : state)
        benchmark::DoNotOptimize(pred.demandsHighPoint(snap, 4.3e9));
}
BENCHMARK(BM_PredictorDecision);

void
BM_ThresholdTraining(benchmark::State &state)
{
    Rng rng(3);
    std::vector<core::TrainingSample> corpus(1000);
    for (auto &s : corpus) {
        s.counters[soc::Counter::LlcStalls] = rng.uniform(0, 2e6);
        s.counters[soc::Counter::LlcOccupancyTracer] =
            rng.uniform(0, 20);
        s.normPerf = rng.uniform(0.85, 1.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::ThresholdTrainer::train(corpus, 0.01));
    }
}
BENCHMARK(BM_ThresholdTraining);

void
BM_TransitionFlow(benchmark::State &state)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::TransitionFlow flow(chip);
    bool low = true;
    for (auto _ : state) {
        flow.execute(low ? chip.opPoints().low()
                         : chip.opPoints().high());
        low = !low;
    }
}
BENCHMARK(BM_TransitionFlow);

void
BM_SocStep(benchmark::State &state)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(
        workloads::specBenchmark("470.lbm"));
    chip.setWorkload(&agent);
    chip.run(kTicksPerMs);
    for (auto _ : state)
        chip.run(100 * kTicksPerUs); // one model step
}
BENCHMARK(BM_SocStep);

/**
 * BM_SocStep with a live TraceSink installed: the same model step
 * plus event capture (spans, change-filtered counters) into the
 * bounded in-memory buffer. The strict perf ledger holds the gap to
 * the untraced variant — tracing is supposed to be cheap enough to
 * leave on for any diagnostic run.
 */
void
BM_SocStepTraced(benchmark::State &state)
{
    Simulator sim;
    obs::TraceSink sink;
    sim.setTraceSink(&sink);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(
        workloads::specBenchmark("470.lbm"));
    chip.setWorkload(&agent);
    chip.run(kTicksPerMs);
    for (auto _ : state)
        chip.run(100 * kTicksPerUs); // one model step
}
BENCHMARK(BM_SocStepTraced)->Name("BM_SocStep/traced");

/**
 * Fig. 9-class idle-heavy run (video playback: C0/C2/C8 = 10/5/85)
 * with the constant-step replay path toggled by the benchmark arg
 * (0 = off, 1 = on). The strict perf ledger requires the enabled
 * variant to hold a >= 2x wall-clock advantage over the disabled
 * one; each iteration simulates 10ms.
 */
void
BM_Fig9IdleRun(benchmark::State &state)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(workloads::videoPlayback());
    chip.setWorkload(&agent);
    chip.setSkipAhead(state.range(0) != 0);
    chip.run(kTicksPerMs);
    for (auto _ : state)
        chip.run(10 * kTicksPerMs);
}
BENCHMARK(BM_Fig9IdleRun)->Arg(0)->Arg(1);

/**
 * Cost of one governor evaluation interval through the full
 * policy/driver stack: a governor installed in the PMU decides,
 * and its driver runs the request (and the flow when the point
 * moves).
 * One variant per registered governor, at default parameters, so
 * the perf ledger watches every policy in the zoo.
 */
void
BM_GovernorDecide(benchmark::State &state, const std::string &name)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    const std::unique_ptr<core::Governor> gov =
        core::makeGovernor(name, {});
    chip.pmu().setGovernor(gov.get());
    soc::CounterSnapshot avg;
    avg[soc::Counter::LlcStalls] = 1e5;
    avg[soc::Counter::LlcOccupancyTracer] = 8.0;
    avg[soc::Counter::IoRpq] = 12.0;
    for (auto _ : state)
        gov->decide(chip.pmu().driver(), chip, avg);
}

const int kGovernorDecideRegistered = [] {
    for (const auto &entry : core::governorRegistry()) {
        benchmark::RegisterBenchmark(
            ("BM_GovernorDecide/" + entry.name).c_str(),
            [name = entry.name](benchmark::State &st) {
                BM_GovernorDecide(st, name);
            });
    }
    return 0;
}();

void
BM_DisplayPanelBandwidth(benchmark::State &state)
{
    const io::PanelConfig cfg{io::PanelResolution::UHD4K, 60.0, 4};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            io::DisplayEngine::panelBandwidth(cfg));
    }
}
BENCHMARK(BM_DisplayPanelBandwidth);

} // namespace

BENCHMARK_MAIN();
