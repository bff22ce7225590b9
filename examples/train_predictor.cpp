/**
 * @file
 * Training the demand predictor offline (paper Sec. 4.2): sweep a
 * synthetic corpus at both operating points, fit mu+sigma thresholds
 * and the linear impact model, and install the trained predictor in
 * a SysScale governor.
 */

#include <cstdio>

#include "core/governors.hh"
#include "core/threshold_trainer.hh"
#include "core/transition_flow.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"
#include "workloads/spec.hh"
#include "workloads/sweep.hh"

using namespace sysscale;

namespace {

/** One pinned measurement; returns (ips, counters at high point). */
std::pair<double, soc::CounterSnapshot>
pinnedRun(const workloads::WorkloadProfile &w, bool low)
{
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(w);
    chip.setWorkload(&agent);

    core::TransitionFlow flow(chip);
    if (low)
        flow.execute(chip.opPoints().low());

    chip.run(60 * kTicksPerMs);
    const soc::RunMetrics m = chip.run(200 * kTicksPerMs);
    // With no governor installed, the PMU averages the counters.
    return {m.ips, chip.pmu().counterAverage()};
}

} // namespace

int
main()
{
    // 1. Measure a training corpus at both points.
    const auto corpus = workloads::SynthSweep::generateClass(
        workloads::WorkloadClass::CpuSingleThread, 160, 0xBEEF);

    std::vector<core::TrainingSample> samples;
    samples.reserve(corpus.size());
    for (const auto &w : corpus) {
        const auto [hi_ips, counters] = pinnedRun(w, false);
        const auto [lo_ips, ignored] = pinnedRun(w, true);
        (void)ignored;
        core::TrainingSample s;
        s.counters = counters;
        s.normPerf = hi_ips > 0.0 ? lo_ips / hi_ips : 1.0;
        samples.push_back(s);
    }

    // 2. Train thresholds (mu+sigma, zero false positives) and the
    //    linear impact model.
    const core::Thresholds thr =
        core::ThresholdTrainer::train(samples, 0.01);
    const core::LinearImpactModel model =
        core::ThresholdTrainer::fitLinear(samples);
    const core::DemandPredictor pred(thr, model);
    const core::PredictionStats stats =
        core::ThresholdTrainer::evaluate(pred, samples, 0.01);

    std::printf("trained on %zu workloads x 2 operating points\n",
                samples.size());
    for (soc::Counter c : soc::kAllCounters) {
        std::printf("  threshold %-22s = %.1f /ms\n",
                    std::string(soc::counterName(c)).c_str(),
                    thr.counter[soc::counterIndex(c)]);
    }
    std::printf("accuracy %.1f%%, correlation %.3f, false positives "
                "%zu (paper: 94-99%%, 0.84-0.96, zero FPs)\n\n",
                stats.accuracy * 100.0, stats.correlation,
                stats.falsePositives);

    // 3. Deploy the trained predictor in a governor.
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    core::SysScaleGovernor gov(thr, model);
    chip.pmu().setGovernor(&gov);
    workloads::ProfileAgent agent(
        workloads::specBenchmark("416.gamess"));
    chip.setWorkload(&agent);
    chip.run(200 * kTicksPerMs);
    const soc::RunMetrics m = chip.run(kTicksPerSec);

    std::printf("deployed: gamess runs at the low point %.0f%% of "
                "the time, %.2f GHz average core clock, 0 QoS "
                "violations: %s\n",
                m.lowPointResidency * 100.0, m.avgCoreFreq / 1e9,
                m.qosViolations == 0 ? "yes" : "NO");
    return 0;
}
