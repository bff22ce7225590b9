/**
 * @file
 * End-to-end integration tests: full SoC + workloads + governors,
 * checking the paper's headline behaviours hold in the assembled
 * system.
 */

#include <gtest/gtest.h>

#include "core/governors.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"
#include "workloads/graphics.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

namespace sysscale {
namespace {

soc::RunMetrics
measure(const workloads::WorkloadProfile &profile,
        core::Governor &governor, Watt tdp = 4.5, bool camera = false)
{
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig(tdp));
    chip.display().attachPanel(0, io::PanelConfig{
        io::PanelResolution::HD, 60.0, 4});
    if (camera)
        chip.isp().startCamera(io::CameraConfig{});

    workloads::ProfileAgent agent(profile);
    chip.setWorkload(&agent);
    chip.pmu().setGovernor(&governor);

    chip.run(200 * kTicksPerMs); // warm up
    return chip.run(kTicksPerSec);
}

TEST(Integration, SysScaleBoostsComputeBoundWorkloads)
{
    core::FixedGovernor base;
    core::SysScaleGovernor ss;
    const auto gamess = workloads::specBenchmark("416.gamess");
    const double b = measure(gamess, base).ips;
    const double s = measure(gamess, ss).ips;
    // Paper Fig. 7: highly scalable workloads gain up to 16%.
    EXPECT_GT(s / b, 1.08);
    EXPECT_LT(s / b, 1.25);
}

TEST(Integration, SysScaleNeverHurtsMemoryBoundWorkloads)
{
    core::FixedGovernor base;
    core::SysScaleGovernor ss;
    for (const char *name : {"470.lbm", "429.mcf", "436.cactusADM"}) {
        const auto w = workloads::specBenchmark(name);
        const double b = measure(w, base).ips;
        const double s = measure(w, ss).ips;
        // The predictor keeps them at the high point: within 1%.
        EXPECT_GT(s / b, 0.99) << name;
    }
}

TEST(Integration, SysScaleBeatsPriorWorkOnAverage)
{
    // Fig. 7 ordering: SysScale > CoScale-R > ~MemScale-R > base.
    double sum_ss = 0.0, sum_ms = 0.0;
    const char *names[] = {"416.gamess", "456.hmmer", "470.lbm",
                           "453.povray", "403.gcc", "433.milc"};
    for (const char *name : names) {
        const auto w = workloads::specBenchmark(name);
        core::FixedGovernor base;
        core::MemScaleGovernor ms(true);
        core::SysScaleGovernor ss;
        const double b = measure(w, base).ips;
        sum_ms += measure(w, ms).ips / b - 1.0;
        sum_ss += measure(w, ss).ips / b - 1.0;
    }
    EXPECT_GT(sum_ss, sum_ms + 0.10);
    EXPECT_GE(sum_ms, -0.02);
}

TEST(Integration, GraphicsGainComesFromRedistribution)
{
    core::FixedGovernor base;
    core::SysScaleGovernor ss;
    const auto mark06 = workloads::threeDMark06();
    const double b = measure(mark06, base).fps;
    const double s = measure(mark06, ss).fps;
    // Fig. 8: 3DMark06 improves ~8.9%.
    EXPECT_GT(s / b, 1.04);
    EXPECT_LT(s / b, 1.15);
}

TEST(Integration, BatteryWorkloadsSaveAveragePower)
{
    core::FixedGovernor base;
    core::SysScaleGovernor ss;
    const auto vp = workloads::videoPlayback();
    const double b = measure(vp, base).avgPower;
    const double s = measure(vp, ss).avgPower;
    // Fig. 9: video playback saves ~10.7% average power.
    EXPECT_LT(s / b, 0.97);
    EXPECT_GT(s / b, 0.80);
}

TEST(Integration, NoQosViolationsUnderAnyGovernor)
{
    // Mispredicting a component's demand must never break
    // isochronous QoS (Sec. 1) — the static table and iso-first
    // scheduling guarantee it.
    const auto workloads_under_test = {
        workloads::videoPlayback(), workloads::threeDMark06(),
        workloads::specBenchmark("470.lbm"),
        workloads::streamMicro()};
    for (const auto &w : workloads_under_test) {
        core::SysScaleGovernor ss;
        const soc::RunMetrics m = measure(w, ss);
        EXPECT_EQ(m.qosViolations, 0u) << w.name();
    }
}

TEST(Integration, PhasedWorkloadTriggersTransitions)
{
    // astar alternates bandwidth phases; SysScale must track them.
    core::SysScaleGovernor ss;
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(
        workloads::specBenchmark("473.astar"));
    chip.setWorkload(&agent);
    chip.pmu().setGovernor(&ss);
    const soc::RunMetrics m = chip.run(4 * kTicksPerSec);
    EXPECT_GE(m.transitions, 4u);
    EXPECT_GT(m.lowPointResidency, 0.2);
    EXPECT_LT(m.lowPointResidency, 0.8);
}

TEST(Integration, TransitionStallsAreNegligible)
{
    core::SysScaleGovernor ss;
    Simulator sim(1);
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::PanelConfig{});
    workloads::ProfileAgent agent(
        workloads::specBenchmark("473.astar"));
    chip.setWorkload(&agent);
    chip.pmu().setGovernor(&ss);
    const soc::RunMetrics m = chip.run(4 * kTicksPerSec);
    // <10us per transition: total stall far below 0.1% of the run.
    EXPECT_LT(secondsFromTicks(m.stallTicks), 0.001 * m.seconds);
}

TEST(Integration, LowerTdpAmplifiesSysScaleBenefit)
{
    // Fig. 10: the 3.5W system gains more than the 15W system.
    const auto gamess = workloads::specBenchmark("416.gamess");
    auto gain_at = [&](Watt tdp) {
        core::FixedGovernor base;
        core::SysScaleGovernor ss;
        return measure(gamess, ss, tdp).ips /
               measure(gamess, base, tdp).ips;
    };
    const double g35 = gain_at(3.5);
    const double g15 = gain_at(15.0);
    EXPECT_GT(g35, g15);
    EXPECT_LT(g15, 1.05);
}

TEST(Integration, BatterySavingsHoldAcrossTdp)
{
    // Sec. 7.4: battery savings are TDP-insensitive (compute runs at
    // Pn regardless).
    const auto vp = workloads::videoPlayback();
    auto saving_at = [&](Watt tdp) {
        core::FixedGovernor base;
        core::SysScaleGovernor ss;
        return 1.0 - measure(vp, ss, tdp).avgPower /
                         measure(vp, base, tdp).avgPower;
    };
    const double s45 = saving_at(4.5);
    const double s15 = saving_at(15.0);
    EXPECT_NEAR(s45, s15, 0.04);
}

TEST(Integration, EnergyMeterRailsSumToTotal)
{
    core::SysScaleGovernor ss;
    const soc::RunMetrics m =
        measure(workloads::specBenchmark("400.perlbench"), ss);
    Joule sum = 0.0;
    for (Joule e : m.railEnergy)
        sum += e;
    EXPECT_NEAR(sum, m.energy, 1e-9);
    EXPECT_GT(m.railEnergy[power::railIndex(power::Rail::VCore)],
              0.0);
    EXPECT_GT(m.railEnergy[power::railIndex(power::Rail::VDDQ)],
              0.0);
}

class GovernorMatrix
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{};

TEST_P(GovernorMatrix, EveryGovernorRunsEveryClassCleanly)
{
    const auto [bench, gov_id] = GetParam();

    core::FixedGovernor fixed;
    core::MemScaleGovernor ms(true);
    core::CoScaleGovernor cs(true);
    core::SysScaleGovernor ss;
    core::Governor *gov = nullptr;
    switch (gov_id) {
      case 0: gov = &fixed; break;
      case 1: gov = &ms; break;
      case 2: gov = &cs; break;
      default: gov = &ss; break;
    }

    const soc::RunMetrics m =
        measure(workloads::specBenchmark(bench), *gov);
    EXPECT_GT(m.instructions, 0.0);
    EXPECT_GT(m.avgPower, 0.0);
    EXPECT_EQ(m.qosViolations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GovernorMatrix,
    ::testing::Combine(::testing::Values("400.perlbench", "470.lbm",
                                         "416.gamess", "473.astar"),
                       ::testing::Values(0, 1, 2, 3)));

} // namespace
} // namespace sysscale
