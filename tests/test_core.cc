/**
 * @file
 * Unit tests for the paper's contribution: static table, predictor,
 * trainer, transition flow, and governors.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/demand_predictor.hh"
#include "core/governor_driver.hh"
#include "core/governors.hh"
#include "core/static_table.hh"
#include "core/threshold_trainer.hh"
#include "core/transition_flow.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"

namespace sysscale {
namespace core {
namespace {

TEST(StaticTable, MatchesDisplayEngineModel)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    StaticDemandTable table;

    EXPECT_DOUBLE_EQ(table.staticDemand(chip.csr()), 0.0);

    chip.display().attachPanel(0, io::PanelConfig{
        io::PanelResolution::HD, 60.0, 4});
    EXPECT_NEAR(table.staticDemand(chip.csr()),
                chip.display().bandwidthDemand(), 1e3);

    chip.display().attachPanel(1, io::PanelConfig{
        io::PanelResolution::UHD4K, 60.0, 4});
    EXPECT_NEAR(table.staticDemand(chip.csr()),
                chip.display().bandwidthDemand(), 1e3);
}

TEST(StaticTable, TracksIspStream)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    StaticDemandTable table;
    chip.isp().startCamera(io::CameraConfig{});
    EXPECT_NEAR(table.staticDemand(chip.csr()),
                chip.isp().bandwidthDemand(),
                chip.isp().bandwidthDemand() * 0.01);
}

TEST(StaticTable, FitsInFirmware)
{
    EXPECT_LT(StaticDemandTable().firmwareBytes(), 128u);
}

TEST(Predictor, FiveConditionsFireIndependently)
{
    Thresholds thr;
    thr.counter = {100.0, 10.0, 1000.0, 5.0};
    thr.staticBw = 10e9;
    DemandPredictor pred(thr, {});

    soc::CounterSnapshot quiet;
    EXPECT_FALSE(pred.demandsHighPoint(quiet, 0.0));

    soc::CounterSnapshot gfx = quiet;
    gfx[soc::Counter::GfxLlcMisses] = 200.0;
    EXPECT_TRUE(pred.conditions(gfx, 0.0).gfxBandwidth);

    soc::CounterSnapshot occ = quiet;
    occ[soc::Counter::LlcOccupancyTracer] = 20.0;
    EXPECT_TRUE(pred.conditions(occ, 0.0).cpuBandwidth);

    soc::CounterSnapshot stalls = quiet;
    stalls[soc::Counter::LlcStalls] = 5000.0;
    EXPECT_TRUE(pred.conditions(stalls, 0.0).memLatency);

    soc::CounterSnapshot rpq = quiet;
    rpq[soc::Counter::IoRpq] = 9.0;
    EXPECT_TRUE(pred.conditions(rpq, 0.0).ioLatency);

    EXPECT_TRUE(pred.conditions(quiet, 20e9).staticBw);
}

std::vector<TrainingSample>
syntheticCorpus(std::size_t n, std::uint64_t seed)
{
    // Ground truth: degradation grows with stalls and occupancy.
    Rng rng(seed);
    std::vector<TrainingSample> corpus;
    corpus.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        TrainingSample s;
        const double stalls = rng.uniform(0.0, 2e6);
        const double occ = rng.uniform(0.0, 20.0);
        s.counters[soc::Counter::LlcStalls] = stalls;
        s.counters[soc::Counter::LlcOccupancyTracer] = occ;
        s.counters[soc::Counter::GfxLlcMisses] = rng.uniform(0, 1e4);
        s.counters[soc::Counter::IoRpq] = rng.uniform(0.0, 1.0);
        s.normPerf = 1.0 - (stalls / 2e6) * 0.12 - (occ / 20.0) * 0.05;
        corpus.push_back(s);
    }
    return corpus;
}

TEST(Trainer, ThresholdsAreMuPlusSigmaOfSafeRuns)
{
    const auto corpus = syntheticCorpus(500, 3);
    const Thresholds thr = ThresholdTrainer::train(corpus, 0.01);

    // Recompute mu+sigma by hand for the stalls counter over safe
    // runs and confirm the trained value is at or below it (the
    // zero-FP pass can only lower thresholds).
    double sum = 0.0, sumsq = 0.0;
    std::size_t safe = 0;
    const std::size_t idx =
        soc::counterIndex(soc::Counter::LlcStalls);
    for (const auto &s : corpus) {
        if (s.normPerf < 0.99)
            continue;
        ++safe;
        sum += s.counters.values[idx];
        sumsq += s.counters.values[idx] * s.counters.values[idx];
    }
    const double mu = sum / safe;
    const double sigma = std::sqrt(sumsq / safe - mu * mu);
    EXPECT_LE(thr.counter[idx], mu + sigma + 1e-6);
    EXPECT_GT(thr.counter[idx], 0.0);
}

TEST(Trainer, ZeroFalsePositivesByConstruction)
{
    // Paper Sec. 4.2: "The prediction algorithm has no false
    // positive predictions."
    const auto corpus = syntheticCorpus(800, 11);
    const Thresholds thr = ThresholdTrainer::train(corpus, 0.01);
    const DemandPredictor pred(thr, {});
    const PredictionStats stats =
        ThresholdTrainer::evaluate(pred, corpus, 0.01);
    EXPECT_EQ(stats.falsePositives, 0u);
    EXPECT_GT(stats.accuracy, 0.5);
}

TEST(Trainer, LinearFitRecoversPlantedModel)
{
    // normPerf is linear in the counters by construction, so the
    // least-squares fit must correlate almost perfectly.
    const auto corpus = syntheticCorpus(600, 17);
    const LinearImpactModel model =
        ThresholdTrainer::fitLinear(corpus);
    const DemandPredictor pred({}, model);
    const PredictionStats stats =
        ThresholdTrainer::evaluate(pred, corpus, 0.01);
    EXPECT_GT(stats.correlation, 0.98);
}

TEST(Trainer, CorrelationHelper)
{
    EXPECT_NEAR(ThresholdTrainer::correlation({1, 2, 3}, {2, 4, 6}),
                1.0, 1e-12);
    EXPECT_NEAR(ThresholdTrainer::correlation({1, 2, 3}, {3, 2, 1}),
                -1.0, 1e-12);
}

class FlowTest : public ::testing::Test
{
  protected:
    FlowTest() : sim_(), chip_(sim_, soc::skylakeConfig()) {}

    Simulator sim_;
    soc::Soc chip_;
};

TEST_F(FlowTest, SysScaleFlowUnderTenMicroseconds)
{
    // Paper Sec. 5: "The actual latency of SysScale flow is less
    // than 10us."
    TransitionFlow flow(chip_);
    const FlowReport report =
        flow.execute(chip_.opPoints().low());
    EXPECT_TRUE(report.executed);
    EXPECT_FALSE(report.increased);
    EXPECT_LT(report.totalLatency, 10 * kTicksPerUs);
    EXPECT_EQ(chip_.currentOpPoint().dramBin, 1u);
}

TEST_F(FlowTest, NineStepsAllAccounted)
{
    TransitionFlow flow(chip_);
    const FlowReport report = flow.execute(chip_.opPoints().low());
    Tick sum = 0;
    for (const FlowStep &s : report.steps) {
        EXPECT_NE(s.name[0], '\0');
        sum += s.latency;
    }
    EXPECT_EQ(sum, report.totalLatency);
    // Decreasing transition: voltages ramp in step 7, not step 2.
    EXPECT_EQ(report.steps[1].latency, 0u);
    EXPECT_GT(report.steps[6].latency, 0u);
}

TEST_F(FlowTest, IncreaseRampsVoltagesFirst)
{
    TransitionFlow flow(chip_);
    flow.execute(chip_.opPoints().low());
    sim_.run(kTicksPerMs); // let the downward ramp complete
    const FlowReport up = flow.execute(chip_.opPoints().high());
    EXPECT_TRUE(up.increased);
    EXPECT_GT(up.steps[1].latency, 0u);
    EXPECT_EQ(up.steps[6].latency, 0u);
}

TEST_F(FlowTest, AppliesVoltagesAndClocks)
{
    TransitionFlow flow(chip_);
    const soc::OperatingPoint &low = chip_.opPoints().low();
    flow.execute(low);
    EXPECT_DOUBLE_EQ(chip_.mc().vsa(), low.vSa);
    EXPECT_DOUBLE_EQ(chip_.fabric().vsa(), low.vSa);
    EXPECT_DOUBLE_EQ(chip_.mc().ddrio().vio(), low.vIo);
    EXPECT_DOUBLE_EQ(chip_.fabric().frequency(), low.fabricFreq);
    EXPECT_EQ(chip_.dram().binIndex(), low.dramBin);
}

TEST_F(FlowTest, NoOpWhenAlreadyAtTarget)
{
    TransitionFlow flow(chip_);
    const FlowReport report = flow.execute(chip_.opPoints().high());
    EXPECT_FALSE(report.executed);
    EXPECT_EQ(report.totalLatency, 0u);
    EXPECT_EQ(chip_.transitionCount(), 0u);
}

TEST_F(FlowTest, LegacyFlowWithoutSramIsSlower)
{
    // Without the SRAM-cached MRC images a transition pays firmware
    // recomputation plus a full interface retrain.
    FlowOptions legacy;
    legacy.scaleFabric = false;
    legacy.scaleVsa = false;
    legacy.scaleVio = false;
    legacy.useOptimizedMrc = false;
    legacy.sramMrc = false;
    TransitionFlow flow(chip_, legacy);

    soc::OperatingPoint target = chip_.opPoints().low();
    target.mrcTrainedBin = 0;
    const FlowReport report = flow.execute(target);
    EXPECT_GT(report.totalLatency, 50 * kTicksPerUs);
    // Fabric stayed at the boot clock.
    EXPECT_DOUBLE_EQ(chip_.fabric().frequency(),
                     chip_.opPoints().high().fabricFreq);
    // The applied registers carry the Fig. 4 penalties.
    EXPECT_FALSE(chip_.mc().registers().optimized());
}

TEST_F(FlowTest, VsaWithoutFabricScalingIsRejected)
{
    FlowOptions bad;
    bad.scaleFabric = false;
    bad.scaleVsa = true;
    EXPECT_DEATH(TransitionFlow(chip_, bad), "");
}

TEST(Governors, NamesAndFirmwareBudgets)
{
    FixedGovernor fixed;
    SysScaleGovernor sysscale;
    MemScaleGovernor memscale(true);
    CoScaleGovernor coscale(true);

    EXPECT_STREQ(fixed.name(), "baseline");
    EXPECT_STREQ(sysscale.name(), "sysscale");
    EXPECT_STREQ(memscale.name(), "memscale-r");
    EXPECT_STREQ(coscale.name(), "coscale-r");

    // Paper Sec. 5: SysScale firmware is ~0.6KB, within the budget.
    EXPECT_LE(sysscale.firmwareBytes(),
              soc::Pmu::kFirmwareBudgetBytes);
}

TEST(Governors, SysScaleDerivesStaticGateFromLowPoint)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    SysScaleGovernor gov;
    chip.pmu().setGovernor(&gov);
    const BytesPerSec low_cap =
        chip.config().dramSpec.peakBandwidth(1) * 0.90;
    EXPECT_NEAR(gov.predictor().thresholds().staticBw,
                low_cap * SysScaleGovernor::kStaticMargin, 1e6);
}

TEST(Governors, SysScaleMovesLowWhenQuietAndHighUnderPressure)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    SysScaleGovernor gov;
    chip.pmu().setGovernor(&gov);

    soc::CounterSnapshot quiet;
    gov.decide(chip.pmu().driver(), chip, quiet);
    EXPECT_EQ(chip.currentOpPoint().dramBin, 1u);
    EXPECT_EQ(chip.pmu().driver().flowRuns(), 1u);
    EXPECT_LT(chip.pmu().driver().lastFlowLatency(), 10 * kTicksPerUs);

    soc::CounterSnapshot pressure;
    pressure[soc::Counter::LlcStalls] = 5e6;
    gov.decide(chip.pmu().driver(), chip, pressure);
    EXPECT_EQ(chip.currentOpPoint().dramBin, 0u);
    EXPECT_TRUE(gov.lastConditions().memLatency);
}

TEST(Governors, StaticDemandHoldsHighPoint)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    // Two 4K panels exceed what the low point can guarantee.
    chip.display().attachPanel(0, io::PanelConfig{
        io::PanelResolution::UHD4K, 60.0, 4});
    chip.display().attachPanel(1, io::PanelConfig{
        io::PanelResolution::UHD4K, 60.0, 4});

    SysScaleGovernor gov;
    chip.pmu().setGovernor(&gov);
    soc::CounterSnapshot quiet;
    gov.decide(chip.pmu().driver(), chip, quiet);
    EXPECT_EQ(chip.currentOpPoint().dramBin, 0u);
    EXPECT_TRUE(gov.lastConditions().staticBw);
}

TEST(Governors, RedistributionGrowsComputeBudget)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    SysScaleGovernor gov;
    chip.pmu().setGovernor(&gov);
    const Watt high_budget = chip.computeBudget();

    soc::CounterSnapshot quiet;
    gov.decide(chip.pmu().driver(), chip, quiet); // moves low
    EXPECT_GT(chip.computeBudget(), high_budget + 0.2);
}

TEST(Governors, PureMemScaleDoesNotRedistribute)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    MemScaleGovernor gov(/*redistribute=*/false);
    chip.pmu().setGovernor(&gov);
    const Watt before = chip.computeBudget();

    soc::CounterSnapshot quiet;
    gov.decide(chip.pmu().driver(), chip, quiet); // scales memory down
    EXPECT_EQ(chip.currentOpPoint().dramBin, 1u);
    EXPECT_NEAR(chip.computeBudget(), before, 1e-9);
}

TEST(Governors, MemScaleLeavesFabricAndVoltagesAlone)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    MemScaleGovernor gov(true);
    chip.pmu().setGovernor(&gov);

    soc::CounterSnapshot quiet;
    gov.decide(chip.pmu().driver(), chip, quiet);
    EXPECT_EQ(chip.currentOpPoint().dramBin, 1u);
    EXPECT_DOUBLE_EQ(chip.fabric().frequency(),
                     chip.config().fabricFreqHigh);
    EXPECT_DOUBLE_EQ(chip.mc().vsa(), chip.config().vSaBoot);
    EXPECT_DOUBLE_EQ(chip.mc().ddrio().vio(), chip.config().vIoBoot);
    EXPECT_FALSE(chip.mc().registers().optimized());
}

TEST(Governors, CoScaleCapsCoresWhenHeavilyBound)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    CoScaleGovernor gov(true);
    chip.pmu().setGovernor(&gov);

    soc::CounterSnapshot bound;
    bound[soc::Counter::LlcStalls] = 5e6;
    gov.decide(chip.pmu().driver(), chip, bound);
    EXPECT_GT(chip.coreFreqCap(), 0.0);
    EXPECT_LT(chip.coreFreqCap(), chip.cpu().pstates().max().freq);

    soc::CounterSnapshot quiet;
    gov.decide(chip.pmu().driver(), chip, quiet);
    EXPECT_DOUBLE_EQ(chip.coreFreqCap(), 0.0);
}

} // namespace
} // namespace core
} // namespace sysscale
