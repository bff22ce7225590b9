/**
 * @file
 * The governor zoo: registry round-trips, the policy/driver split's
 * transition notifiers, per-install accounting, and the
 * differential check that re-homing the paper's governors onto the
 * driver layer changed no simulation output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/governor.hh"
#include "core/governor_driver.hh"
#include "core/governor_registry.hh"
#include "core/governor_zoo.hh"
#include "core/governors.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/spec_codec.hh"
#include "io/display.hh"
#include "sim/sim_object.hh"
#include "soc/pmu.hh"
#include "soc/soc.hh"
#include "workloads/battery.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

#include "tests/golden_governor_refactor.inc"

using namespace sysscale;

namespace {

/** Representative valid parameters for every parameterized governor
 *  (empty for the parameterless ones). */
core::GovernorParams
sampleParams(const std::string &name)
{
    if (name == "ondemand")
        return {{"up", "0.75"}, {"stall-gate", "2e6"}};
    if (name == "conservative")
        return {{"up", "0.60"}, {"down", "0.25"}};
    if (name == "userspace")
        return {{"at", "0@0"}, {"at", "60@1"}};
    if (name == "latency-budget")
        return {{"budget-us", "25"}, {"burst", "3"}};
    if (name == "adaptive")
        return {{"margin", "0.8"}, {"bound", "0.03"},
                {"min-samples", "4"}};
    return {};
}

/** A small-but-real cell for smoke-running a governor. */
exp::ExperimentSpec
smokeSpec(const std::string &gov, const core::GovernorParams &params)
{
    exp::ExperimentSpec spec;
    spec.id = "zoo/" + gov;
    spec.workload = workloads::pointerChaseMicro();
    spec.governor = gov;
    spec.governorParams = params;
    spec.warmup = 5 * kTicksPerMs;
    spec.window = 120 * kTicksPerMs;
    return spec;
}

} // namespace

// ------------------------------------------------------------------
// Registry
// ------------------------------------------------------------------

TEST(GovernorRegistry, ExposesTheWholeZoo)
{
    const auto names = core::governorNames();
    for (const char *expect :
         {"fixed", "sysscale", "memscale", "memscale-r", "coscale",
          "coscale-r", "ondemand", "conservative", "userspace",
          "latency-budget", "adaptive"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect << " missing from the registry";
    }
    EXPECT_GE(names.size(), 7u);
}

TEST(GovernorRegistry, EveryEntryConstructsDecidesAndSerializes)
{
    for (const core::GovernorEntry &entry : core::governorRegistry()) {
        SCOPED_TRACE(entry.name);
        const core::GovernorParams params = sampleParams(entry.name);

        // Constructs, with a meaningful identity and a firmware
        // footprint inside the PMU budget (Sec. 5).
        auto gov = core::makeGovernor(entry.name, params);
        ASSERT_NE(gov, nullptr);
        EXPECT_FALSE(std::string(gov->name()).empty());
        EXPECT_LE(gov->firmwareBytes(),
                  soc::Pmu::kFirmwareBudgetBytes);
        EXPECT_FALSE(entry.summary.empty());

        // Serializes through spec codec v5 and round-trips,
        // parameters included, in order.
        exp::ExperimentSpec spec = smokeSpec(entry.name, params);
        const exp::ExperimentSpec back =
            exp::parseSpec(exp::serializeSpec(spec));
        EXPECT_EQ(back, spec);
        EXPECT_EQ(back.governorParams, spec.governorParams);

        // Decides: the full cell path runs clean.
        const exp::RunResult res = exp::runCell(spec);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_GT(res.metrics.energy, 0.0);
    }
}

TEST(GovernorRegistry, UnknownNameEnumeratesTheRegistry)
{
    try {
        (void)core::makeGovernor("schedutil");
        FAIL() << "unknown governor accepted";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        // The error is the discovery surface: every registered name
        // must be in it.
        for (const std::string &name : core::governorNames())
            EXPECT_NE(msg.find(name), std::string::npos)
                << name << " missing from: " << msg;
    }
}

TEST(GovernorRegistry, BadParametersFailAtConstruction)
{
    EXPECT_THROW((void)core::makeGovernor("fixed", {{"up", "0.5"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("ondemand", {{"frob", "1"}}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("ondemand", {{"up", "not-a-num"}}),
        std::invalid_argument);
    EXPECT_THROW((void)core::makeGovernor(
                     "conservative", {{"up", "0.3"}, {"down", "0.6"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("userspace", {{"at", "60"}}),
        std::invalid_argument);
    EXPECT_THROW((void)core::makeGovernor(
                     "userspace", {{"at", "60@1"}, {"at", "10@0"}}),
                 std::invalid_argument);
    EXPECT_THROW((void)core::makeGovernor("latency-budget",
                                          {{"budget-us", "-3"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)core::makeGovernor("adaptive", {{"margin", "1.5"}}),
        std::invalid_argument);
}

// ------------------------------------------------------------------
// Driver layer: transition notifiers
// ------------------------------------------------------------------

TEST(GovernorDriver, PreFiresBeforeApplyAndPostAfter)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::GovernorDriver drv(chip, core::FlowOptions{},
                             /*redistribute=*/true);

    std::vector<std::string> order;
    drv.subscribePre([&](const core::TransitionRecord &rec) {
        order.push_back("pre");
        // Pre observes the intent: the hardware has not moved yet
        // and the outcome fields are still blank.
        EXPECT_TRUE(chip.currentOpPoint() == rec.from);
        EXPECT_EQ(rec.latency, 0u);
        EXPECT_FALSE(rec.executed);
    });
    drv.subscribePost([&](const core::TransitionRecord &rec) {
        order.push_back("post");
        // Post observes the outcome: the flow applied.
        EXPECT_TRUE(chip.currentOpPoint() == rec.to);
        EXPECT_TRUE(rec.executed);
        EXPECT_GT(rec.latency, 0u);
    });

    ASSERT_TRUE(chip.currentOpPoint() == chip.opPoints().high());
    EXPECT_TRUE(drv.requestOpPoint(chip.opPoints().low()));
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "pre");
    EXPECT_EQ(order[1], "post");

    // A same-point request is not a transition: nobody is notified.
    order.clear();
    EXPECT_TRUE(drv.requestOpPoint(chip.opPoints().low()));
    EXPECT_TRUE(order.empty());
}

TEST(GovernorDriver, NotifiersRunInSubscriptionOrder)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::GovernorDriver drv(chip, core::FlowOptions{}, true);

    std::vector<int> order;
    drv.subscribePre([&](const core::TransitionRecord &) {
        order.push_back(1);
    });
    drv.subscribePre([&](const core::TransitionRecord &) {
        order.push_back(2);
    });
    drv.subscribePost([&](const core::TransitionRecord &) {
        order.push_back(3);
    });
    drv.subscribePost([&](const core::TransitionRecord &) {
        order.push_back(4);
    });

    EXPECT_TRUE(drv.requestOpPoint(chip.opPoints().low()));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(GovernorDriver, LatencyConstraintDeniesSlowFlows)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::GovernorDriver drv(chip, core::FlowOptions{}, true);

    const soc::OperatingPoint &low = chip.opPoints().low();
    const Tick est = drv.estimateTransitionLatency(low);
    ASSERT_GT(est, 0u);

    bool notified = false;
    drv.subscribePre(
        [&](const core::TransitionRecord &) { notified = true; });

    // A limit below the estimate denies the flow before any notifier
    // fires or the hardware moves.
    drv.setTransitionLatencyLimit(est - 1);
    EXPECT_FALSE(drv.requestOpPoint(low));
    EXPECT_EQ(drv.deniedRequests(), 1u);
    EXPECT_FALSE(notified);
    EXPECT_TRUE(chip.currentOpPoint() == chip.opPoints().high());

    // At (or above) the estimate the same request goes through.
    drv.setTransitionLatencyLimit(est);
    EXPECT_TRUE(drv.requestOpPoint(low));
    EXPECT_TRUE(chip.currentOpPoint() == low);
    EXPECT_EQ(drv.flowRuns(), 1u);
}

TEST(PmuGovernor, DriverAccountsTransitions)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::SysScaleGovernor gov;
    chip.pmu().setGovernor(&gov);

    soc::CounterSnapshot quiet;
    core::GovernorDriver &drv = chip.pmu().driver();
    gov.decide(drv, chip, quiet); // high -> low
    soc::CounterSnapshot pressure;
    pressure[soc::Counter::LlcStalls] = 5e6;
    gov.decide(drv, chip, pressure); // low -> high
    gov.decide(drv, chip, pressure); // already high: no transition

    const core::TransitionStats &stats = drv.transitionStats();
    EXPECT_EQ(stats.requested, 2u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.decreases, 1u);
    EXPECT_EQ(stats.increases, 1u);
    EXPECT_GT(stats.totalLatency, 0u);
    EXPECT_GE(stats.totalLatency, stats.maxLatency);
}

TEST(PmuGovernor, ReinstallRebuildsDriverAndStats)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::SysScaleGovernor gov;
    chip.pmu().setGovernor(&gov);

    soc::CounterSnapshot quiet;
    gov.decide(chip.pmu().driver(), chip, quiet);
    EXPECT_EQ(chip.pmu().driver().transitionStats().executed, 1u);
    const core::GovernorDriver *first = &chip.pmu().driver();

    // A second installation starts from clean mechanics: fresh
    // driver, zeroed accounting.
    chip.pmu().setGovernor(&gov);
    EXPECT_NE(&chip.pmu().driver(), first);
    EXPECT_EQ(chip.pmu().driver().transitionStats().executed, 0u);
    EXPECT_EQ(chip.pmu().driver().flowRuns(), 0u);
}

// ------------------------------------------------------------------
// Online-adaptive governor
// ------------------------------------------------------------------

TEST(OnlineAdaptive, LearnsDuringTheRunAndStartsFresh)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    chip.display().attachPanel(0, io::kDefaultHdPanel);
    workloads::ProfileAgent agent(workloads::pointerChaseMicro());
    chip.setWorkload(&agent);
    core::OnlineAdaptiveGovernor gov(
        core::GovernorParams{{"min-samples", "2"}});
    chip.pmu().setGovernor(&gov);
    chip.run(405 * kTicksPerMs);

    // The run produced learning: windows observed safe fed the
    // mu+sigma estimate.
    EXPECT_GT(gov.safeSamples(), 0u);

    // A registry-built instance is fresh — nothing learned leaks
    // through the factory path.
    auto fresh = core::makeGovernor("adaptive");
    auto *fresh_adaptive =
        dynamic_cast<core::OnlineAdaptiveGovernor *>(fresh.get());
    ASSERT_NE(fresh_adaptive, nullptr);
    EXPECT_EQ(fresh_adaptive->safeSamples(), 0u);
    EXPECT_EQ(fresh_adaptive->clamps(), 0u);
}

TEST(OnlineAdaptive, ThresholdFloorHoldsUnderQuietCorpus)
{
    Simulator sim;
    soc::Soc chip(sim, soc::skylakeConfig());
    core::OnlineAdaptiveGovernor gov(
        core::GovernorParams{{"min-samples", "1"}});
    chip.pmu().setGovernor(&gov);

    // An all-quiet stream must not collapse thresholds to zero (that
    // would pin the SoC high forever through the hysteresis scale).
    soc::CounterSnapshot quiet;
    for (int i = 0; i < 32; ++i)
        gov.decide(chip.pmu().driver(), chip, quiet);

    const core::Thresholds defaults =
        core::SysScaleGovernor::defaultThresholds();
    for (std::size_t i = 0; i < soc::kNumCounters; ++i) {
        EXPECT_GE(gov.thresholds().counter[i],
                  defaults.counter[i] *
                      core::OnlineAdaptiveGovernor::kFloorShare);
    }
}

// ------------------------------------------------------------------
// Differential: the refactor changed no simulation output
// ------------------------------------------------------------------

/**
 * The exact fig7-class and fig9-class cells whose pre-refactor CSV
 * rows are baked into tests/golden_governor_refactor.inc. Keep this
 * list in sync with the baking recipe documented there.
 */
TEST(GovernorRefactor, SysScaleByteIdenticalToPreRefactorGoldens)
{
    std::vector<exp::ExperimentSpec> specs;
    const std::vector<std::string> governors = {
        "fixed", "memscale-r", "coscale-r", "sysscale"};

    for (const char *name : {"416.gamess", "470.lbm"}) {
        const auto w = workloads::specBenchmark(name);
        for (const auto &gov : governors) {
            exp::ExperimentSpec spec;
            spec.soc = soc::skylakeConfig(4.5);
            spec.workload = w;
            spec.window =
                std::max<Tick>(2 * kTicksPerSec, 2 * w.period());
            spec.governor = gov;
            spec.id = w.name() + "/" + gov;
            spec.labels = {{"workload", w.name()},
                           {"governor", gov}};
            specs.push_back(std::move(spec));
        }
    }
    for (const auto &w : workloads::batterySuite()) {
        if (w.name() != "web-browsing" &&
            w.name() != "video-playback")
            continue;
        for (const auto &gov : governors) {
            exp::ExperimentSpec spec;
            spec.soc = soc::skylakeConfig(4.5);
            spec.workload = w;
            spec.window = 3 * kTicksPerSec;
            spec.governor = gov;
            spec.id = w.name() + "/" + gov;
            spec.labels = {{"workload", w.name()},
                           {"governor", gov}};
            specs.push_back(std::move(spec));
        }
    }

    std::string csv = "\n" + exp::csvHeader() + "\n";
    for (const auto &spec : specs) {
        exp::RunResult res = exp::runCell(spec);
        ASSERT_TRUE(res.ok) << res.id << ": " << res.error;
        res.hostSeconds = 0.0; // wall clock: not deterministic
        csv += exp::csvRow(res) + "\n";
    }

    EXPECT_EQ(csv, std::string(kPreRefactorGoldenCsv))
        << "re-homing the paper's governors onto the driver layer "
           "must not change any simulation output";
}
