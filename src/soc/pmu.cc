#include "soc/pmu.hh"

#include <string>

#include "core/governor_driver.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "soc/soc.hh"

namespace sysscale {
namespace soc {

Pmu::Pmu(Simulator &sim, Soc &soc, PerfCounterBlock &counters,
         Tick sample_interval, Tick evaluation_interval)
    : SimObject(sim, &soc, "pmu"), soc_(soc), counters_(counters),
      sampleInterval_(sample_interval),
      evalInterval_(evaluation_interval),
      sampleEvent_("pmu.sample", [this] { onSample(); },
                   Event::kPrioStatsSample),
      evalEvent_("pmu.evaluate", [this] { onEvaluate(); },
                 Event::kPrioStatsSample),
      samplesTaken_(this, "samples", "counter samples taken"),
      evaluations_(this, "evaluations", "policy evaluations run")
{
    if (sample_interval == 0 || evaluation_interval == 0)
        SYSSCALE_FATAL("Pmu: zero cadence interval");
    if (evaluation_interval % sample_interval != 0)
        SYSSCALE_FATAL("Pmu: evaluation interval not a multiple of "
                       "the sample interval");
}

Pmu::~Pmu()
{
    if (sampleEvent_.scheduled())
        eventq().deschedule(&sampleEvent_);
    if (evalEvent_.scheduled())
        eventq().deschedule(&evalEvent_);
}

void
Pmu::setGovernor(core::Governor *gov)
{
    gov_ = gov;
    sum_ = CounterSnapshot{};
    windows_ = 0;
    counters_.clearWindow();
    if (!gov_) {
        driver_.reset();
        return;
    }
    if (gov_->firmwareBytes() > kFirmwareBudgetBytes) {
        SYSSCALE_FATAL(
            "policy '%s' needs %zu firmware bytes, budget is %zu",
            gov_->name(), gov_->firmwareBytes(), kFirmwareBudgetBytes);
    }
    gov_->markInstalled();
    driver_ = std::make_unique<core::GovernorDriver>(
        soc_, gov_->flowOptions(), gov_->redistributes());
    gov_->init(*driver_, soc_);
    driver_->refreshBudget();
}

core::GovernorDriver &
Pmu::driver()
{
    SYSSCALE_ASSERT(driver_ != nullptr, "PMU has no governor installed");
    return *driver_;
}

CounterSnapshot
Pmu::counterAverage() const
{
    CounterSnapshot out;
    if (windows_ == 0)
        return out;
    for (std::size_t i = 0; i < kNumCounters; ++i)
        out.values[i] = sum_.values[i] / static_cast<double>(windows_);
    return out;
}

void
Pmu::savePolicyState(SnapshotWriter &w) const
{
    if (!gov_) {
        for (std::size_t i = 0; i < kNumCounters; ++i)
            w.putDouble("sum" + std::to_string(i), sum_.values[i]);
        w.putU64("windows", windows_);
        return;
    }
    const core::TransitionStats &stats = driver_->transitionStats();
    w.putU64("requested", stats.requested);
    w.putU64("executed", stats.executed);
    w.putU64("increases", stats.increases);
    w.putU64("decreases", stats.decreases);
    w.putU64("total_latency", stats.totalLatency);
    w.putU64("max_latency", stats.maxLatency);
    w.push("driver");
    driver_->saveState(w);
    w.pop();
    w.push("gov");
    gov_->saveState(w);
    w.pop();
}

void
Pmu::loadPolicyState(SnapshotReader &r)
{
    if (!gov_) {
        for (std::size_t i = 0; i < kNumCounters; ++i)
            sum_.values[i] = r.getDouble("sum" + std::to_string(i));
        windows_ = r.getU64("windows");
        return;
    }
    core::TransitionStats stats;
    stats.requested = r.getU64("requested");
    stats.executed = r.getU64("executed");
    stats.increases = r.getU64("increases");
    stats.decreases = r.getU64("decreases");
    stats.totalLatency = r.getU64("total_latency");
    stats.maxLatency = r.getU64("max_latency");
    driver_->restoreTransitionStats(stats);
    r.push("driver");
    driver_->loadState(r);
    r.pop();
    r.push("gov");
    gov_->loadState(r);
    r.pop();
}

void
Pmu::startup()
{
    eventq().schedule(&sampleEvent_, now() + sampleInterval_);
    eventq().schedule(&evalEvent_, now() + evalInterval_);
}

void
Pmu::onSample()
{
    counters_.sample();
    ++samplesTaken_;
    eventq().schedule(&sampleEvent_, now() + sampleInterval_);
}

void
Pmu::onEvaluate()
{
    const CounterSnapshot avg = counters_.windowAverage();
    if (gov_) {
        gov_->decide(*driver_, soc_, avg);
    } else {
        for (std::size_t i = 0; i < kNumCounters; ++i)
            sum_.values[i] += avg.values[i];
        ++windows_;
    }
    ++evaluations_;
    counters_.clearWindow();
    eventq().schedule(&evalEvent_, now() + evalInterval_);
}

} // namespace soc
} // namespace sysscale
