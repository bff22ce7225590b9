#include "core/governor_driver.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace core {

GovernorDriver::GovernorDriver(soc::Soc &soc, FlowOptions opts,
                               bool redistribute)
    : soc_(soc), opts_(opts), redistribute_(redistribute),
      flow_(soc, opts)
{
}

void
GovernorDriver::subscribePre(TransitionCallback cb)
{
    pre_.push_back(std::move(cb));
}

void
GovernorDriver::subscribePost(TransitionCallback cb)
{
    post_.push_back(std::move(cb));
}

Tick
GovernorDriver::estimateTransitionLatency(
    const soc::OperatingPoint &target) const
{
    return flow_.estimate(target);
}

bool
GovernorDriver::requestOpPoint(const soc::OperatingPoint &target)
{
    const soc::OperatingPoint from = soc_.currentOpPoint();
    const bool changes = !(from == target);

    if (changes && latencyLimit_ != 0 &&
        flow_.estimate(target) > latencyLimit_) {
        ++denied_;
        TRACE_INSTANT(soc_.traceSink(), obs::kCatGovernor, "denied",
                      soc_.now(),
                      obs::kv("target", target.name) + "," +
                          obs::kv("estimate_ns",
                                  nsFromTicks(flow_.estimate(target))) +
                          "," +
                          obs::kv("limit_ns",
                                  nsFromTicks(latencyLimit_)));
        debugLog("governor: denied %s (estimate above budget)",
                 target.name.c_str());
        refreshBudget();
        return false;
    }

    TransitionRecord rec;
    rec.from = from;
    rec.to = target;
    if (changes) {
        ++stats_.requested;
        for (const TransitionCallback &cb : pre_)
            cb(rec);
    }

    const FlowReport report = flow_.execute(target);
    if (report.executed) {
        ++flowRuns_;
        lastFlowLatency_ = report.totalLatency;
        totalFlowLatency_ += report.totalLatency;
    }

    rec.latency = report.totalLatency;
    rec.increased = report.increased;
    rec.executed = report.executed;
    if (changes) {
        if (report.executed) {
            ++stats_.executed;
            if (report.increased)
                ++stats_.increases;
            else
                ++stats_.decreases;
            stats_.totalLatency += report.totalLatency;
            stats_.maxLatency =
                std::max(stats_.maxLatency, report.totalLatency);
        }
        for (const TransitionCallback &cb : post_)
            cb(rec);
    }
    if (report.executed) {
        TRACE_INSTANT(soc_.traceSink(), obs::kCatGovernor, "grant",
                      soc_.now(),
                      obs::kv("from", from.name) + "," +
                          obs::kv("to", target.name) + "," +
                          obs::kv("latency_ns",
                                  nsFromTicks(report.totalLatency)));
    }

    refreshBudget();
    return true;
}

void
GovernorDriver::refreshBudget()
{
    // Without redistribution the compute domain keeps the worst-case
    // allocation of the *high* point — saved IO/memory power is
    // simply not spent (pure MemScale/CoScale, Sec. 6).
    const soc::OperatingPoint &billing =
        redistribute_ ? soc_.currentOpPoint()
                      : soc_.opPoints().high();

    // PMU budget tables cost a trained interface; a governor running
    // unoptimized MRC (MemScale/CoScale) physically draws more than
    // it budgets, which is part of why the paper calls unoptimized
    // registers able to "negate potential benefits" (Sec. 3).
    const Watt iomem =
        soc::ioMemBudgetDemand(soc_.config(), billing, true);
    const Watt compute = soc_.pbm().computeBudget(iomem, 0.0);
    soc_.setComputeBudget(compute);
    TRACE_COUNTER(soc_.traceSink(), obs::kCatPower, "compute_budget_w",
                  soc_.now(), compute);
    TRACE_COUNTER(soc_.traceSink(), obs::kCatPower, "iomem_budget_w",
                  soc_.now(), iomem);
}

void
GovernorDriver::setCoreFreqCap(Hertz cap)
{
    soc_.setCoreFreqCap(cap);
}

void
GovernorDriver::saveState(SnapshotWriter &w) const
{
    w.putU64("latency_limit", latencyLimit_);
    w.putU64("flow_runs", flowRuns_);
    w.putU64("last_flow_latency", lastFlowLatency_);
    w.putU64("total_flow_latency", totalFlowLatency_);
    w.putU64("denied", denied_);
}

void
GovernorDriver::loadState(SnapshotReader &r)
{
    latencyLimit_ = r.getU64("latency_limit");
    flowRuns_ = r.getU64("flow_runs");
    lastFlowLatency_ = r.getU64("last_flow_latency");
    totalFlowLatency_ = r.getU64("total_flow_latency");
    denied_ = r.getU64("denied");
}

} // namespace core
} // namespace sysscale
