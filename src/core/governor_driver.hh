/**
 * @file
 * The governor driver layer (CPUFreq-style split, mechanics half).
 *
 * The driver is the only component that applies operating-point
 * grants to the SoC. It owns the Fig. 5 TransitionFlow, recomputes
 * the compute-domain power budget after every request, enforces an
 * optional transition-latency constraint, counts the transitions it
 * runs, and publishes pre/post transition notifiers so observers can
 * follow transitions without touching mechanics.
 *
 * Policies (core/governor.hh implementations) must route every SoC
 * mutation through this class; the repo-invariant linter's
 * governor-driver-only check rejects direct Soc mutator calls from
 * policy files.
 */

#ifndef SYSSCALE_CORE_GOVERNOR_DRIVER_HH
#define SYSSCALE_CORE_GOVERNOR_DRIVER_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/governor.hh"
#include "core/transition_flow.hh"
#include "soc/soc.hh"

namespace sysscale {
namespace core {

/** Per-install transition accounting, counted by the driver. */
struct TransitionStats
{
    std::uint64_t requested = 0; //!< Changing requests not denied.
    std::uint64_t executed = 0;  //!< Flows that actually ran.
    std::uint64_t increases = 0; //!< Executed upward transitions.
    std::uint64_t decreases = 0; //!< Executed downward transitions.
    Tick totalLatency = 0;       //!< Sum of executed flow latencies.
    Tick maxLatency = 0;         //!< Slowest executed flow.
};

/**
 * Mechanics layer: applies policy decisions to one SoC.
 */
class GovernorDriver
{
  public:
    using TransitionCallback =
        std::function<void(const TransitionRecord &)>;

    GovernorDriver(soc::Soc &soc, FlowOptions opts,
                   bool redistribute);

    /** @name Transition notifiers.
     *
     * Pre callbacks fire before the flow touches the hardware (the
     * record carries the intent; latency fields are zero); post
     * callbacks fire after the flow applied, with the outcome.
     * Same-point requests notify nobody. Callbacks run in
     * subscription order on the requesting thread.
     * @{ */
    void subscribePre(TransitionCallback cb);
    void subscribePost(TransitionCallback cb);
    /** @} */

    /**
     * Apply @p target: run the transition flow (a no-op if already
     * there) and recompute the compute budget. Returns false when
     * the transition-latency constraint denied the request (budgets
     * are still refreshed so the billing cadence never skips).
     */
    bool requestOpPoint(const soc::OperatingPoint &target);

    /** Recompute the compute-domain budget without transitioning. */
    void refreshBudget();

    /** Cap the CPU core clock (0 = uncapped). Mechanics passthrough
     *  so policies never call Soc mutators directly. */
    void setCoreFreqCap(Hertz cap);

    /** @name Transition-latency constraint.
     *
     * With a non-zero limit, requestOpPoint() denies any transition
     * whose estimated flow latency exceeds it (the estimate is
     * TransitionFlow::estimate(): fixed step costs + voltage ramp +
     * MRC path, excluding traffic-dependent drain). 0 disables the
     * constraint.
     * @{ */
    void setTransitionLatencyLimit(Tick limit) { latencyLimit_ = limit; }
    Tick transitionLatencyLimit() const { return latencyLimit_; }
    Tick estimateTransitionLatency(
        const soc::OperatingPoint &target) const;
    /** @} */

    bool redistributes() const { return redistribute_; }
    const FlowOptions &flowOptions() const { return opts_; }

    /** @name Transition accounting (diagnostics). @{ */
    std::uint64_t flowRuns() const { return flowRuns_; }
    Tick lastFlowLatency() const { return lastFlowLatency_; }
    Tick totalFlowLatency() const { return totalFlowLatency_; }
    std::uint64_t deniedRequests() const { return denied_; }
    const TransitionStats &transitionStats() const { return stats_; }
    void restoreTransitionStats(const TransitionStats &s) { stats_ = s; }
    /** @} */

    /** @name Snapshot support: the latency constraint + accounting
     *  (the flow itself is synchronous and holds no cross-eval
     *  state). @{ */
    void saveState(SnapshotWriter &w) const;
    void loadState(SnapshotReader &r);
    /** @} */

  private:
    soc::Soc &soc_;
    FlowOptions opts_;
    bool redistribute_;
    TransitionFlow flow_;

    std::vector<TransitionCallback> pre_;
    std::vector<TransitionCallback> post_;

    Tick latencyLimit_ = 0;
    std::uint64_t flowRuns_ = 0;
    Tick lastFlowLatency_ = 0;
    Tick totalFlowLatency_ = 0;
    std::uint64_t denied_ = 0;
    TransitionStats stats_;
};

} // namespace core
} // namespace sysscale

#endif // SYSSCALE_CORE_GOVERNOR_DRIVER_HH
