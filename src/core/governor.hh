/**
 * @file
 * The governor policy-layer interface (CPUFreq-style split).
 *
 * Mirroring the Linux CPUFreq architecture, power-management policy
 * and mechanics live in separate layers:
 *
 *  - A Governor (this file) is pure *policy*: it looks at counters
 *    and SoC state and decides which operating point it wants. It
 *    never touches SoC mutators directly (the repo-invariant linter
 *    enforces this) — every grant goes through the driver.
 *  - The GovernorDriver (governor_driver.hh) owns *mechanics*:
 *    executing the Fig. 5 transition flow, enforcing transition-
 *    latency constraints, recomputing power budgets, counting
 *    transitions, and publishing pre/post transition notifiers.
 *  - The PMU (soc/pmu.hh) hosts one Governor at a time
 *    (Pmu::setGovernor): it builds one fresh driver per install and
 *    calls decide() every evaluation interval.
 *
 * Concrete policies register by name in governor_registry.hh; see
 * docs/ARCHITECTURE.md for the layer diagram and docs/EXPERIMENTS.md
 * for the "adding a governor" cookbook.
 */

#ifndef SYSSCALE_CORE_GOVERNOR_HH
#define SYSSCALE_CORE_GOVERNOR_HH

#include <string>
#include <utility>
#include <vector>

#include "core/transition_flow.hh"
#include "soc/soc.hh"

namespace sysscale {
namespace core {

class GovernorDriver;

/**
 * Key=value parameters a governor is constructed with. Serialized
 * through the spec codec (format v5) so parameterized governors are
 * first-class grid axes with stable cache keys.
 */
using GovernorParams =
    std::vector<std::pair<std::string, std::string>>;

/**
 * One operating-point transition, as seen by the notifier chain.
 * Pre-transition subscribers observe the intent (latency fields
 * still zero); post-transition subscribers observe the outcome.
 */
struct TransitionRecord
{
    soc::OperatingPoint from;
    soc::OperatingPoint to;

    /** Flow latency (post only; 0 in the pre notification). */
    Tick latency = 0;

    /** Frequency went up (post only). */
    bool increased = false;

    /** The flow actually ran (post only). */
    bool executed = false;
};

/**
 * Uniform policy interface: init / decide, plus snapshot state.
 */
class Governor
{
  public:
    virtual ~Governor() = default;

    /** Policy name for reports. */
    virtual const char *name() const = 0;

    /** Firmware bytes this policy adds to the PMU image (Sec. 5). */
    virtual std::size_t firmwareBytes() const { return 0; }

    /** Transition-flow feature knobs this policy runs with. */
    virtual FlowOptions flowOptions() const { return FlowOptions{}; }

    /** Whether saved IO/memory budget is redistributed to compute. */
    virtual bool redistributes() const { return true; }

    /** Called once when installed, before the first decide(). */
    virtual void
    init(GovernorDriver &drv, soc::Soc &soc)
    {
        (void)drv;
        (void)soc;
    }

    /**
     * Evaluation-interval hook: request an operating point through
     * the driver from the window-averaged counters.
     */
    virtual void decide(GovernorDriver &drv, soc::Soc &soc,
                        const soc::CounterSnapshot &avg) = 0;

    /** @name Snapshot support: stateless policies need nothing. @{ */
    virtual void saveState(SnapshotWriter &w) const { (void)w; }
    virtual void loadState(SnapshotReader &r) { (void)r; }
    /** @} */

    /**
     * True once this instance has ever been installed in a PMU.
     * Stateful policies (the adaptive governor's learned thresholds)
     * must not leak across experiment cells, so the runner asserts
     * each factory-built governor is a never-installed instance.
     */
    bool everInstalled() const { return everInstalled_; }

    /** Recorded by Pmu::setGovernor; sticky across reinstalls. */
    void markInstalled() { everInstalled_ = true; }

  private:
    bool everInstalled_ = false;
};

} // namespace core
} // namespace sysscale

#endif // SYSSCALE_CORE_GOVERNOR_HH
