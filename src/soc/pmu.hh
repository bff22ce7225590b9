/**
 * @file
 * Power management unit (PMU) firmware host.
 *
 * The PMU runs the power-distribution algorithm "periodically at a
 * configurable time interval called evaluation interval (30ms by
 * default)" and "samples the performance counters and CSRs multiple
 * times in an evaluation interval (e.g., every 1ms)" (Sec. 4.3).
 * The PMU hosts the policy itself (SysScale or a baseline) as a
 * core::Governor and owns the GovernorDriver that applies its
 * decisions; it provides the cadence, the counter access, and the
 * firmware/SRAM budget accounting of Sec. 5. With no governor
 * installed it only collects the window-averaged counters.
 */

#ifndef SYSSCALE_SOC_PMU_HH
#define SYSSCALE_SOC_PMU_HH

#include <cstdint>
#include <memory>

#include "sim/sim_object.hh"
#include "soc/counters.hh"

namespace sysscale {

namespace core {
class Governor;
class GovernorDriver;
} // namespace core

namespace soc {

class Soc;

/**
 * The PMU: sampling/evaluation cadence and governor hosting.
 */
class Pmu : public SimObject
{
  public:
    Pmu(Simulator &sim, Soc &soc, PerfCounterBlock &counters,
        Tick sample_interval, Tick evaluation_interval);
    ~Pmu() override;

    /**
     * Install @p gov (not owned; nullptr = collect counters only).
     * Resets the window and the collected average, and builds one
     * fresh GovernorDriver per install so mechanics state never
     * leaks between SoCs even if the governor object is reused.
     */
    void setGovernor(core::Governor *gov);

    /** The installed governor's driver; valid after setGovernor(). */
    core::GovernorDriver &driver();

    /**
     * Mean of the window-averaged counters over every evaluation
     * run without a governor (all zero while one is installed).
     */
    CounterSnapshot counterAverage() const;

    /**
     * @name Snapshot support for the policy half: the driver's
     * transition accounting and mechanics plus the governor's own
     * state, or the collected sums when no governor is installed.
     * @{ */
    void savePolicyState(SnapshotWriter &w) const;
    void loadPolicyState(SnapshotReader &r);
    /** @} */

    /** Begin the periodic sampling/evaluation events. */
    void startup() override;

    Tick sampleInterval() const { return sampleInterval_; }
    Tick evaluationInterval() const { return evalInterval_; }

    /** Samples per evaluation window. */
    std::size_t samplesPerWindow() const
    {
        return static_cast<std::size_t>(evalInterval_ /
                                        sampleInterval_);
    }

    /** Total evaluations run. */
    std::uint64_t evaluations() const
    {
        return static_cast<std::uint64_t>(evaluations_.value());
    }

    /** Firmware SRAM budget for policy code (Sec. 5: ~0.6KB). */
    static constexpr std::size_t kFirmwareBudgetBytes = 640;

  private:
    void onSample();
    void onEvaluate();

    Soc &soc_;
    PerfCounterBlock &counters_;
    Tick sampleInterval_;
    Tick evalInterval_;
    core::Governor *gov_ = nullptr;
    std::unique_ptr<core::GovernorDriver> driver_;

    /** Collect mode: summed window averages and their count. */
    CounterSnapshot sum_;
    std::uint64_t windows_ = 0;

    EventFunctionWrapper sampleEvent_;
    EventFunctionWrapper evalEvent_;

    stats::Scalar samplesTaken_;
    stats::Scalar evaluations_;
};

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_PMU_HH
