/**
 * @file
 * The assembled mobile SoC (paper Fig. 1).
 *
 * Soc wires the three domains together — compute (CPU cluster,
 * graphics, LLC), IO (fabric, display, ISP, DMA), and memory (MC,
 * DDRIO, DRAM) — plus the PMU, the voltage regulators, and the
 * energy meter. The model advances in fixed interval steps: each
 * step the workload agent presents demand, the memory subsystem
 * computes achieved bandwidth and loaded latency, the compute models
 * convert service into progress, and per-rail power is integrated.
 *
 * Governors (src/core) are installed in the PMU (Pmu::setGovernor)
 * and manipulate the exposed components through the GovernorDriver
 * and its transition flow.
 */

#ifndef SYSSCALE_SOC_SOC_HH
#define SYSSCALE_SOC_SOC_HH

#include <array>
#include <memory>

#include "compute/cpu.hh"
#include "compute/cstates.hh"
#include "compute/gfx.hh"
#include "compute/llc.hh"
#include "dram/device.hh"
#include "interconnect/fabric.hh"
#include "io/csr.hh"
#include "io/display.hh"
#include "io/dma.hh"
#include "io/isp.hh"
#include "mem/controller.hh"
#include "mem/mrc.hh"
#include "power/energy_meter.hh"
#include "power/pbm.hh"
#include "power/regulator.hh"
#include "sim/sim_object.hh"
#include "soc/config.hh"
#include "soc/counters.hh"
#include "soc/op_point.hh"
#include "soc/pmu.hh"
#include "soc/workload_agent.hh"

namespace sysscale {
namespace soc {

/** Aggregate metrics over one measured run window. */
struct RunMetrics
{
    double seconds = 0.0;

    /** @name Performance. @{ */
    double instructions = 0.0;
    double ips = 0.0;          //!< Instructions per second.
    double frames = 0.0;
    double fps = 0.0;          //!< Average frame rate.
    /** @} */

    /** @name Power and energy. @{ */
    Watt avgPower = 0.0;
    Joule energy = 0.0;
    double edp = 0.0;          //!< Energy x delay over the window.
    std::array<Joule, power::kNumRails> railEnergy{};
    /** @} */

    /** @name Memory subsystem. @{ */
    double avgMemLatencyNs = 0.0;
    BytesPerSec avgMemBandwidth = 0.0;
    /** @} */

    /** @name Power management. @{ */
    Hertz avgCoreFreq = 0.0;
    std::uint64_t qosViolations = 0;
    std::uint64_t transitions = 0;
    Tick stallTicks = 0;
    double lowPointResidency = 0.0; //!< Time share below the top point.
    /** @} */
};

/**
 * A Skylake-class mobile SoC instance.
 */
class Soc : public SimObject
{
  public:
    Soc(Simulator &sim, SocConfig cfg);
    ~Soc() override;

    const SocConfig &config() const { return cfg_; }
    const OpPointTable &opPoints() const { return opPoints_; }

    /** @name Component access (flow and governor plumbing). @{ */
    dram::DramDevice &dram() { return *dram_; }
    mem::MemoryController &mc() { return *mc_; }
    const mem::MrcStore &mrc() const { return mrc_; }
    interconnect::IoFabric &fabric() { return *fabric_; }
    io::CsrSpace &csr() { return csr_; }
    io::DisplayEngine &display() { return *display_; }
    io::IspEngine &isp() { return *isp_; }
    io::DmaDevice &dma() { return *dma_; }
    compute::CpuCluster &cpu() { return *cpu_; }
    compute::GfxEngine &gfx() { return *gfx_; }
    compute::Llc &llc() { return *llc_; }
    PerfCounterBlock &counters() { return *counters_; }
    Pmu &pmu() { return *pmu_; }
    power::EnergyMeter &meter() { return meter_; }
    power::PowerBudgetManager &pbm() { return pbm_; }
    power::Regulator &vsaRegulator() { return vsaReg_; }
    power::Regulator &vioRegulator() { return vioReg_; }
    /** @} */

    /** @name Operating point bookkeeping. @{ */

    /** The IO/memory-domain point currently applied. */
    const OperatingPoint &currentOpPoint() const { return currentOp_; }

    /**
     * Record a completed transition: the flow has already programmed
     * the hardware; the Soc charges the stall and re-budgets.
     *
     * @param target Point now in effect.
     * @param flow_latency Wall time memory traffic was blocked.
     */
    void noteTransition(const OperatingPoint &target,
                        Tick flow_latency);

    /** Worst-case IO+memory power of @p op (budget arithmetic). */
    Watt ioMemBudget(const OperatingPoint &op) const;

    /** Compute-domain budget currently granted by the policy. */
    Watt computeBudget() const { return computeBudget_; }

    /** Grant the compute domain @p budget (policy hook). */
    void setComputeBudget(Watt budget);

    /**
     * Change the thermal envelope mid-run (scenario thermal
     * stepping): rebases the PBM, hardware duty cycling, and the
     * current compute grant on the new TDP.
     */
    void setTdp(Watt tdp);

    /** Cap CPU frequency (CoScale-style coordination; 0 = none). */
    void setCoreFreqCap(Hertz cap) { coreFreqCap_ = cap; }

    Hertz coreFreqCap() const { return coreFreqCap_; }
    /** @} */

    /** @name Workload and execution. @{ */

    /** Bind the running workload (not owned; may be null = idle). */
    void setWorkload(WorkloadAgent *agent) { workload_ = agent; }

    /** Whether graphics rendered in the last step. */
    bool gfxActive() const { return gfxActive_; }

    /** Static isochronous demand from the IO engines (CSR-derived). */
    BytesPerSec isoBandwidthDemand() const;

    /**
     * Run the SoC for @p duration and return metrics over exactly
     * that window. Successive calls continue the same simulation
     * (use an initial run as warm-up).
     */
    RunMetrics run(Tick duration);

    /** @name Window accounting (snapshot/slicing support).
     *
     * A RunAccumulators sample captures every monotonic accumulator
     * a RunMetrics window is differenced from. run() itself is
     * implemented as sampleAccumulators() / metricsBetween(), so a
     * sliced run that carries a baseline sample across checkpoints
     * computes the final window through the identical sequence of
     * floating-point operations — byte-identical metrics.
     * @{ */
    struct RunAccumulators
    {
        double instructions = 0.0;
        double frames = 0.0;
        std::array<Joule, power::kNumRails> rail{};
        double latInt = 0.0;
        double latSecs = 0.0;
        double bwInt = 0.0;
        double freqInt = 0.0;
        double lowSecs = 0.0;
        double elapsedSeconds = 0.0;
        double qos = 0.0;
        double trans = 0.0;
        double stall = 0.0;
    };

    /** Sample every run-window accumulator at the current instant. */
    RunAccumulators sampleAccumulators() const;

    /** Metrics over a window bounded by two samples. */
    static RunMetrics metricsBetween(const RunAccumulators &before,
                                     const RunAccumulators &after,
                                     double seconds);
    /** @} */

    /** @name Snapshot support (see sim/snapshot.hh). @{ */
    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;
    /** @} */

    /** Loaded memory latency of the last step (ns). */
    double lastMemLatencyNs() const { return lastMemLatencyNs_; }

    /**
     * Exponentially-weighted recent memory bandwidth (time constant
     * of a few milliseconds) — the utilization signal epoch-based
     * governors like MemScale/CoScale key on.
     */
    BytesPerSec recentBandwidth() const { return bwEwma_; }

    std::uint64_t transitionCount() const
    {
        return static_cast<std::uint64_t>(transitions_.value());
    }

    std::uint64_t qosViolationCount() const
    {
        return static_cast<std::uint64_t>(qosViolations_.value());
    }
    /** @} */

    void startup() override;

    /** Read/write split assumed for CPU memory traffic. */
    static constexpr double kCpuReadShare = 0.70;

    /**
     * Reactive power-cap throttle floor. The PBM "is designed to
     * keep the average power consumption of the compute domain
     * within the allocated power budget" (Sec. 4.3); when measured
     * SoC power runs over TDP (budget models are estimates), the
     * compute grant is walked down to this floor.
     */
    static constexpr double kThrottleFloor = 0.30;

    /** Current reactive throttle multiplier (diagnostics). */
    double throttle() const { return throttle_; }

    /**
     * Largest share of one step interval that transition-flow stall
     * may consume; the remainder of a longer flow carries over into
     * the following steps (never dropped), so the stall charged over
     * a run equals the flow latency recorded by noteTransition().
     */
    static constexpr double kMaxStallFraction = 0.9;

    /**
     * Switching activity assumed when no hardware thread is active.
     * Both the P-state grant path (step()) and the power integration
     * (integratePower()) fall back to this same value, so budget
     * arithmetic and the energy meter can never disagree about what
     * an idle interval costs.
     */
    static constexpr double kIdleActivity = 0.7;

    /**
     * Loaded-latency fixpoint in step(): demand and loaded memory
     * latency feed back on each other, so the step iterates until
     * the latency estimate moves by no more than this tolerance
     * between passes (then the demand it just computed is consistent
     * with the latency it was computed from).
     */
    static constexpr double kMemLatencyTolNs = 0.01;

    /**
     * Upper bound on fixpoint passes per step. The latency curve is
     * contractive in practice (convergence is geometric), so this
     * only guards pathological configurations; the tolerance is what
     * normally terminates the loop.
     */
    static constexpr int kMemLatencyMaxPasses = 8;

    /** Transition-flow stall not yet charged to a step (carry-over). */
    Tick pendingStallTicks() const { return pendingStall_; }

    /** @name Idle skip-ahead. @{ */

    /**
     * Enable/disable the constant-step replay fast path for this
     * instance. When enabled (the default), steps whose inputs are
     * fingerprint-identical to the previous slow step are replayed
     * from a cached plan — and runs of such steps inside one run()
     * window are batched into a single event, advancing simulated
     * time analytically. Every replay applies the exact floating-
     * point operation sequence of the slow path, so all reported
     * metrics are byte-identical either way (pinned by
     * tests/test_skip_ahead.cc).
     */
    void
    setSkipAhead(bool on)
    {
        skipAhead_ = on;
        plan_.valid = false;
    }

    bool skipAheadEnabled() const { return skipAhead_; }

    /**
     * Process-wide default for new Soc instances: on unless a tool
     * turns it off (sweep_grid --no-skip-ahead, perfbench, tests).
     */
    static bool skipAheadDefault();
    static void setSkipAheadDefault(bool on);

    /** Steps served by the replay fast path (diagnostics). */
    std::uint64_t
    replayedStepCount() const
    {
        return static_cast<std::uint64_t>(replayedSteps_.value());
    }
    /** @} */

    /**
     * Close the pending interval of the time-weighted residency
     * stats (dram_bin/fabric_mhz/vsa_v/vio_v) at @p t. Call once
     * before dumping the stats hierarchy; safe to call repeatedly.
     */
    void finalizeStats(Tick t);

  private:
    /**
     * Cached outcome of one slow-path step: the fingerprint of every
     * input it depended on plus the intermediate results the commit
     * half consumes. While the fingerprint matches, step() replays
     * the commit half from this plan instead of recomputing demand,
     * P-state grants, the latency fixpoint, and rail power.
     */
    struct StepPlan
    {
        bool valid = false;

        /** @name Input fingerprint. @{ */
        Tick demandValidUntil = 0;  //!< Workload horizon at capture.
        WorkloadAgent *workload = nullptr;
        double transitionsSeen = 0.0;
        double throttle = 1.0;
        Watt computeBudget = 0.0;
        Hertz coreFreqCap = 0.0;
        double dutyFactor = 0.0;
        Watt tdp = 0.0;
        double latencyInNs = 0.0;     //!< lastMemLatencyNs_ at capture.
        Hertz cpuFreq = 0.0;        //!< Granted P-states; catches
        Hertz gfxFreq = 0.0;        //!< out-of-band overrides.
        BytesPerSec iso = 0.0;
        Watt ioEnginePower = 0.0;   //!< Display + ISP (CSR-driven).
        /** @} */

        /** @name Cached compute-half results. @{ */
        double dramFrac = 0.0;
        double execFrac = 0.0;
        mem::MemDemand md{};
        double gfxDemandC0 = 0.0;
        double missScale = 1.0;
        /** @} */

        /** @name Rail power recorded by integratePower(). @{ */
        std::array<Watt, power::kNumRails> railWatts{};
        Watt stepPower = 0.0;
        /** @} */
    };

    void step();

    /** Residency-stat and trace-counter bookkeeping for @p op. */
    void noteOpPoint(const OperatingPoint &op, Tick t);

    /** Whether plan_ can replay the step beginning at @p t. */
    bool planValidAt(Tick t) const;

    /**
     * The commit half of a step, shared verbatim between the slow
     * path and the replay fast path: memory/fabric service, retire,
     * counter and power integration, EWMAs, and run accumulators —
     * all driven from plan_. @p replay selects the cached rail watts
     * over a fresh integratePower() pass. Force-inlined: both call
     * sites are per-step hot paths, and the compile-time-constant
     * @p replay folds the branchy halves away.
     */
    [[gnu::always_inline]] void commitStep(Tick interval, bool replay);

    /** Fast path: replay + batch grid steps, then reschedule. */
    void replaySteps(Tick interval);
    void applyComputePStates(const IntervalDemand &demand,
                             std::size_t active_threads,
                             double avg_activity);

    /** Integrate rail power for the step; returns total watts. */
    Watt integratePower(const IntervalDemand &demand,
                        double mc_util, double fabric_util,
                        Watt dram_power, Tick interval);

    SocConfig cfg_;
    mem::MrcStore mrc_;
    OpPointTable opPoints_;
    io::CsrSpace csr_;

    std::unique_ptr<dram::DramDevice> dram_;
    std::unique_ptr<mem::MemoryController> mc_;
    std::unique_ptr<interconnect::IoFabric> fabric_;
    std::unique_ptr<io::DisplayEngine> display_;
    std::unique_ptr<io::IspEngine> isp_;
    std::unique_ptr<io::DmaDevice> dma_;
    std::unique_ptr<compute::CpuCluster> cpu_;
    std::unique_ptr<compute::GfxEngine> gfx_;
    std::unique_ptr<compute::Llc> llc_;
    std::unique_ptr<PerfCounterBlock> counters_;
    std::unique_ptr<Pmu> pmu_;

    power::EnergyMeter meter_;
    power::PowerBudgetManager pbm_;
    power::Regulator vsaReg_;
    power::Regulator vioReg_;
    compute::HardwareDutyCycle hdc_;

    WorkloadAgent *workload_ = nullptr;
    IntervalDemand demandScratch_; //!< Reused every step (no alloc).
    OperatingPoint currentOp_;
    Watt computeBudget_ = 0.0;
    Hertz coreFreqCap_ = 0.0;
    bool gfxActive_ = false;
    bool skipAhead_ = true; //!< Rebound to skipAheadDefault() in ctor.
    StepPlan plan_;

    /** Capture-backoff cap: skip at most 2^max - 1 steps. */
    static constexpr std::uint8_t kPlanBackoffMax = 6;

    /** Consecutive plans invalidated before a single replay. */
    std::uint8_t planMissStreak_ = 0;

    /** Slow steps left before the next plan capture (0 = capture). */
    std::uint16_t planSkipCountdown_ = 0;

    /**
     * The previous slow step captured a plan (valid or not). If the
     * next step is another slow step, that capture bought nothing and
     * the backoff deepens; a replay clears it.
     */
    bool planJustCaptured_ = false;
    double lastMemLatencyNs_ = 60.0;
    BytesPerSec bwEwma_ = 0.0;
    Watt powerEwma_ = 0.0;
    double throttle_ = 1.0;
    Tick pendingStall_ = 0;

    EventFunctionWrapper stepEvent_;

    // Run-window accumulators (sampled by run()).
    double memLatIntegral_ = 0.0;
    double memActiveSeconds_ = 0.0;
    double bwIntegral_ = 0.0;
    double coreFreqIntegral_ = 0.0;
    double lowPointSeconds_ = 0.0;
    double elapsedSeconds_ = 0.0;

    stats::Scalar transitions_;
    stats::Scalar qosViolations_;
    stats::Scalar stallTicks_;
    stats::Scalar steps_;
    stats::Scalar replayedSteps_;

    /** @name Per-domain residency (time-weighted op-point knobs). @{ */
    stats::TimeAverage dramBinRes_;
    stats::TimeAverage fabricMhzRes_;
    stats::TimeAverage vSaRes_;
    stats::TimeAverage vIoRes_;
    /** @} */
};

} // namespace soc
} // namespace sysscale

#endif // SYSSCALE_SOC_SOC_HH
