/**
 * @file
 * Unit tests for the MRC store, DDRIO, and memory controller.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "dram/device.hh"
#include "mem/controller.hh"
#include "mem/ddrio.hh"
#include "mem/mrc.hh"
#include "sim/sim_object.hh"

namespace sysscale {
namespace mem {
namespace {

TEST(Mrc, FitsSramBudget)
{
    // Paper Sec. 5: ~0.5KB of SRAM for all per-bin register images.
    const MrcStore store(dram::lpddr3Spec());
    EXPECT_EQ(store.numSets(), 3u);
    EXPECT_LE(store.sramBytes(), MrcStore::kSramBudgetBytes);
}

TEST(Mrc, LoadLatencyUnderOneMicrosecond)
{
    const MrcStore store(dram::lpddr3Spec());
    EXPECT_LT(store.loadLatency(), 1 * kTicksPerUs);
}

TEST(Mrc, OptimizedSetsAreTrained)
{
    const MrcStore store(dram::lpddr3Spec());
    for (std::size_t i = 0; i < store.numSets(); ++i) {
        const MrcRegisterSet &set = store.optimizedSet(i);
        EXPECT_TRUE(set.optimized());
        EXPECT_DOUBLE_EQ(set.terminationFactor, 1.0);
        EXPECT_DOUBLE_EQ(set.latencyAdderNs, 0.0);
    }
}

TEST(Mrc, CrossBinSetCarriesFig4Penalties)
{
    const MrcStore store(dram::lpddr3Spec());
    const MrcRegisterSet cross = store.crossBinSet(0, 1);
    EXPECT_FALSE(cross.optimized());
    EXPECT_LT(cross.interfaceEfficiency,
              store.optimizedSet(1).interfaceEfficiency);
    EXPECT_GT(cross.terminationFactor, 1.0);
    EXPECT_GT(cross.latencyAdderNs, 0.0);
    EXPECT_GT(cross.ddrioActivityFactor, 1.0);
}

TEST(Mrc, CrossBinSameBinIsOptimized)
{
    const MrcStore store(dram::lpddr3Spec());
    const MrcRegisterSet same = store.crossBinSet(1, 1);
    EXPECT_TRUE(same.optimized());
}

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** V_IO / V_SA values that move, repeat, and return. */
constexpr Volt kRailWalk[] = {0.85, 0.85, 1.00, 0.68, 0.85};

TEST(Ddrio, CachedLeakageMatchesAFreshComputation)
{
    // The default coefficients are the ones powerAt() hard-codes.
    Ddrio d(dram::lpddr3Spec(), 1.0);
    EXPECT_EQ(bits(d.digitalPower(0.4, 1.35)),
              bits(Ddrio::powerAt(1.0, d.clock(), 0.4, 1.35)));
    for (const Volt v : kRailWalk) {
        d.setVio(v);
        for (const double u : {0.0, 0.4, 1.0}) {
            EXPECT_EQ(bits(d.digitalPower(u, 1.35)),
                      bits(Ddrio::powerAt(v, d.clock(), u, 1.35)))
                << "v " << v << " u " << u;
        }
    }
}

TEST(Ddrio, PowerScalesWithVoltageSquared)
{
    Ddrio lo(dram::lpddr3Spec(), 0.85);
    Ddrio hi(dram::lpddr3Spec(), 1.00);
    EXPECT_GT(hi.digitalPower(0.5), lo.digitalPower(0.5));
}

TEST(Ddrio, PowerScalesWithBin)
{
    Ddrio d(dram::lpddr3Spec(), 1.0);
    const Watt hi = d.digitalPower(0.5);
    d.setBin(1);
    EXPECT_LT(d.digitalPower(0.5), hi);
}

TEST(Ddrio, UnoptimizedActivityRaisesPower)
{
    Ddrio d(dram::lpddr3Spec(), 1.0);
    EXPECT_GT(d.digitalPower(0.5, 1.35), d.digitalPower(0.5, 1.0));
}

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : sim_(), dev_(sim_, nullptr, dram::lpddr3Spec()),
          mrc_(dram::lpddr3Spec()),
          mc_(sim_, nullptr, dev_, mrc_, 0.80)
    {
    }

    Simulator sim_;
    dram::DramDevice dev_;
    MrcStore mrc_;
    MemoryController mc_;
};

TEST_F(ControllerTest, CapacityIsEfficiencyScaledPeak)
{
    EXPECT_NEAR(mc_.capacity(), 25.6e9 * 0.90, 1e6);
}

TEST_F(ControllerTest, LoadedLatencyMonotonicInUtilization)
{
    double prev = mc_.loadedLatencyAt(0.0);
    for (double rho = 0.1; rho <= 0.9; rho += 0.1) {
        const double lat = mc_.loadedLatencyAt(rho);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
    // Near saturation the queue dominates the base latency.
    EXPECT_GT(mc_.loadedLatencyAt(0.95), 2.0 * mc_.baseLatencyNs());
}

TEST_F(ControllerTest, IsochronousServedFirst)
{
    MemDemand d;
    d.ioIso = 10e9;
    d.cpuRead = 30e9; // oversubscribes the interface
    const MemServiceResult r = mc_.service(d, kTicksPerMs);
    EXPECT_NEAR(r.achievedIso, 10e9, 1.0);
    EXPECT_LT(r.achievedCpuRead, d.cpuRead);
    EXPECT_FALSE(r.qosViolation);
}

TEST_F(ControllerTest, QosViolationWhenIsoExceedsCapacity)
{
    MemDemand d;
    d.ioIso = 30e9; // above the 23 GB/s trained capacity
    const MemServiceResult r = mc_.service(d, kTicksPerMs);
    EXPECT_TRUE(r.qosViolation);
}

TEST_F(ControllerTest, ProportionalSharingUnderPressure)
{
    MemDemand d;
    d.cpuRead = 20e9;
    d.gfx = 10e9;
    const MemServiceResult r = mc_.service(d, kTicksPerMs);
    // 30 GB/s demanded over ~23 GB/s capacity: both clamp by the
    // same ratio.
    const double ratio_cpu = r.achievedCpuRead / d.cpuRead;
    const double ratio_gfx = r.achievedGfx / d.gfx;
    EXPECT_NEAR(ratio_cpu, ratio_gfx, 1e-9);
    EXPECT_LT(ratio_cpu, 1.0);
}

TEST_F(ControllerTest, OccupancyFollowsLittlesLaw)
{
    MemDemand d;
    d.cpuRead = 6.4e9; // 100M lines/s
    const MemServiceResult r = mc_.service(d, kTicksPerMs);
    const double expected =
        d.cpuRead / 64.0 * r.loadedLatencyNs * 1e-9;
    EXPECT_NEAR(r.readPendingOccupancy, expected, 1e-6);
}

TEST_F(ControllerTest, BlockAndDrainBoundedUnder2us)
{
    const Tick drain = mc_.blockAndDrain();
    EXPECT_LT(drain, 2 * kTicksPerUs);
    EXPECT_TRUE(mc_.blocked());
    mc_.release();
    EXPECT_FALSE(mc_.blocked());
}

TEST_F(ControllerTest, ServiceWhileBlockedPanics)
{
    mc_.blockAndDrain();
    MemDemand d;
    EXPECT_DEATH(mc_.service(d, kTicksPerMs), "");
}

TEST_F(ControllerTest, ProgrammingRequiresBlockAndSelfRefresh)
{
    const MrcRegisterSet set = mrc_.optimizedSet(1);
    EXPECT_DEATH(mc_.programRegisters(set), "");
}

TEST_F(ControllerTest, ReprogrammingMovesBinAndCapacity)
{
    mc_.blockAndDrain();
    dev_.enterSelfRefresh();
    dev_.setBin(1);
    mc_.programRegisters(mrc_.optimizedSet(1));
    dev_.exitSelfRefresh(true);
    mc_.release();

    EXPECT_EQ(mc_.binIndex(), 1u);
    EXPECT_NEAR(mc_.capacity(), 1066.0 * 1e6 * 16.0 * 0.90, 1e6);
    EXPECT_DOUBLE_EQ(mc_.clock(), 533.0 * kMHz);
}

TEST_F(ControllerTest, UnoptimizedRegistersShrinkCapacity)
{
    mc_.blockAndDrain();
    dev_.enterSelfRefresh();
    dev_.setBin(1);
    mc_.programRegisters(mrc_.crossBinSet(0, 1));
    dev_.exitSelfRefresh(false);
    mc_.release();

    const BytesPerSec trained = 1066.0 * 1e6 * 16.0 * 0.90;
    EXPECT_LT(mc_.capacity(), trained);
    EXPECT_GT(mc_.baseLatencyNs(), 0.0);
}

TEST_F(ControllerTest, CachedLeakageMatchesAFreshComputation)
{
    EXPECT_EQ(bits(mc_.controllerPower(0.4)),
              bits(MemoryController::powerAt(0.80, mc_.clock(), 0.4)));
    for (const Volt v : kRailWalk) {
        mc_.setVsa(v);
        for (const double u : {0.0, 0.4, 1.0}) {
            EXPECT_EQ(
                bits(mc_.controllerPower(u)),
                bits(MemoryController::powerAt(v, mc_.clock(), u)))
                << "v " << v << " u " << u;
        }
    }
}

TEST_F(ControllerTest, PowerDropsWithVoltageAndClock)
{
    const Watt hi = mc_.controllerPower(0.5);
    mc_.setVsa(0.68);
    const Watt lower_v = mc_.controllerPower(0.5);
    EXPECT_LT(lower_v, hi);

    EXPECT_LT(MemoryController::powerAt(0.68, 533 * kMHz, 0.5),
              MemoryController::powerAt(0.80, 800 * kMHz, 0.5));
}

} // namespace
} // namespace mem
} // namespace sysscale
