/**
 * @file
 * Unit tests for V/F curves, regulators, power primitives, P-states,
 * the PBM, and the energy meter, plus a differential battery that
 * holds the cached P-state search to a per-state recomputation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "power/energy_meter.hh"
#include "power/pbm.hh"
#include "power/power_model.hh"
#include "power/regulator.hh"
#include "power/vf_curve.hh"
#include "sim/random.hh"
#include "soc/config.hh"

namespace sysscale {
namespace power {
namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/**
 * The reference the cached table must match: every state's power
 * recomputed as dynamicPower + leakagePower, searched linearly.
 */
struct ReferenceTable
{
    const PStateTable &table;
    const VfCurve &curve;

    Watt
    stateAt(const PState &s, double activity) const
    {
        return dynamicPower(table.cdyn(), s.voltage, s.freq, activity) +
               leakagePower(table.leakK(), s.voltage,
                            table.temperature());
    }

    Watt
    powerAt(Hertz freq, double activity) const
    {
        const Volt v = curve.voltageAt(freq);
        return dynamicPower(table.cdyn(), v, freq, activity) +
               leakagePower(table.leakK(), v, table.temperature());
    }

    const PState &
    highestUnder(Watt budget, double activity) const
    {
        const PState *best = &table.states().front();
        for (const auto &s : table.states()) {
            if (stateAt(s, activity) <= budget)
                best = &s;
        }
        return *best;
    }

    const PState &
    grant(Hertz requested, Watt budget, double activity) const
    {
        if (powerAt(requested, activity) <= budget) {
            const PState *best = &table.min();
            for (const auto &s : table.states()) {
                if (s.freq <= requested + 1.0)
                    best = &s;
            }
            return *best;
        }
        return highestUnder(budget, activity);
    }
};

/** One P-state table a shipped SocConfig builds, with its curve. */
struct ShippedTable
{
    std::string name;
    VfCurve curve;
    PStateTable table;
};

std::vector<ShippedTable>
shippedTables()
{
    std::vector<ShippedTable> out;
    out.reserve(6);
    for (const soc::SocConfig &cfg :
         {soc::skylakeConfig(), soc::broadwellConfig(),
          soc::skylakeDdr4Config()}) {
        out.push_back({cfg.name + "/core", skylakeCoreCurve(),
                       PStateTable(skylakeCoreCurve(), cfg.coreCdyn,
                                   cfg.coreLeakK, cfg.temperature,
                                   cfg.pstateSteps)});
        out.push_back({cfg.name + "/gfx", skylakeGfxCurve(),
                       PStateTable(skylakeGfxCurve(), cfg.gfxCdyn,
                                   cfg.gfxLeakK, cfg.temperature,
                                   cfg.pstateSteps)});
    }
    return out;
}

/** Activities 0..2: an even grid plus seeded draws. */
std::vector<double>
activities(Rng &rng)
{
    std::vector<double> out;
    out.reserve(33);
    for (int i = 0; i <= 16; ++i)
        out.push_back(i / 8.0);
    for (int i = 0; i < 16; ++i)
        out.push_back(rng.uniform(0.0, 2.0));
    return out;
}

/**
 * Budgets from 0 to twice the top state's power: seeded draws, each
 * state's exact power at @p activity and its neighbouring doubles,
 * and the edges (negative, zero, infinite, NaN).
 */
std::vector<Watt>
budgets(const ReferenceTable &ref, double activity, Rng &rng)
{
    const Watt top = 2.0 * ref.table.max().maxPower;
    std::vector<Watt> out = {-1.0, 0.0, top,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
    for (int i = 0; i < 64; ++i)
        out.push_back(rng.uniform(0.0, top));
    for (const auto &s : ref.table.states()) {
        const Watt p = ref.stateAt(s, activity);
        out.push_back(p);
        out.push_back(std::nextafter(p, 0.0));
        out.push_back(std::nextafter(p, top * 2.0));
    }
    return out;
}

TEST(VfCurve, InterpolatesBetweenPoints)
{
    VfCurve c("t", {{1.0 * kGHz, 0.6}, {2.0 * kGHz, 1.0}});
    EXPECT_DOUBLE_EQ(c.voltageAt(1.5 * kGHz), 0.8);
}

TEST(VfCurve, ClampsOutsideRange)
{
    VfCurve c("t", {{1.0 * kGHz, 0.6}, {2.0 * kGHz, 1.0}});
    EXPECT_DOUBLE_EQ(c.voltageAt(0.5 * kGHz), 0.6);
    EXPECT_DOUBLE_EQ(c.voltageAt(3.0 * kGHz), 1.0);
}

TEST(VfCurve, InverseLookupRoundTrips)
{
    VfCurve c = skylakeCoreCurve();
    const Hertz f = 1.8 * kGHz;
    EXPECT_NEAR(c.freqAt(c.voltageAt(f)), f, 1e6);
}

TEST(VfCurve, SkylakeIoCurveMatchesTable1Anchor)
{
    // Table 1: V_IO at the 1066MT/s bin is 0.85 of the boot 1.00V.
    VfCurve c = skylakeIoCurve();
    EXPECT_NEAR(c.voltageAt(0.53 * kGHz), 0.85, 1e-9);
    EXPECT_NEAR(c.voltageAt(0.80 * kGHz), 1.00, 1e-9);
}

TEST(VfCurve, SaCurveFlattensBelowLowPoint)
{
    // Sec. 7.4: V_SA reaches Vmin at the 1066 pairing, so the 800
    // bin frees no further voltage.
    VfCurve c = skylakeSaCurve();
    EXPECT_DOUBLE_EQ(c.voltageAt(0.40 * kGHz),
                     c.voltageAt(0.30 * kGHz));
}

TEST(Regulator, RampLatencyMatchesSlewRate)
{
    // 50mV/us slew: a 100mV move takes 2us (paper Sec. 5).
    Regulator r(Rail::VSA, 0.80, 50e-3 / 1e-6);
    const Tick lat = r.rampTo(0.70, 0);
    EXPECT_EQ(lat, 2 * kTicksPerUs);
}

TEST(Regulator, VoltageInterpolatesDuringRamp)
{
    Regulator r(Rail::VSA, 0.80, 50e-3 / 1e-6);
    r.rampTo(0.70, 0);
    EXPECT_NEAR(r.voltage(1 * kTicksPerUs), 0.75, 1e-9);
    EXPECT_NEAR(r.voltage(2 * kTicksPerUs), 0.70, 1e-9);
    EXPECT_FALSE(r.ramping(2 * kTicksPerUs));
}

TEST(Regulator, InputPowerIncludesConversionLoss)
{
    Regulator r(Rail::VSA, 0.8, 5e4, /*efficiency=*/0.8);
    EXPECT_NEAR(r.inputPower(0.8), 1.0, 1e-9);
}

TEST(PowerModel, DynamicPowerFormula)
{
    // Cdyn V^2 f a = 1nF * 1V^2 * 1GHz * 0.5 = 0.5W.
    EXPECT_NEAR(dynamicPower(1e-9, 1.0, 1e9, 0.5), 0.5, 1e-12);
}

TEST(PowerModel, LeakageGrowsWithVoltageAndTemperature)
{
    const Watt base = leakagePower(0.1, 0.8, 50.0);
    EXPECT_GT(leakagePower(0.1, 0.9, 50.0), base);
    EXPECT_GT(leakagePower(0.1, 0.8, 80.0), base);
}

TEST(PowerModel, RailLeakageMatchesLeakagePowerAsTheVoltageMoves)
{
    RailLeakage leak(0.42, 50.0);
    // Moves, repeats (served from the kept value) and returns.
    for (const Volt v : {0.80, 0.80, 0.68, 0.80, 0.68, 0.68, 0.72}) {
        EXPECT_EQ(bits(leak.at(v)), bits(leakagePower(0.42, v, 50.0)))
            << "v " << v;
    }
}

TEST(PowerModel, EdpDefinition)
{
    EXPECT_DOUBLE_EQ(edp(2.0, 3.0), 6.0);
    EXPECT_DOUBLE_EQ(ed2p(2.0, 3.0), 18.0);
}

TEST(PStateTable, StatesAreMonotonic)
{
    PStateTable t(skylakeCoreCurve(), 1e-9, 0.2, 50.0, 16);
    ASSERT_EQ(t.states().size(), 16u);
    for (std::size_t i = 1; i < t.states().size(); ++i) {
        EXPECT_GT(t.states()[i].freq, t.states()[i - 1].freq);
        EXPECT_GE(t.states()[i].voltage, t.states()[i - 1].voltage);
        EXPECT_GT(t.states()[i].maxPower, t.states()[i - 1].maxPower);
    }
}

TEST(PStateTable, HighestUnderRespectsBudget)
{
    PStateTable t(skylakeCoreCurve(), 1e-9, 0.2, 50.0, 16);
    const Watt budget = t.states()[7].maxPower + 1e-6;
    const PState &s = t.highestUnder(budget, 1.0);
    EXPECT_DOUBLE_EQ(s.freq, t.states()[7].freq);
}

TEST(PStateTable, LowestStateReturnedWhenNothingFits)
{
    PStateTable t(skylakeCoreCurve(), 1e-9, 0.2, 50.0, 16);
    const PState &s = t.highestUnder(0.0, 1.0);
    EXPECT_DOUBLE_EQ(s.freq, t.min().freq);
}

TEST(PStateTable, CachedSearchMatchesPerStateRecomputation)
{
    Rng rng(0x9e3779b9);
    for (const ShippedTable &st : shippedTables()) {
        const ReferenceTable ref{st.table, st.curve};
        for (const double a : activities(rng)) {
            for (const Watt b : budgets(ref, a, rng)) {
                EXPECT_EQ(&st.table.highestUnder(b, a),
                          &ref.highestUnder(b, a))
                    << st.name << " budget " << b << " activity " << a;
            }
        }
    }
}

TEST(PStateTable, PowerAtMatchesRecomputationBitForBit)
{
    Rng rng(0x51ed270b);
    for (const ShippedTable &st : shippedTables()) {
        const ReferenceTable ref{st.table, st.curve};
        std::vector<Hertz> freqs;
        freqs.reserve(3 * st.table.states().size() + 32);
        for (const auto &s : st.table.states()) {
            freqs.push_back(s.freq);
            freqs.push_back(std::nextafter(s.freq, 0.0));
            freqs.push_back(s.freq + 1.0);
        }
        for (int i = 0; i < 32; ++i) {
            freqs.push_back(rng.uniform(0.5 * st.table.min().freq,
                                        1.5 * st.table.max().freq));
        }
        for (const double a : activities(rng)) {
            for (const Hertz f : freqs) {
                EXPECT_EQ(bits(st.table.powerAt(f, a)),
                          bits(ref.powerAt(f, a)))
                    << st.name << " freq " << f << " activity " << a;
            }
        }
        for (const auto &s : st.table.states())
            EXPECT_EQ(bits(s.maxPower), bits(ref.stateAt(s, 1.0)));
    }
}

TEST(PStateTable, LeakageAtMatchesRecomputationBitForBit)
{
    Rng rng(0x7c3a90e1);
    for (const ShippedTable &st : shippedTables()) {
        std::vector<Volt> volts;
        for (const auto &s : st.table.states()) {
            volts.push_back(s.voltage);
            volts.push_back(std::nextafter(s.voltage, 0.0));
            volts.push_back(std::nextafter(s.voltage, 2.0));
        }
        for (int i = 0; i < 16; ++i)
            volts.push_back(rng.uniform(0.4, 1.4));
        for (const Volt v : volts) {
            EXPECT_EQ(bits(st.table.leakageAt(v)),
                      bits(leakagePower(st.table.leakK(), v,
                                        st.table.temperature())))
                << st.name << " voltage " << v;
        }
    }
}

TEST(Pbm, GrantMatchesPerStateRecomputation)
{
    const PowerBudgetManager pbm(4.5);
    Rng rng(0x2545f491);
    for (const ShippedTable &st : shippedTables()) {
        const ReferenceTable ref{st.table, st.curve};
        std::vector<Hertz> requests = {0.0, 1e12};
        for (const auto &s : st.table.states()) {
            requests.push_back(s.freq);
            requests.push_back(s.freq - 1.0);
            requests.push_back(std::nextafter(s.freq - 1.0, 0.0));
            requests.push_back(s.freq + 0.5);
        }
        for (int i = 0; i < 8; ++i) {
            requests.push_back(
                rng.uniform(st.table.min().freq, st.table.max().freq));
        }
        for (const double a : activities(rng)) {
            const std::vector<Watt> bs = budgets(ref, a, rng);
            for (const Hertz f : requests) {
                // Every fourth budget keeps the battery quick; the
                // seeded budgets still reach each state boundary.
                for (std::size_t i = 0; i < bs.size(); i += 4) {
                    EXPECT_EQ(&pbm.grant(st.table, f, bs[i], a),
                              &ref.grant(f, bs[i], a))
                        << st.name << " request " << f << " budget "
                        << bs[i] << " activity " << a;
                }
            }
        }
    }
}

TEST(PStateTable, UnorderedPowerTermsAreFatal)
{
    // VfCurve already rejects a falling voltage, so the terms can
    // only lose their order by going non-finite; the prefix search
    // would then be wrong, so construction fails.
    EXPECT_DEATH(PStateTable(skylakeCoreCurve(), 1e-9, 0.2,
                             std::numeric_limits<double>::quiet_NaN(),
                             8),
                 "not non-decreasing");
}

TEST(Pbm, ComputeBudgetSubtractsDomains)
{
    PowerBudgetManager pbm(4.5, 0.25);
    EXPECT_NEAR(pbm.computeBudget(1.0, 0.5), 2.75, 1e-12);
    EXPECT_DOUBLE_EQ(pbm.computeBudget(5.0, 0.0), 0.0);
}

TEST(Pbm, SplitGivesCoresMinorShareUnderGraphics)
{
    PowerBudgetManager pbm(4.5);
    const ComputeSplit s = pbm.split(2.0, /*gfx_active=*/true);
    EXPECT_NEAR(s.coreBudget, 2.0 * 0.15, 1e-12);
    EXPECT_NEAR(s.gfxBudget, 2.0 * 0.85, 1e-12);

    const ComputeSplit cpu_only = pbm.split(2.0, false);
    EXPECT_DOUBLE_EQ(cpu_only.coreBudget, 2.0);
}

TEST(Pbm, GrantDemotesOverBudgetRequests)
{
    PowerBudgetManager pbm(4.5);
    PStateTable t(skylakeCoreCurve(), 1e-9, 0.2, 50.0, 16);
    const PState &granted =
        pbm.grant(t, t.max().freq, /*budget=*/0.3, /*activity=*/0.8);
    EXPECT_LT(granted.freq, t.max().freq);
    EXPECT_LE(t.powerAt(granted.freq, 0.8), 0.3 + 1e-9);
}

TEST(EnergyMeter, IntegratesPerRail)
{
    EnergyMeter m;
    m.addPower(Rail::VSA, 2.0, kTicksPerSec);      // 2 J
    m.addPower(Rail::VDDQ, 1.0, kTicksPerSec / 2); // 0.5 J
    EXPECT_NEAR(m.railEnergy(Rail::VSA), 2.0, 1e-9);
    EXPECT_NEAR(m.railEnergy(Rail::VDDQ), 0.5, 1e-9);
    EXPECT_NEAR(m.totalEnergy(), 2.5, 1e-9);
    EXPECT_NEAR(m.averagePower(kTicksPerSec), 2.5, 1e-9);
}

TEST(EnergyMeter, ResetMovesWindow)
{
    EnergyMeter m;
    m.addPower(Rail::VSA, 2.0, kTicksPerSec);
    m.reset(kTicksPerSec);
    EXPECT_DOUBLE_EQ(m.totalEnergy(), 0.0);
    m.addPower(Rail::VSA, 1.0, kTicksPerSec);
    EXPECT_NEAR(m.averagePower(2 * kTicksPerSec), 1.0, 1e-9);
}

} // namespace
} // namespace power
} // namespace sysscale
