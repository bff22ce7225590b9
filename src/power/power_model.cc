#include "power/power_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace sysscale {
namespace power {

namespace {

void
checkActivity(double activity)
{
    // Activity above 1.0 is legal for guard-banded interfaces that
    // toggle more than the data-path reference (unoptimized MRC).
    SYSSCALE_ASSERT(activity >= 0.0 && activity <= 2.0 + 1e-9,
                    "activity %f out of [0,2]", activity);
}

} // anonymous namespace

Watt
dynamicPower(double cdyn_farad, Volt v, Hertz f, double activity)
{
    SYSSCALE_ASSERT(cdyn_farad >= 0.0 && v >= 0.0 && f >= 0.0,
                    "negative dynamic-power inputs");
    checkActivity(activity);
    return cdyn_farad * v * v * f * activity;
}

Watt
leakagePower(double k_watt, Volt v, Celsius temp_c, Volt v_ref,
             Celsius t_ref, double beta_v, double beta_t)
{
    SYSSCALE_ASSERT(k_watt >= 0.0, "negative leakage coefficient");
    return k_watt * v * std::exp(beta_v * (v - v_ref)) *
           std::exp(beta_t * (temp_c - t_ref));
}

RailLeakage::RailLeakage(double k_watt, Celsius temp_c)
    : kWatt_(k_watt), tempC_(temp_c),
      volt_(std::numeric_limits<double>::quiet_NaN())
{
}

Watt
RailLeakage::at(Volt v)
{
    if (v != volt_) {
        volt_ = v;
        watts_ = leakagePower(kWatt_, v, tempC_);
    }
    return watts_;
}

double
edp(Joule energy, double delay_seconds)
{
    return energy * delay_seconds;
}

double
ed2p(Joule energy, double delay_seconds)
{
    return energy * delay_seconds * delay_seconds;
}

PStateTable::PStateTable(const VfCurve &curve, double cdyn_farad,
                         double leak_k, Celsius temp_c,
                         std::size_t steps)
    : cdyn_(cdyn_farad), leakK_(leak_k), tempC_(temp_c), curve_(curve)
{
    if (steps < 2)
        SYSSCALE_FATAL("PStateTable needs >= 2 steps");

    const Hertz lo = curve.fmin();
    const Hertz hi = curve.fmax();
    states_.reserve(steps);
    terms_.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        const double t =
            static_cast<double>(i) / static_cast<double>(steps - 1);
        const Hertz f = lo + t * (hi - lo);
        const Volt v = curve.voltageAt(f);
        // dynamicPower() forms Cdyn * V * V * f * activity left to
        // right, so base * activity reproduces it bit for bit.
        const StateTerms terms{dynamicPower(cdyn_farad, v, f, 1.0),
                               leakagePower(leak_k, v, temp_c)};
        states_.push_back(PState{f, v, terms.at(1.0)});
        terms_.push_back(terms);
    }

    // The binary searches below rely on these orders; !(a >= b) also
    // rejects NaN terms.
    for (std::size_t i = 1; i < steps; ++i) {
        if (!(states_[i].freq >= states_[i - 1].freq) ||
            !(states_[i].voltage >= states_[i - 1].voltage) ||
            !(terms_[i].dynBaseW >= terms_[i - 1].dynBaseW) ||
            !(terms_[i].leakW >= terms_[i - 1].leakW)) {
            SYSSCALE_FATAL("PStateTable: frequency, voltage or power "
                           "terms not non-decreasing from state %zu "
                           "to %zu",
                           i - 1, i);
        }
    }
}

Watt
PStateTable::powerAt(Hertz freq, double activity) const
{
    SYSSCALE_ASSERT(!states_.empty(), "empty PStateTable");
    const auto it = std::lower_bound(
        states_.begin(), states_.end(), freq,
        [](const PState &s, Hertz f) { return s.freq < f; });
    if (it != states_.end() && it->freq == freq) {
        checkActivity(activity);
        return terms_[static_cast<std::size_t>(it - states_.begin())]
            .at(activity);
    }
    const Volt v = curve_.voltageAt(freq);
    return dynamicPower(cdyn_, v, freq, activity) +
           leakagePower(leakK_, v, tempC_);
}

const PState &
PStateTable::highestUnder(Watt budget, double activity) const
{
    SYSSCALE_ASSERT(!states_.empty(), "empty PStateTable");
    checkActivity(activity);
    // Power never falls with the state index, so the states that fit
    // are a prefix; a NaN budget fits none.
    const auto fit = std::partition_point(
        terms_.begin(), terms_.end(),
        [&](const StateTerms &t) { return t.at(activity) <= budget; });
    const auto n = static_cast<std::size_t>(fit - terms_.begin());
    return states_[n == 0 ? 0 : n - 1];
}

Watt
PStateTable::leakageAt(Volt v) const
{
    const auto it = std::lower_bound(
        states_.begin(), states_.end(), v,
        [](const PState &s, Volt x) { return s.voltage < x; });
    if (it != states_.end() && it->voltage == v)
        return terms_[static_cast<std::size_t>(it - states_.begin())]
            .leakW;
    return leakagePower(leakK_, v, tempC_);
}

} // namespace power
} // namespace sysscale
