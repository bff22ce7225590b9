/**
 * @file
 * Voltage/frequency curves.
 *
 * A VfCurve maps an operating frequency to the minimum functional
 * voltage (Vmin at that frequency). Curves are piecewise linear over a
 * sorted set of fused points, mirroring the per-domain V/F fuses that
 * PMU firmware interpolates on real parts.
 */

#ifndef SYSSCALE_POWER_VF_CURVE_HH
#define SYSSCALE_POWER_VF_CURVE_HH

#include <string>
#include <vector>

#include "sim/types.hh"

namespace sysscale {
namespace power {

/** One fused (frequency, minimum voltage) pair. */
struct VfPoint
{
    Hertz freq;
    Volt voltage;
};

/**
 * Piecewise-linear minimum-voltage curve for one clock domain.
 */
class VfCurve
{
  public:
    VfCurve() = default;

    /**
     * Build from fused points. Points are sorted by frequency;
     * voltage must be non-decreasing with frequency (fatal otherwise:
     * that would be a mischaracterized part).
     */
    explicit VfCurve(std::string name, std::vector<VfPoint> points);

    const std::string &name() const { return name_; }

    /** Lowest supported frequency. */
    Hertz fmin() const;

    /** Highest supported frequency. */
    Hertz fmax() const;

    /**
     * Minimum functional voltage for @p freq (linear interpolation;
     * clamped to the curve ends).
     */
    Volt voltageAt(Hertz freq) const;

    /**
     * Highest frequency sustainable at @p voltage (inverse lookup,
     * clamped to [fmin, fmax]).
     */
    Hertz freqAt(Volt voltage) const;

    bool empty() const { return points_.empty(); }
    const std::vector<VfPoint> &points() const { return points_; }

  private:
    std::string name_;
    std::vector<VfPoint> points_;
};

/** @name Skylake-class reference curves (14nm mobile). @{ */

/** CPU core + LLC rail: 0.4GHz@0.55V ... 3.1GHz@1.15V. */
VfCurve skylakeCoreCurve();

/** Graphics rail: 0.3GHz@0.55V ... 1.05GHz@1.05V. */
VfCurve skylakeGfxCurve();

/**
 * System-agent rail (MC + IO interconnect + IO engines).
 * Reaches Vmin at the frequency pair used by the 1066MT/s DRAM bin,
 * which is why the paper's 800MT/s point saves almost nothing more
 * (Sec. 7.4).
 */
VfCurve skylakeSaCurve();

/** IO rail (DDRIO-digital + IO PHYs). */
VfCurve skylakeIoCurve();
/** @} */

} // namespace power
} // namespace sysscale

#endif // SYSSCALE_POWER_VF_CURVE_HH
