/**
 * @file
 * Quickstart: build a Skylake-class SoC, run one workload under the
 * fixed baseline and under SysScale, and compare.
 *
 * Usage: quickstart [benchmark-name]   (default 416.gamess)
 */

#include <cstdio>
#include <string>

#include "core/governors.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"
#include "workloads/spec.hh"

using namespace sysscale;

namespace {

/** One measured run of @p profile under @p policy. */
soc::RunMetrics
measure(const workloads::WorkloadProfile &profile,
        core::Governor &governor)
{
    Simulator sim(/*seed=*/1);
    soc::Soc chip(sim, soc::skylakeConfig());

    // The standard laptop panel is attached for every experiment.
    chip.display().attachPanel(0, io::PanelConfig{
        io::PanelResolution::HD, 60.0, 4});

    workloads::ProfileAgent agent(profile);
    chip.setWorkload(&agent);
    chip.pmu().setGovernor(&governor);

    chip.run(200 * kTicksPerMs);          // warm up
    return chip.run(2 * kTicksPerSec);    // measure
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "416.gamess";
    const workloads::WorkloadProfile profile =
        workloads::specBenchmark(name);

    core::FixedGovernor baseline;
    core::SysScaleGovernor sysscale;

    const soc::RunMetrics base = measure(profile, baseline);
    const soc::RunMetrics sys = measure(profile, sysscale);

    std::printf("SysScale quickstart: %s on skylake-m6y75 @ 4.5W\n\n",
                name.c_str());
    std::printf("%-28s %12s %12s %8s\n", "metric", "baseline",
                "sysscale", "delta");

    // A literal format with a runtime precision: a variable format
    // string defeats compile-time checking (-Wformat-overflow flags
    // it under the sanitizer profile's optimizer settings).
    auto row = [](const char *metric, double b, double s, int prec) {
        std::printf("%-28s %12.*f %12.*f %+7.1f%%\n", metric, prec,
                    b, prec, s, (s / b - 1.0) * 100.0);
    };

    row("perf (Ginstr/s)", base.ips / 1e9, sys.ips / 1e9, 3);
    row("avg power (W)", base.avgPower, sys.avgPower, 3);
    row("energy (J)", base.energy, sys.energy, 3);
    row("EDP (J*s)", base.edp, sys.edp, 4);
    row("avg core clock (GHz)", base.avgCoreFreq / 1e9,
        sys.avgCoreFreq / 1e9, 3);
    row("mem latency (ns)", base.avgMemLatencyNs, sys.avgMemLatencyNs,
        1);
    row("mem bandwidth (GB/s)", base.avgMemBandwidth / 1e9,
        sys.avgMemBandwidth / 1e9, 2);

    std::printf("\nsysscale: %llu transitions, %.1f%% of time at the "
                "low point, %llu QoS violations\n",
                static_cast<unsigned long long>(sys.transitions),
                sys.lowPointResidency * 100.0,
                static_cast<unsigned long long>(sys.qosViolations));
    return 0;
}
