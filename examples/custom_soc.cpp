/**
 * @file
 * Building a custom SoC configuration: a DDR4 tablet with a 4K
 * panel and a camera stream, demonstrating the static demand table
 * holding SysScale at the high operating point until the peripheral
 * load allows scaling (paper Sec. 4.2, condition 1).
 */

#include <cstdio>

#include "core/governors.hh"
#include "sim/sim_object.hh"
#include "soc/soc.hh"
#include "workloads/spec.hh"

using namespace sysscale;

int
main()
{
    // A 7W DDR4 variant of the Skylake platform (Sec. 7.4).
    soc::SocConfig cfg = soc::skylakeDdr4Config(/*tdp=*/7.0);
    Simulator sim(1);
    soc::Soc chip(sim, cfg);

    core::SysScaleGovernor gov;
    chip.pmu().setGovernor(&gov);

    workloads::ProfileAgent agent(
        workloads::specBenchmark("453.povray"));
    chip.setWorkload(&agent);

    std::printf("custom SoC: %s @ %.1fW, %s\n\n", cfg.name.c_str(),
                cfg.tdp, cfg.dramSpec.name().c_str());

    // Phase 1: 4K panel + camera -> static demand pins the SoC high.
    chip.display().attachPanel(0, io::PanelConfig{
        io::PanelResolution::UHD4K, 60.0, 4});
    chip.isp().startCamera(io::CameraConfig{1920, 1080, 30.0, 2});

    soc::RunMetrics m = chip.run(500 * kTicksPerMs);
    std::printf("4K panel + 1080p camera: static demand %.1f GB/s\n",
                chip.isoBandwidthDemand() / 1e9);
    std::printf("  low-point residency %.0f%%, op point '%s' "
                "(static table holds the SoC high)\n",
                m.lowPointResidency * 100.0,
                chip.currentOpPoint().name.c_str());
    std::printf("  QoS violations: %llu\n",
                static_cast<unsigned long long>(m.qosViolations));

    // Phase 2: drop to the laptop HD panel, stop the camera.
    chip.display().detachPanel(0);
    chip.display().attachPanel(0, io::PanelConfig{
        io::PanelResolution::HD, 60.0, 4});
    chip.isp().stopCamera();

    m = chip.run(500 * kTicksPerMs);
    std::printf("\nHD panel only: static demand %.1f GB/s\n",
                chip.isoBandwidthDemand() / 1e9);
    std::printf("  low-point residency %.0f%%, op point '%s' "
                "(povray is compute bound -> scaled down)\n",
                m.lowPointResidency * 100.0,
                chip.currentOpPoint().name.c_str());
    std::printf("  QoS violations: %llu\n",
                static_cast<unsigned long long>(m.qosViolations));

    std::printf("\naverage core clock rose to %.2f GHz with the "
                "freed budget\n", m.avgCoreFreq / 1e9);
    return 0;
}
