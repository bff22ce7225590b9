/**
 * @file
 * SPEC CPU2006 workload profiles.
 *
 * All 29 benchmarks the paper's Fig. 7 evaluates, as calibrated phase
 * profiles. Characteristics (base CPI, LLC MPKI at 4MB, blocking
 * factor, bytes/instruction including prefetch) encode each
 * benchmark's published bottleneck structure and the paper's own
 * anchors:
 *  - lbm: constant ~10GB/s bandwidth demand (Fig. 3a), bandwidth
 *    bound;
 *  - cactusADM: memory-latency bound, >10% loss under MD-DVFS
 *    (Fig. 2);
 *  - perlbench: core bound, low demand with spikes (Fig. 2, 3a);
 *  - astar: seconds-long alternation between ~1GB/s and ~10GB/s
 *    phases (Sec. 7.1);
 *  - gamess/namd/povray: highly frequency-scalable (Sec. 7.1).
 */

#ifndef SYSSCALE_WORKLOADS_SPEC_HH
#define SYSSCALE_WORKLOADS_SPEC_HH

#include <vector>

#include "workloads/profile.hh"

namespace sysscale {
namespace workloads {

/** All 29 SPEC CPU2006 profiles in suite order. */
std::vector<WorkloadProfile> specSuite();

/** One benchmark by name, e.g. "470.lbm" (fatal if unknown). */
WorkloadProfile specBenchmark(const std::string &name);

} // namespace workloads
} // namespace sysscale

#endif // SYSSCALE_WORKLOADS_SPEC_HH
