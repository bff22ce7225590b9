/**
 * @file
 * Output checks, output digests, and the paper reference table.
 */

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "exp/agg.hh"
#include "exp/report.hh"
#include "exp/spec_codec.hh"

namespace perfbench {

using namespace sysscale;
using exp::RunResult;

namespace {

/**
 * One value read off a paper figure. Values come from the paper
 * only; they are never fitted to the model's output.
 */
struct PaperValue
{
    const char *figure;   //!< "7", "8" or "9".
    const char *workload; //!< Benchmark, or "AVERAGE" / "MAX".
    const char *governor;
    double pct; //!< Gain (Figs. 7, 8) or power reduction (Fig. 9).
};

const PaperValue kPaper[] = {
    // Fig. 7: SPEC CPU2006 performance gain over the fixed baseline.
    {"7", "AVERAGE", "memscale-r", 1.7},
    {"7", "AVERAGE", "coscale-r", 3.8},
    {"7", "AVERAGE", "sysscale", 9.2},
    {"7", "MAX", "sysscale", 16.0},
    // Fig. 8: 3DMark frame-rate gain of SysScale.
    {"8", "3DMark06", "sysscale", 8.9},
    {"8", "3DMark11", "sysscale", 6.7},
    {"8", "3DMarkVantage", "sysscale", 8.1},
    // Fig. 9: battery-life average power reduction of SysScale.
    {"9", "web-browsing", "sysscale", 6.4},
    {"9", "light-gaming", "sysscale", 9.5},
    {"9", "video-conferencing", "sysscale", 7.6},
    {"9", "video-playback", "sysscale", 10.7},
};

/** The model's value for @p ref, reduced like bench_fig7/8/9. */
double
modelValue(const std::vector<RunResult> &fig, const PaperValue &ref)
{
    const std::string figure = ref.figure;
    const exp::agg::Metric metric = [&](const RunResult &r) {
        if (figure == "7")
            return r.metrics.ips;
        if (figure == "8")
            return r.metrics.fps;
        return r.metrics.avgPower;
    };
    // Fig. 9 reports a power *reduction*: the negated delta.
    const double sign = figure == "9" ? -1.0 : 1.0;
    std::vector<double> column;
    for (const auto &g : exp::agg::groupBy(fig, "workload")) {
        const double d =
            sign * exp::agg::deltaVs(g, "governor", ref.governor,
                                     "fixed", metric);
        if (g.key == ref.workload)
            return d;
        column.push_back(d);
    }
    const std::string which = ref.workload;
    if (which == "AVERAGE")
        return exp::agg::mean(column);
    if (which == "MAX")
        return exp::agg::percentile(column, 100.0);
    throw std::runtime_error("paper table: no cells for figure " +
                             figure + " workload " + which);
}

bool
isNanToken(const std::string &field)
{
    return field == "nan" || field == "-nan" || field == "NaN";
}

} // namespace

void
CheckTally::fail(const std::string &why)
{
    ++failed;
    if (reasons.size() < 8)
        reasons.push_back(why);
}

std::string
canonicalRow(const RunResult &res)
{
    RunResult copy = res;
    copy.hostSeconds = 0.0;
    return exp::csvRow(copy) + "\n" + copy.statsDump;
}

std::string
outputDigest(const std::vector<RunResult> &results)
{
    std::string all;
    for (const auto &r : results)
        all += canonicalRow(r) + "\n";
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(exp::fnv1a64(all)));
    return hex;
}

void
checkRows(const std::vector<RunResult> &rows,
          const std::vector<RunResult> *reference, CheckTally &tally)
{
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunResult &r = rows[i];
        ++tally.attempted;
        if (!r.ok) {
            tally.fail(r.id + ": error row: " + r.error);
            continue;
        }
        const soc::RunMetrics &m = r.metrics;
        double rails = 0.0;
        for (const double e : m.railEnergy)
            rails += e;
        if (!(std::fabs(rails - m.energy) <=
              1e-9 * std::fabs(m.energy))) {
            tally.fail(r.id + ": rail energies do not sum to energy_j");
            continue;
        }
        // The residency is a ratio of two separately accumulated
        // sums, so it gets the same 1e-9 rounding allowance as the
        // rail sum; excursions inside the allowance are still counted.
        const double res = m.lowPointResidency;
        if (!(res >= -1e-9 && res <= 1.0 + 1e-9)) {
            tally.fail(r.id + ": low_point_residency " +
                       exp::formatDouble(res) + " outside [0,1]");
            continue;
        }
        tally.residencyRounding += res < 0.0 || res > 1.0;
        std::istringstream fields(exp::csvRow(r));
        std::string field;
        bool nan = false;
        while (std::getline(fields, field, ','))
            nan = nan || isNanToken(field);
        if (nan) {
            tally.fail(r.id + ": NaN field");
            continue;
        }
        if (reference &&
            (i >= reference->size() ||
             canonicalRow(r) != canonicalRow((*reference)[i]))) {
            tally.fail(r.id + ": row differs from the in-process run");
            continue;
        }
    }
}

double
paperGapPp(const std::vector<RunResult> &rows)
{
    std::vector<RunResult> byFigure[3];
    for (const auto &r : rows) {
        const std::string *f = exp::agg::findLabel(r, "figure");
        if (f && (*f == "7" || *f == "8" || *f == "9"))
            byFigure[*f == "7" ? 0 : *f == "8" ? 1 : 2].push_back(r);
    }
    double sum = 0.0;
    std::size_t n = 0;
    for (const PaperValue &ref : kPaper) {
        const auto &fig = byFigure[ref.figure[0] - '7'];
        if (fig.empty())
            continue;
        sum += std::fabs(modelValue(fig, ref) - ref.pct);
        ++n;
    }
    if (n == 0)
        throw std::runtime_error("paper gap: no figure cells in grid");
    return sum / static_cast<double>(n);
}

} // namespace perfbench
