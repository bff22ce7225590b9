/**
 * @file
 * The two execution paths: the in-process experiment runner every
 * workload pass takes, and a distributed dispatch, watched from
 * outside, that the traced run probes.
 */

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "bench.hh"
#include "dist/dispatch.hh"
#include "exp/report.hh"
#include "exp/runner.hh"

namespace perfbench {

using namespace sysscale;

std::vector<exp::RunResult>
runInProcess(const std::vector<exp::ExperimentSpec> &specs)
{
    exp::RunnerOptions opts;
    opts.jobs = 1;
    return exp::ExperimentRunner(opts).run(specs);
}

namespace {

/**
 * Host seconds a worker reported for a finished slice or cell:
 * the "(<id>, <seconds>s)" tail of its "ok" log line; negative for
 * any other line.
 */
double
okSeconds(const std::string &line)
{
    const std::size_t ok = line.find(" ok (");
    const std::size_t comma = line.rfind(", ");
    if (ok == std::string::npos || comma == std::string::npos ||
        comma < ok || line.size() < 2 ||
        line.compare(line.size() - 2, 2, "s)") != 0)
        return -1.0;
    return std::strtod(line.c_str() + comma + 2, nullptr);
}

} // namespace

Dispatched
dispatch(const std::vector<exp::ExperimentSpec> &specs, Tick sliceTicks,
         const std::string &queueDir, exp::ResultCache &cache,
         SpanRecorder &rec)
{
    Dispatched d;
    d.resultAt.assign(specs.size(), 0.0);
    std::mutex mu; // Guards d.events: workers log concurrently.
    const Clock::time_point t0 = Clock::now();

    dist::DispatchOptions opts;
    opts.spawnWorkers = kDispatchWorkers;
    opts.sliceTicks = sliceTicks;
    opts.onEvent = [&](const std::string &line) {
        const double at = seconds(t0, Clock::now());
        const std::lock_guard<std::mutex> lock(mu);
        d.events.push_back(DispatchEvent{at, line});
    };
    opts.onResult = [&](std::size_t index, const exp::RunResult &) {
        d.resultAt[index] = seconds(t0, Clock::now());
    };

    {
        const SpanRecorder::Scope span(&rec, "dist.runDistributed");
        d.results = dist::runDistributed(specs, queueDir, cache, opts)
                        .results;
        d.wallSeconds = seconds(t0, Clock::now());
        d.cacheStats = cache.stats();
        // Each worker "ok" line closes a slice (or a whole cell) that
        // ran for the seconds it reports: a child span of this
        // dispatch on a worker thread.
        const double base = rec.now() - d.wallSeconds;
        for (const DispatchEvent &e : d.events) {
            const double s = okSeconds(e.line);
            if (s >= 0.0) {
                rec.add("exp.runCellSlice", base + e.at - s, base + e.at,
                        span.id());
            }
        }
    }
    return d;
}

double
workerSeconds(const Dispatched &d)
{
    double sum = 0.0;
    for (const DispatchEvent &e : d.events)
        sum += std::max(0.0, okSeconds(e.line));
    return sum;
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    values_.emplace_back(name, std::make_pair(value, unit));
}

std::string
MetricSet::json() const
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < values_.size(); ++i) {
        os << (i ? ", " : "") << exp::jsonQuote(values_[i].first)
           << ": {\"value\": " << exp::formatDouble(values_[i].second.first)
           << ", \"unit\": " << exp::jsonQuote(values_[i].second.second)
           << "}";
    }
    os << "}";
    return os.str();
}

} // namespace perfbench
