#include "exp/runner.hh"

#include <atomic>
#include <mutex>
#include <thread>

#include "exp/cache.hh"

namespace sysscale {
namespace exp {

ExperimentRunner::ExperimentRunner(RunnerOptions opts)
    : opts_(std::move(opts))
{}

std::size_t
ExperimentRunner::jobsFor(std::size_t cells) const
{
    std::size_t jobs = opts_.jobs;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    if (jobs > cells)
        jobs = cells;
    return jobs == 0 ? 1 : jobs;
}

std::vector<RunResult>
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    std::vector<RunResult> results(specs.size());
    if (specs.empty())
        return results;

    // Serve cache hits up front, in spec order; only the remaining
    // cells are dispatched to workers.
    std::vector<std::size_t> pending;
    pending.reserve(specs.size());
    std::size_t prefilled = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (opts_.cache &&
            opts_.cache->lookup(specs[i], results[i])) {
            ++prefilled;
            if (opts_.onResult)
                opts_.onResult(results[i], prefilled, specs.size());
        } else {
            pending.push_back(i);
        }
    }
    if (pending.empty())
        return results;

    const std::size_t jobs = jobsFor(pending.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{prefilled};
    std::mutex progress_mutex;

    auto worker = [&] {
        for (;;) {
            const std::size_t slot =
                next.fetch_add(1, std::memory_order_relaxed);
            if (slot >= pending.size())
                return;
            const std::size_t i = pending[slot];

            const ExperimentSpec &spec = specs[i];
            results[i] = runCell(spec, opts_.cell);
            if (opts_.cache)
                opts_.cache->store(spec, results[i]);

            const std::size_t finished =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (opts_.onResult) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                opts_.onResult(results[i], finished, specs.size());
            }
        }
    };

    if (jobs == 1) {
        worker();
        return results;
    }

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return results;
}

} // namespace exp
} // namespace sysscale
