#include "exp/cache.hh"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "exp/spec_codec.hh"
#include "power/dvfs_types.hh"
#include "sim/snapshot.hh"
#include "soc/counters.hh"

namespace sysscale {
namespace exp {

namespace {

/** Value of the `record` key that marks a file as a cache entry. */
constexpr const char *kEntryRecord = "cache-entry";

/** File name suffix of a cache entry (after its spec key). */
constexpr const char *kEntrySuffix = ".rec";

/** The double-valued RunMetrics fields, by record key. */
const std::pair<const char *, double soc::RunMetrics::*>
    kMetricDoubles[] = {
        {"seconds", &soc::RunMetrics::seconds},
        {"instructions", &soc::RunMetrics::instructions},
        {"ips", &soc::RunMetrics::ips},
        {"frames", &soc::RunMetrics::frames},
        {"fps", &soc::RunMetrics::fps},
        {"avg_power_w", &soc::RunMetrics::avgPower},
        {"energy_j", &soc::RunMetrics::energy},
        {"edp", &soc::RunMetrics::edp},
        {"avg_mem_latency_ns", &soc::RunMetrics::avgMemLatencyNs},
        {"avg_mem_bandwidth", &soc::RunMetrics::avgMemBandwidth},
        {"avg_core_freq_hz", &soc::RunMetrics::avgCoreFreq},
        {"low_point_residency", &soc::RunMetrics::lowPointResidency},
};

/** The integer-valued RunMetrics fields, by record key. */
const std::pair<const char *, std::uint64_t soc::RunMetrics::*>
    kMetricCounts[] = {
        {"qos_violations", &soc::RunMetrics::qosViolations},
        {"transitions", &soc::RunMetrics::transitions},
        {"stall_ticks", &soc::RunMetrics::stallTicks},
};

} // anonymous namespace

void
putResult(SnapshotWriter &w, const RunResult &res)
{
    w.push("result");
    w.putString("id", res.id);
    w.putString("governor", res.governor);
    w.putString("workload", res.workload);
    w.putBool("ok", res.ok);
    w.putString("error", res.error);
    w.putDouble("host_seconds", res.hostSeconds);
    w.putString("stats", res.statsDump);
    w.push("metrics");
    for (const auto &[name, field] : kMetricDoubles)
        w.putDouble(name, res.metrics.*field);
    for (const auto &[name, field] : kMetricCounts)
        w.putU64(name, res.metrics.*field);
    w.push("rail");
    for (const auto rail : power::kAllRails) {
        w.putDouble(std::string(power::railName(rail)),
                    res.metrics.railEnergy[power::railIndex(rail)]);
    }
    w.pop();
    w.pop();
    w.push("counter");
    for (const auto counter : soc::kAllCounters) {
        w.putDouble(std::string(soc::counterName(counter)),
                    res.counters.values[soc::counterIndex(counter)]);
    }
    w.pop();
    w.putU64("labels", res.labels.size());
    for (std::size_t i = 0; i < res.labels.size(); ++i) {
        const std::string at = "label." + std::to_string(i);
        w.putString(at + ".name", res.labels[i].first);
        w.putString(at + ".value", res.labels[i].second);
    }
    w.pop();
}

RunResult
getResult(SnapshotReader &r)
{
    RunResult res;
    r.push("result");
    res.id = r.getString("id");
    res.governor = r.getString("governor");
    res.workload = r.getString("workload");
    res.ok = r.getBool("ok");
    res.error = r.getString("error");
    res.hostSeconds = r.getDouble("host_seconds");
    res.statsDump = r.getString("stats");
    r.push("metrics");
    for (const auto &[name, field] : kMetricDoubles)
        res.metrics.*field = r.getDouble(name);
    for (const auto &[name, field] : kMetricCounts)
        res.metrics.*field = r.getU64(name);
    r.push("rail");
    for (const auto rail : power::kAllRails) {
        res.metrics.railEnergy[power::railIndex(rail)] =
            r.getDouble(std::string(power::railName(rail)));
    }
    r.pop();
    r.pop();
    r.push("counter");
    for (const auto counter : soc::kAllCounters) {
        res.counters.values[soc::counterIndex(counter)] =
            r.getDouble(std::string(soc::counterName(counter)));
    }
    r.pop();
    const std::uint64_t labels = r.getU64("labels");
    for (std::uint64_t i = 0; i < labels; ++i) {
        const std::string at = "label." + std::to_string(i);
        std::string name = r.getString(at + ".name");
        res.labels.emplace_back(std::move(name),
                                r.getString(at + ".value"));
    }
    r.pop();
    return res;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_)) {
        throw std::runtime_error("ResultCache: cannot create \"" +
                                 dir_ + "\"");
    }
}

bool
ResultCache::cacheable(const ExperimentSpec &spec)
{
    return isSerializableSpec(spec);
}

std::string
ResultCache::pathFor(const ExperimentSpec &spec) const
{
    return dir_ + "/" + specKey(spec) + kEntrySuffix;
}

bool
ResultCache::lookup(const ExperimentSpec &spec, RunResult &out)
{
    if (!cacheable(spec)) {
        uncacheable_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    // One serialization per lookup: key and collision check both
    // derive from this text.
    const std::string canonical = canonicalSpec(spec);
    const std::string key = specKeyForCanonical(canonical);
    std::string text;
    try {
        text = readSnapshotFile(dir_ + "/" + key + kEntrySuffix);
    } catch (const SnapshotError &) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    try {
        SnapshotReader r(text);
        if (r.specKey() != key ||
            r.getString("record") != kEntryRecord)
            throw SnapshotError("not the cache entry for " + key);
        // Guard against FNV collisions and stale entries whose key
        // happens to match: the stored spec must describe the same
        // simulation, canonically.
        const ExperimentSpec stored = parseSpec(r.getString("cell"));
        if (canonicalSpec(stored) != canonical)
            throw SnapshotError("canonical spec mismatch");
        RunResult res = getResult(r);
        r.finish();
        if (!res.ok)
            throw SnapshotError("cached error row");
        // Presentation fields belong to the querying spec.
        res.id = spec.id;
        res.workload = spec.workload.name();
        res.labels = spec.labels;
        out = std::move(res);
    } catch (const std::exception &) {
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ResultCache::store(const ExperimentSpec &spec, const RunResult &res)
{
    if (!res.ok || !cacheable(spec))
        return;

    const std::string key = specKey(spec);
    SnapshotWriter w(key, 0);
    w.putString("record", kEntryRecord);
    w.putString("cell", serializeSpec(spec));
    putResult(w, res);
    // Staged write + atomic rename: concurrent sweeps sharing one
    // cache directory never see a partial entry.
    try {
        writeSnapshotFile(dir_ + "/" + key + kEntrySuffix, w.str());
    } catch (const SnapshotError &) {
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<ResultCache>
resolveCache(std::string dir, bool no_cache)
{
    if (no_cache)
        return nullptr;
    if (dir.empty()) {
        if (const char *env = std::getenv("SYSSCALE_CACHE_DIR"))
            dir = env;
    }
    if (dir.empty())
        return nullptr;
    return std::make_unique<ResultCache>(std::move(dir));
}

CacheStats
ResultCache::stats() const
{
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.corrupt = corrupt_.load(std::memory_order_relaxed);
    s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
    return s;
}

} // namespace exp
} // namespace sysscale
