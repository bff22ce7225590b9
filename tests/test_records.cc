/**
 * @file
 * Seeded fuzz battery over every internal record reader, each driven
 * through its real entry point:
 *
 *  - cache entries through exp::ResultCache::lookup,
 *  - queue entries (whole cells and chain slices) through
 *    dist::WorkQueue::tryClaim,
 *  - failure markers through dist::WorkQueue::failedResult,
 *  - worker metrics through dist::WorkQueue::workerMetrics.
 *
 * Every trial damages one pristine record — a truncation, a single
 * byte flip, or random bytes — and the reader must answer with a
 * miss, a quarantine or a skip. The only row a reader may ever
 * return is the exact row that was written (a truncation that drops
 * just the final newline leaves the record intact). The trial count
 * scales with SYSSCALE_STRESS_ITERS, like the snapshot battery.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "dist/work_queue.hh"
#include "exp/cache.hh"
#include "exp/report.hh"
#include "exp/spec_codec.hh"
#include "sim/snapshot.hh"
#include "workloads/micro.hh"

using namespace sysscale;

namespace {

/** Trial multiplier for nightly-style stress runs (default 1x). */
std::size_t
stressIters()
{
    const char *env = std::getenv("SYSSCALE_STRESS_ITERS");
    if (!env)
        return 1;
    const long v = std::atol(env);
    return v > 0 ? static_cast<std::size_t>(v) : 1;
}

/** Fresh per-test directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("sysscale-record-test-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }

    ~TempDir() { std::filesystem::remove_all(path_); }

    std::string
    sub(const std::string &name) const
    {
        return (std::filesystem::path(path_) / name).string();
    }

  private:
    std::string path_;
};

exp::ExperimentSpec
fastSpec(const std::string &id)
{
    exp::ExperimentSpec spec;
    spec.id = id;
    spec.workload = workloads::streamMicro();
    spec.governor = "fixed";
    spec.warmup = 2 * kTicksPerMs;
    spec.window = 10 * kTicksPerMs;
    spec.labels = {{"cell", id}};
    return spec;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** Everything a reader may hand back, as one comparable string. */
std::string
rowImage(const exp::RunResult &res)
{
    return exp::jsonObject(res) + "\n" + res.statsDump;
}

/** Seeded damage: a truncation, a one-byte flip, or random bytes. */
class Damage
{
  public:
    explicit Damage(std::uint64_t seed) : rng_(seed) {}

    std::string
    operator()(const std::string &pristine, std::size_t trial)
    {
        std::string text = pristine;
        switch (trial % 3) {
          case 0:
            text.resize(pick(pristine.size()));
            break;
          case 1:
            text[pick(text.size())] ^=
                static_cast<char>(1 + pick(255));
            break;
          default:
            text.resize(pick(2 * pristine.size() + 1));
            for (char &c : text)
                c = static_cast<char>(pick(256));
            break;
        }
        return text;
    }

  private:
    /** Uniform in [0, n) — modulo bias is irrelevant here. */
    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(rng_() % n);
    }

    std::mt19937_64 rng_;
};

constexpr std::size_t kTrials = 150;

} // anonymous namespace

TEST(RecordFuzz, DamagedCacheEntriesAreMisses)
{
    const TempDir dir("cache");
    exp::ResultCache cache(dir.sub("cache"));
    const exp::ExperimentSpec spec = fastSpec("cache");
    const exp::RunResult res = exp::runCell(spec);
    ASSERT_TRUE(res.ok) << res.error;
    cache.store(spec, res);
    const std::string pristine = readSnapshotFile(cache.pathFor(spec));

    Damage damage(11);
    const std::size_t trials = kTrials * stressIters();
    std::size_t hits = 0;
    for (std::size_t t = 0; t < trials; ++t) {
        writeFile(cache.pathFor(spec), damage(pristine, t));
        exp::RunResult out;
        if (cache.lookup(spec, out)) {
            ++hits;
            EXPECT_EQ(rowImage(out), rowImage(res)) << "trial " << t;
        }
    }
    const exp::CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, hits);
    EXPECT_EQ(s.corrupt + s.hits, trials);
}

TEST(RecordFuzz, DamagedQueueEntriesAreQuarantined)
{
    const TempDir dir("queue");
    dist::WorkQueue queue(dir.sub("q"));
    const exp::ExperimentSpec spec = fastSpec("queue");
    const Tick step = 4 * kTicksPerMs;

    // Pristine whole-cell and slice entries, read back off pending/.
    const std::string cellKey = queue.enqueue(spec);
    const std::string sliceKey = queue.enqueueSlice(spec, step, 1);
    const std::string pristineCell =
        readSnapshotFile(queue.pendingPath(cellKey));
    const std::string pristineSlice =
        readSnapshotFile(queue.pendingPath(sliceKey));
    queue.purge();

    Damage damage(23);
    const std::size_t trials = kTrials * stressIters();
    std::size_t claims = 0;
    for (std::size_t t = 0; t < trials; ++t) {
        const bool slice = (t / 3) % 2 == 1;
        const std::string &key = slice ? sliceKey : cellKey;
        writeFile(queue.pendingPath(key),
                  damage(slice ? pristineSlice : pristineCell, t));
        dist::Claim claim;
        if (queue.tryClaim("fuzz", claim)) {
            ++claims;
            EXPECT_EQ(claim.key, key) << "trial " << t;
            EXPECT_TRUE(claim.spec == spec) << "trial " << t;
            EXPECT_EQ(claim.isSlice, slice) << "trial " << t;
            if (slice) {
                EXPECT_EQ(claim.step, step);
                EXPECT_EQ(claim.index, 1u);
            }
            queue.release(claim);
        }
        EXPECT_FALSE(std::filesystem::exists(queue.pendingPath(key)))
            << "trial " << t << " left a pending file behind";
    }
    EXPECT_EQ(queue.counters().claims, claims);
    EXPECT_EQ(queue.counters().corrupt + claims, trials);
}

TEST(RecordFuzz, DamagedFailureMarkersAreSkipped)
{
    const TempDir dir("failed");
    dist::WorkQueue queue(dir.sub("q"));
    const exp::ExperimentSpec spec = fastSpec("failed");
    const std::string key = queue.enqueue(spec);
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("fuzz", claim));

    // Strings that would break a line- or key-based format ride as
    // values and come back exactly.
    exp::RunResult row;
    row.id = "odd = id\nsecond line";
    row.governor = "fixed";
    row.workload = spec.workload.name();
    row.ok = false;
    row.error = "boom = bad\nchecksum = 0000000000000000\n";
    row.hostSeconds = 0.125;
    row.labels = {{"key = with sep", "value\nwith newline"}};
    queue.fail(claim, row);

    exp::RunResult back;
    ASSERT_TRUE(queue.failedResult(key, back));
    EXPECT_EQ(rowImage(back), rowImage(row));
    EXPECT_EQ(back.error, row.error);

    const std::string pristine = readSnapshotFile(queue.failedPath(key));
    Damage damage(37);
    const std::size_t trials = kTrials * stressIters();
    for (std::size_t t = 0; t < trials; ++t) {
        writeFile(queue.failedPath(key), damage(pristine, t));
        exp::RunResult out;
        if (queue.failedResult(key, out)) {
            EXPECT_EQ(rowImage(out), rowImage(row)) << "trial " << t;
            EXPECT_EQ(out.error, row.error) << "trial " << t;
        }
    }
}

TEST(RecordFuzz, DamagedWorkerMetricsAreSkipped)
{
    const TempDir dir("metrics");
    dist::WorkQueue queue(dir.sub("q"));
    dist::WorkerMetrics m;
    m.workerId = "w1";
    m.claimed = 7;
    m.simulated = 5;
    m.cacheHits = 2;
    m.failures = 1;
    m.simSeconds = 1.5;
    m.wallSeconds = 0.0625;
    queue.publishMetrics(m);
    const std::string pristine =
        readSnapshotFile(queue.metricsPath(m.workerId));

    Damage damage(41);
    const std::size_t trials = kTrials * stressIters();
    for (std::size_t t = 0; t < trials; ++t) {
        writeFile(queue.metricsPath(m.workerId), damage(pristine, t));
        for (const dist::WorkerMetrics &got : queue.workerMetrics()) {
            EXPECT_EQ(got.workerId, m.workerId) << "trial " << t;
            EXPECT_EQ(got.claimed, m.claimed) << "trial " << t;
            EXPECT_EQ(got.simulated, m.simulated) << "trial " << t;
            EXPECT_EQ(got.cacheHits, m.cacheHits) << "trial " << t;
            EXPECT_EQ(got.failures, m.failures) << "trial " << t;
            EXPECT_EQ(got.simSeconds, m.simSeconds) << "trial " << t;
            EXPECT_EQ(got.wallSeconds, m.wallSeconds) << "trial " << t;
        }
    }
}
