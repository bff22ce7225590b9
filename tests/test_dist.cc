/**
 * @file
 * Distributed-sweep tests: the filesystem work queue's claim
 * exclusivity and crash paths (stale-lease reclamation, corrupt and
 * truncated files quarantined instead of simulated, dead workers
 * losing no cells), two workers draining one queue with zero
 * duplicate simulations, failed cells publishing loud error rows,
 * and the headline acceptance property — a distributed drain
 * assembling output byte-identical to a single-process
 * ExperimentRunner run of the same grid.
 *
 * Campaign operations on top: the read-only inspection APIs behind
 * `sweep_queue` (counts, probe-aged leases, decoded cells —
 * tolerant of files vanishing mid-scan), retry-failed / purge,
 * clock-skew-free lease staleness, capacity-weighted workers, and
 * spec-order result streaming whose CSV is byte-identical to
 * end-of-run assembly.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/dispatch.hh"
#include "dist/work_queue.hh"
#include "dist/worker.hh"
#include "exp/cache.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/spec_codec.hh"
#include "sim/snapshot.hh"
#include "workloads/micro.hh"

using namespace sysscale;

namespace {

/** Fresh per-test directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("sysscale-dist-test-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }

    ~TempDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

    std::string
    sub(const std::string &name) const
    {
        return (std::filesystem::path(path_) / name).string();
    }

  private:
    std::string path_;
};

exp::ExperimentSpec
fastSpec(const std::string &id, std::uint64_t seed = 1)
{
    exp::ExperimentSpec spec;
    spec.id = id;
    spec.workload = workloads::streamMicro();
    spec.governor = "fixed";
    spec.seed = seed;
    spec.warmup = 2 * kTicksPerMs;
    spec.window = 10 * kTicksPerMs;
    spec.labels = {{"cell", id}};
    return spec;
}

std::vector<exp::ExperimentSpec>
smallGrid()
{
    std::vector<exp::ExperimentSpec> specs;
    for (const auto &w :
         {workloads::streamMicro(), workloads::spinMicro()}) {
        for (const char *gov : {"fixed", "sysscale"}) {
            exp::ExperimentSpec spec;
            spec.id = w.name() + "/" + gov;
            spec.workload = w;
            spec.governor = gov;
            spec.warmup = 2 * kTicksPerMs;
            spec.window = 10 * kTicksPerMs;
            spec.labels = {{"workload", w.name()},
                           {"governor", gov}};
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

std::string
toCsv(const std::vector<exp::RunResult> &results)
{
    std::ostringstream os;
    exp::writeCsv(os, results);
    return os.str();
}

/** Backdate a file's mtime by @p by (simulating a dead worker). */
void
backdate(const std::string &path, std::chrono::seconds by)
{
    const auto mtime = std::filesystem::last_write_time(path);
    std::filesystem::last_write_time(path, mtime - by);
}

} // anonymous namespace

TEST(WorkQueue, EnqueueClaimReleaseLifecycle)
{
    const TempDir dir("lifecycle");
    dist::WorkQueue queue(dir.sub("q"));

    const exp::ExperimentSpec spec = fastSpec("cell");
    const std::string key = queue.enqueue(spec);
    EXPECT_EQ(key, exp::specKey(spec));
    EXPECT_TRUE(std::filesystem::exists(queue.pendingPath(key)));
    EXPECT_EQ(queue.scan().pending, 1u);

    // Re-enqueueing a pending cell is a no-op.
    EXPECT_EQ(queue.enqueue(spec), key);
    EXPECT_EQ(queue.counters().enqueued, 1u);
    EXPECT_EQ(queue.counters().skipped, 1u);

    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    EXPECT_EQ(claim.key, key);
    EXPECT_EQ(claim.workerId, "w1");
    EXPECT_TRUE(claim.spec == spec) << "claimed spec round-trips";
    EXPECT_FALSE(std::filesystem::exists(queue.pendingPath(key)));
    EXPECT_TRUE(
        std::filesystem::exists(queue.claimedPath(key, "w1")));
    EXPECT_TRUE(std::filesystem::exists(queue.leasePath(key, "w1")));

    // A claimed cell cannot be enqueued again either.
    EXPECT_EQ(queue.enqueue(spec), key);
    EXPECT_EQ(queue.counters().enqueued, 1u);

    queue.release(claim);
    EXPECT_TRUE(queue.scan().drained());
    EXPECT_FALSE(
        std::filesystem::exists(queue.claimedPath(key, "w1")));
    EXPECT_FALSE(std::filesystem::exists(queue.leasePath(key, "w1")));
}

TEST(WorkQueue, ClaimIsExclusive)
{
    const TempDir dir("exclusive");
    dist::WorkQueue queue(dir.sub("q"));
    queue.enqueue(fastSpec("cell"));

    dist::Claim first, second;
    ASSERT_TRUE(queue.tryClaim("w1", first));
    EXPECT_FALSE(queue.tryClaim("w2", second))
        << "one pending cell must be claimable exactly once";
}

TEST(WorkQueue, RuntimeHookSpecsAreRejected)
{
    const TempDir dir("hooks");
    dist::WorkQueue queue(dir.sub("q"));
    exp::ExperimentSpec spec = fastSpec("hooked");
    spec.governorFactory = [] {
        return std::unique_ptr<core::Governor>();
    };
    EXPECT_FALSE(dist::WorkQueue::queueable(spec));
    EXPECT_THROW((void)queue.enqueue(spec), std::invalid_argument);
}

TEST(WorkQueue, StaleLeaseIsReclaimedFreshLeaseIsNot)
{
    const TempDir dir("stale");
    dist::WorkQueue queue(dir.sub("q"));
    const exp::ExperimentSpec spec = fastSpec("cell");
    const std::string key = queue.enqueue(spec);

    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("dead-worker", claim));

    // A fresh lease protects the claim.
    EXPECT_EQ(queue.reclaimStale(std::chrono::seconds(30)), 0u);
    EXPECT_EQ(queue.scan().claimed, 1u);

    // The worker dies: its lease stops refreshing and goes stale.
    backdate(queue.leasePath(key, "dead-worker"),
             std::chrono::seconds(3600));
    EXPECT_EQ(queue.reclaimStale(std::chrono::seconds(30)), 1u);
    EXPECT_EQ(queue.counters().reclaims, 1u);
    EXPECT_TRUE(std::filesystem::exists(queue.pendingPath(key)));
    EXPECT_FALSE(std::filesystem::exists(
        queue.leasePath(key, "dead-worker")));

    // The recovered cell is claimable again, content intact.
    dist::Claim again;
    ASSERT_TRUE(queue.tryClaim("w2", again));
    EXPECT_TRUE(again.spec == spec);
}

TEST(WorkQueue, MissingLeaseCountsAsDead)
{
    const TempDir dir("nolease");
    dist::WorkQueue queue(dir.sub("q"));
    const std::string key = queue.enqueue(fastSpec("cell"));

    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    // Crash window: the claim exists but its lease was lost.
    std::filesystem::remove(queue.leasePath(key, "w1"));
    EXPECT_EQ(queue.reclaimStale(std::chrono::seconds(3600)), 1u);
    EXPECT_TRUE(std::filesystem::exists(queue.pendingPath(key)));
}

TEST(WorkQueue, HeartbeatKeepsALeaseFresh)
{
    const TempDir dir("heartbeat");
    dist::WorkQueue queue(dir.sub("q"));
    const std::string key = queue.enqueue(fastSpec("cell"));
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));

    backdate(queue.leasePath(key, "w1"), std::chrono::seconds(3600));
    queue.heartbeat(claim);
    EXPECT_EQ(queue.reclaimStale(std::chrono::seconds(30)), 0u)
        << "a heartbeat must reset the staleness clock";
}

TEST(WorkQueue, CorruptPendingFilesNeverProduceAClaim)
{
    const TempDir dir("corrupt");
    dist::WorkQueue queue(dir.sub("q"));
    std::vector<std::string> events;
    queue.onEvent = [&](const std::string &e) {
        events.push_back(e);
    };

    // Garbage bytes, a truncated real entry, and a well-formed entry
    // filed under the wrong key (content/name mismatch): none may
    // ever reach a worker as a claim — a wrong result is the one
    // unrecoverable failure.
    const exp::ExperimentSpec spec = fastSpec("cell");
    const std::string key = queue.enqueue(spec);
    const std::string text = readSnapshotFile(queue.pendingPath(key));
    // Decodes fine, but specKey(spec) != filename.
    std::filesystem::rename(queue.pendingPath(key),
                            queue.pendingPath("00000000deadbeef"));
    {
        std::ofstream os(
            queue.pendingPath("0123456789abcdef"));
        os << "not a queue entry at all\n";
    }
    {
        std::ofstream os(
            queue.pendingPath("fedcba9876543210"));
        os << text.substr(0, text.size() / 2);
    }

    dist::Claim claim;
    EXPECT_FALSE(queue.tryClaim("w1", claim));
    EXPECT_EQ(queue.counters().corrupt, 3u);
    EXPECT_EQ(events.size(), 3u) << "quarantines must be loud";
    EXPECT_EQ(queue.scan().pending, 0u);

    // Quarantined, not deleted: the bytes stay auditable.
    std::size_t quarantined = 0;
    for (const auto &entry [[maybe_unused]] :
         std::filesystem::directory_iterator(dir.sub("q") +
                                             "/corrupt"))
        ++quarantined;
    EXPECT_EQ(quarantined, 3u);
}

TEST(WorkQueue, DamagedFailureMarkerIsQuarantinedAndTheCellRequeued)
{
    const TempDir dir("damaged-marker");
    dist::WorkQueue queue(dir.sub("q"));
    const exp::ExperimentSpec spec = fastSpec("cell");
    const std::string key = exp::specKey(spec);
    {
        std::ofstream os(queue.failedPath(key), std::ios::binary);
        os << "junk";
    }

    // Counted as a skip, the damaged marker would wedge the cell:
    // failedResult() cannot read it, so no dispatcher resolves it.
    EXPECT_EQ(queue.enqueue(spec), key);
    EXPECT_EQ(queue.counters().enqueued, 1u);
    EXPECT_EQ(queue.counters().skipped, 0u);
    EXPECT_EQ(queue.counters().corrupt, 1u);
    EXPECT_TRUE(std::filesystem::exists(queue.pendingPath(key)));
    EXPECT_FALSE(std::filesystem::exists(queue.failedPath(key)));
    EXPECT_EQ(queue.scan().pending, 1u);

    // A marker that does decode still resolves the cell: a skip.
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    exp::RunResult res;
    res.governor = "fixed";
    res.error = "deliberate failure";
    queue.fail(claim, res);
    EXPECT_EQ(queue.enqueue(spec), key);
    EXPECT_EQ(queue.counters().skipped, 1u);
    EXPECT_EQ(queue.counters().corrupt, 1u);
    EXPECT_EQ(queue.scan().pending, 0u);
}

TEST(Worker, DrainsAQueueThroughTheSharedCache)
{
    const TempDir dir("drain");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    const auto specs = smallGrid();
    for (const auto &spec : specs)
        queue.enqueue(spec);

    dist::WorkerOptions opts;
    opts.workerId = "w1";
    opts.drain = true;
    opts.poll = std::chrono::milliseconds(10);
    const dist::WorkerStats stats =
        dist::runWorker(dir.sub("q"), cache, opts);

    EXPECT_EQ(stats.claimed, specs.size());
    EXPECT_EQ(stats.simulated, specs.size());
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_TRUE(queue.scan().drained());

    // Every cell is in the cache, replayable.
    for (const auto &spec : specs) {
        exp::RunResult out;
        EXPECT_TRUE(cache.lookup(spec, out)) << spec.id;
        EXPECT_TRUE(out.ok);
    }
}

TEST(Worker, NeverSimulatesACellAnotherWorkerCompleted)
{
    const TempDir dir("cachecheck");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    // The cell is enqueued AND already completed (e.g. reclaimed
    // from a worker that died after publishing but before
    // releasing): the claim must resolve as a cache hit, not a
    // second simulation.
    const exp::ExperimentSpec spec = fastSpec("cell");
    cache.store(spec, exp::runCell(spec));
    queue.enqueue(spec);

    dist::WorkerOptions opts;
    opts.drain = true;
    opts.poll = std::chrono::milliseconds(10);
    const dist::WorkerStats stats =
        dist::runWorker(dir.sub("q"), cache, opts);
    EXPECT_EQ(stats.claimed, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.simulated, 0u);
    EXPECT_TRUE(queue.scan().drained());
}

TEST(Worker, KilledMidCellLosesNoCells)
{
    const TempDir dir("killed");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    const auto specs = smallGrid();
    for (const auto &spec : specs)
        queue.enqueue(spec);

    // Worker A claims a cell and dies mid-simulation: no release,
    // no heartbeat, lease left to rot.
    dist::Claim abandoned;
    ASSERT_TRUE(queue.tryClaim("killed-worker", abandoned));
    backdate(queue.leasePath(abandoned.key, "killed-worker"),
             std::chrono::seconds(3600));

    // Worker B drains: its reclamation pass recovers the abandoned
    // cell and every cell of the grid completes exactly once.
    dist::WorkerOptions opts;
    opts.workerId = "w2";
    opts.drain = true;
    opts.poll = std::chrono::milliseconds(10);
    const dist::WorkerStats stats =
        dist::runWorker(dir.sub("q"), cache, opts);

    EXPECT_EQ(stats.reclaims, 1u);
    EXPECT_EQ(stats.simulated, specs.size());
    EXPECT_TRUE(queue.scan().drained());
    for (const auto &spec : specs) {
        exp::RunResult out;
        EXPECT_TRUE(cache.lookup(spec, out)) << spec.id;
    }
}

TEST(Worker, TwoWorkersDrainWithZeroDuplicateSimulations)
{
    const TempDir dir("twoworkers");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    const auto specs = smallGrid();
    for (const auto &spec : specs)
        queue.enqueue(spec);

    dist::WorkerStats s1, s2;
    auto work = [&](const std::string &id, dist::WorkerStats &out) {
        dist::WorkerOptions opts;
        opts.workerId = id;
        opts.drain = true;
        opts.poll = std::chrono::milliseconds(10);
        out = dist::runWorker(dir.sub("q"), cache, opts);
    };
    std::thread t1(work, "w1", std::ref(s1));
    std::thread t2(work, "w2", std::ref(s2));
    t1.join();
    t2.join();

    // Claims are exclusive renames and no lease can go stale in a
    // healthy drain, so the cell count splits exactly — no cell is
    // simulated twice, none is lost.
    EXPECT_EQ(s1.simulated + s2.simulated, specs.size());
    EXPECT_EQ(s1.claimed + s2.claimed, specs.size());
    EXPECT_EQ(s1.failures + s2.failures, 0u);
    EXPECT_TRUE(queue.scan().drained());
    for (const auto &spec : specs) {
        exp::RunResult out;
        EXPECT_TRUE(cache.lookup(spec, out)) << spec.id;
    }
}

TEST(Dispatch, FailedCellsBecomeLoudErrorRows)
{
    const TempDir dir("failed");
    exp::ResultCache cache(dir.sub("cache"));

    // One healthy cell and one that fails validation at run time
    // (no phases anywhere): the failure must come back as an error
    // row — same shape as the single-process runner — and never be
    // cached or retried within the dispatch.
    std::vector<exp::ExperimentSpec> specs;
    specs.push_back(fastSpec("healthy"));
    exp::ExperimentSpec broken;
    broken.id = "broken";
    broken.labels = {{"cell", "broken"}};
    specs.push_back(broken);

    dist::DispatchOptions opts;
    opts.spawnWorkers = 1;
    opts.poll = std::chrono::milliseconds(10);
    const dist::DispatchOutcome outcome =
        dist::runDistributed(specs, dir.sub("q"), cache, opts);

    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_TRUE(outcome.results[0].ok);
    EXPECT_FALSE(outcome.results[1].ok);
    EXPECT_NE(outcome.results[1].error.find("no phases"),
              std::string::npos)
        << outcome.results[1].error;
    EXPECT_EQ(outcome.results[1].id, "broken");
    EXPECT_EQ(outcome.failedCells, 1u);

    // The marker carries the error row itself: apart from the host
    // timing it is the single-process runner's row.
    exp::RunResult local = exp::runCell(broken);
    local.hostSeconds = outcome.results[1].hostSeconds;
    EXPECT_EQ(exp::csvRow(outcome.results[1]), exp::csvRow(local));

    // Error rows are never cached; the failure marker is what
    // resolved the cell.
    exp::RunResult out;
    EXPECT_FALSE(cache.lookup(broken, out));
    dist::WorkQueue queue(dir.sub("q"));
    EXPECT_EQ(queue.scan().failed, 1u);

    // A fresh dispatch clears the marker and retries the cell.
    const dist::DispatchOutcome retry =
        dist::runDistributed(specs, dir.sub("q"), cache, opts);
    EXPECT_FALSE(retry.results[1].ok);
    EXPECT_EQ(retry.localWork.simulated, 1u)
        << "only the broken cell re-runs; the healthy one is cached";
}

TEST(Dispatch, RecoversACorruptedQueueEntry)
{
    const TempDir dir("recover");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    // The cell's queue file exists but holds garbage (torn write on
    // a flaky NFS, say) — enqueue() will skip it as already-pending,
    // a worker will quarantine it, and the dispatcher must then
    // re-enqueue the real spec and still complete the sweep.
    const exp::ExperimentSpec spec = fastSpec("cell");
    const std::string key = exp::specKey(spec);
    {
        std::ofstream os(queue.pendingPath(key));
        os << "garbage where a spec should be\n";
    }

    dist::DispatchOptions opts;
    opts.spawnWorkers = 1;
    opts.poll = std::chrono::milliseconds(10);
    const dist::DispatchOutcome outcome =
        dist::runDistributed({spec}, dir.sub("q"), cache, opts);

    ASSERT_EQ(outcome.results.size(), 1u);
    EXPECT_TRUE(outcome.results[0].ok) << outcome.results[0].error;
    EXPECT_GE(outcome.reenqueued, 1u)
        << "the lost cell must be re-enqueued from the dispatcher's "
           "own spec";
}

/**
 * The acceptance property: a grid drained by two concurrent workers
 * sharing a queue and cache produces output byte-identical to a
 * single-process ExperimentRunner run of the same grid — and every
 * cell is simulated exactly once across the whole fleet.
 */
TEST(Dispatch, DistributedDrainMatchesSingleProcessByteForByte)
{
    const TempDir dir("identity");
    exp::ResultCache cache(dir.sub("cache"));

    const auto specs = smallGrid();
    dist::DispatchOptions opts;
    opts.spawnWorkers = 2;
    opts.poll = std::chrono::milliseconds(10);
    const dist::DispatchOutcome outcome =
        dist::runDistributed(specs, dir.sub("q"), cache, opts);
    EXPECT_EQ(outcome.localWork.simulated, specs.size())
        << "each cell simulated exactly once across both workers";

    // Single-process runner over the same shared cache: every cell
    // is a hit, and the assembled outputs are byte-identical. (The
    // dispatcher's own poll lookups also count misses, so compare
    // the delta across the serial pass.)
    const std::size_t missesBefore = cache.stats().misses;
    exp::RunnerOptions ropts;
    ropts.jobs = 1;
    ropts.cache = &cache;
    const auto serial = exp::ExperimentRunner(ropts).run(specs);
    EXPECT_EQ(cache.stats().misses, missesBefore)
        << "the serial pass must re-simulate nothing";
    EXPECT_EQ(toCsv(outcome.results), toCsv(serial));

    // And against an independent simulation (fresh cache), every
    // field but the host wall-clock matches bit for bit.
    exp::RunnerOptions iopts;
    iopts.jobs = 1;
    const auto independent = exp::ExperimentRunner(iopts).run(specs);
    ASSERT_EQ(independent.size(), outcome.results.size());
    for (std::size_t i = 0; i < independent.size(); ++i) {
        exp::RunResult a = outcome.results[i];
        exp::RunResult b = independent[i];
        a.hostSeconds = b.hostSeconds = 0.0;
        EXPECT_EQ(exp::csvRow(a), exp::csvRow(b)) << specs[i].id;
    }
}

TEST(Dispatch, ResumesFromAWarmCacheWithoutEnqueueing)
{
    const TempDir dir("resume");
    exp::ResultCache cache(dir.sub("cache"));
    const auto specs = smallGrid();

    dist::DispatchOptions opts;
    opts.spawnWorkers = 1;
    opts.poll = std::chrono::milliseconds(10);
    (void)dist::runDistributed(specs, dir.sub("q"), cache, opts);

    // Second dispatch of the same grid: nothing to enqueue, nothing
    // to simulate — pure assembly.
    const dist::DispatchOutcome again =
        dist::runDistributed(specs, dir.sub("q"), cache, opts);
    EXPECT_EQ(again.enqueued, 0u);
    EXPECT_EQ(again.alreadyCached, specs.size());
    EXPECT_EQ(again.localWork.simulated, 0u);
}


TEST(WorkQueue, StatusReportsCountsAndProbeAgedLeases)
{
    const TempDir dir("status");
    dist::WorkQueue queue(dir.sub("q"));

    // Build the queue state claim-by-claim so each tryClaim has
    // exactly one candidate: one failed cell, one claimed cell
    // (live lease), two pending, one quarantined file. Seeds
    // differ because ids are presentation-only — the content key
    // ignores them.
    queue.enqueue(fastSpec("failing", 1));
    dist::Claim failedClaim;
    ASSERT_TRUE(queue.tryClaim("w2", failedClaim));
    exp::RunResult res;
    res.governor = "fixed";
    res.error = "boom";
    queue.fail(failedClaim, res);

    dist::Claim claim;
    queue.enqueue(fastSpec("claimed", 2));
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    queue.enqueue(fastSpec("a", 3));
    queue.enqueue(fastSpec("b", 4));
    {
        std::ofstream os(dir.sub("q") + "/corrupt/junk");
        os << "quarantined bytes\n";
    }

    const dist::QueueStatus s = queue.status();
    EXPECT_EQ(s.pending, 2u);
    EXPECT_EQ(s.claimed, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.corrupt, 1u);
    ASSERT_EQ(s.leases.size(), 1u);
    EXPECT_EQ(s.leases[0].workerId, "w1");
    EXPECT_EQ(s.leases[0].key, claim.key);
    // A just-written lease aged against a just-touched probe file:
    // near zero either way, and sane.
    EXPECT_LT(std::abs(s.leases[0].ageSeconds), 60.0);

    // Backdated lease ages grow accordingly (probe minus mtime).
    backdate(queue.leasePath(claim.key, "w1"),
             std::chrono::seconds(120));
    const dist::QueueStatus aged = queue.status();
    ASSERT_EQ(aged.leases.size(), 1u);
    EXPECT_GT(aged.leases[0].ageSeconds, 100.0);
}

TEST(WorkQueue, InspectionToleratesFilesVanishingMidScan)
{
    const TempDir dir("vanish");
    dist::WorkQueue queue(dir.sub("q"));
    std::vector<std::string> events;
    queue.onEvent = [&](const std::string &e) {
        events.push_back(e);
    };

    const std::string keyA = queue.enqueue(fastSpec("a", 1));
    const std::string keyB = queue.enqueue(fastSpec("b", 2));
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));

    // The lease is released by its worker at exactly the moment
    // status() moves from the directory listing to the stat: the
    // inspection must skip it — not crash, not count it corrupt,
    // not report anything.
    const std::string leaseName = claim.key + ".w1";
    queue.onScanFile = [&](const std::string &name) {
        if (name == leaseName) {
            std::filesystem::remove(
                queue.leasePath(claim.key, "w1"));
        }
    };
    const dist::QueueStatus s = queue.status();
    EXPECT_TRUE(s.leases.empty())
        << "a vanished lease must be skipped, not aged";
    EXPECT_EQ(s.corrupt, 0u);
    EXPECT_EQ(queue.counters().corrupt, 0u);
    EXPECT_TRUE(events.empty()) << events.front();

    // Same for a pending spec vanishing between ls and read: the
    // un-claimed cell disappears mid-listCells and must simply not
    // show up.
    const std::string pendingKey = claim.key == keyA ? keyB : keyA;
    const std::string pendingName = pendingKey + ".spec";
    queue.onScanFile = [&](const std::string &name) {
        if (name == pendingName) {
            std::filesystem::remove(
                std::filesystem::path(dir.sub("q")) / "pending" /
                name);
        }
    };
    const std::vector<dist::CellInfo> cells = queue.listCells();
    for (const dist::CellInfo &cell : cells) {
        EXPECT_FALSE(cell.state == "pending" &&
                     cell.key == pendingKey)
            << "a vanished pending cell must be skipped";
    }
    EXPECT_EQ(queue.counters().corrupt, 0u);
    EXPECT_TRUE(events.empty());
}

TEST(WorkQueue, ListCellsDecodesSpecsWithoutPerturbingTheQueue)
{
    const TempDir dir("lscells");
    dist::WorkQueue queue(dir.sub("q"));

    // Claim first while the queue holds a single cell, then add the
    // pending one — no dependence on directory iteration order.
    const exp::ExperimentSpec claimedSpec =
        fastSpec("claimed-cell", 2);
    const std::string claimedKey = queue.enqueue(claimedSpec);
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    ASSERT_EQ(claim.key, claimedKey);
    queue.enqueue(fastSpec("pending-cell"));

    // A garbage file with a plausible name: listed as unparsable
    // but NOT quarantined — inspection is read-only; only the claim
    // path quarantines.
    {
        std::ofstream os(queue.pendingPath("0123456789abcdef"));
        os << "not a spec\n";
    }

    const std::vector<dist::CellInfo> cells = queue.listCells();
    ASSERT_EQ(cells.size(), 3u);
    // Sorted by state: claimed < failed < pending.
    EXPECT_EQ(cells[0].state, "claimed");
    EXPECT_EQ(cells[0].specId, "claimed-cell");
    EXPECT_EQ(cells[0].workerId, "w1");
    EXPECT_GE(cells[0].leaseAgeSeconds, -1.0);
    bool sawPending = false, sawGarbage = false;
    for (const dist::CellInfo &cell : cells) {
        sawPending |= cell.specId == "pending-cell";
        sawGarbage |= cell.specId == "(unparsable)";
    }
    EXPECT_TRUE(sawPending);
    EXPECT_TRUE(sawGarbage);
    EXPECT_TRUE(std::filesystem::exists(
        queue.pendingPath("0123456789abcdef")))
        << "inspection must never quarantine";
    EXPECT_EQ(queue.counters().corrupt, 0u);
}

TEST(WorkQueue, RetryFailedRequeuesTheRetainedSpec)
{
    const TempDir dir("retry");
    dist::WorkQueue queue(dir.sub("q"));

    const exp::ExperimentSpec spec = fastSpec("cell");
    const std::string key = queue.enqueue(spec);
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    exp::RunResult res;
    res.governor = "fixed";
    res.error = "deliberate failure";
    queue.fail(claim, res);

    // The failure keeps the marker AND the spec bytes.
    EXPECT_EQ(queue.scan().failed, 1u);
    EXPECT_TRUE(std::filesystem::exists(queue.failedPath(key) +
                                        ".spec"));

    // retry-failed puts the cell straight back on the queue…
    EXPECT_EQ(queue.retryFailed(), 1u);
    EXPECT_EQ(queue.scan().failed, 0u);
    EXPECT_EQ(queue.scan().pending, 1u);
    EXPECT_FALSE(std::filesystem::exists(queue.failedPath(key)));
    EXPECT_FALSE(std::filesystem::exists(queue.failedPath(key) +
                                         ".spec"));

    // …content intact: a worker claims exactly the original spec.
    dist::Claim again;
    ASSERT_TRUE(queue.tryClaim("w2", again));
    EXPECT_TRUE(again.spec == spec);
}

TEST(WorkQueue, PurgeEmptiesEveryQueueDirectory)
{
    const TempDir dir("purge");
    dist::WorkQueue queue(dir.sub("q"));

    queue.enqueue(fastSpec("a", 1));
    queue.enqueue(fastSpec("b", 2));
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    {
        std::ofstream os(dir.sub("q") + "/corrupt/junk");
        os << "junk\n";
    }

    EXPECT_GE(queue.purge(), 4u); // pending + claim + lease + junk
    EXPECT_TRUE(queue.scan().drained());
    EXPECT_EQ(queue.scan().failed, 0u);
    EXPECT_EQ(queue.status().corrupt, 0u);
    EXPECT_TRUE(queue.listCells().empty());
}

TEST(WorkQueue, ProbeStalenessIgnoresTheObserversWallClock)
{
    const TempDir dir("probe");
    dist::WorkQueue queue(dir.sub("q"));
    const exp::ExperimentSpec spec = fastSpec("cell");
    const std::string key = queue.enqueue(spec);
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));

    // Observer wall clock running an hour FAST: a wall-clock-based
    // staleness test would see every fresh lease as 1h old and
    // reclaim it. The probe comparison must not.
    queue.wallClock = [] {
        return std::filesystem::file_time_type::clock::now() +
               std::chrono::hours(1);
    };
    EXPECT_EQ(queue.reclaimStale(std::chrono::seconds(30)), 0u)
        << "a fresh lease must survive a fast observer clock";
    EXPECT_TRUE(std::filesystem::exists(
        queue.leasePath(key, "w1")));

    // Observer wall clock running two hours SLOW: wall-clock
    // staleness would never fire and the dead worker's cell would
    // be stuck forever. The probe comparison reclaims it.
    backdate(queue.leasePath(key, "w1"),
             std::chrono::seconds(3600));
    queue.wallClock = [] {
        return std::filesystem::file_time_type::clock::now() -
               std::chrono::hours(2);
    };
    EXPECT_EQ(queue.reclaimStale(std::chrono::seconds(30)), 1u)
        << "a stale lease must be reclaimed under a slow observer "
           "clock";
    EXPECT_TRUE(std::filesystem::exists(queue.pendingPath(key)));

    // The decisions really came from the probe file, not the
    // injected clock.
    bool sawProbe = false;
    for (const auto &entry : std::filesystem::directory_iterator(
             dir.sub("q") + "/tmp")) {
        sawProbe |= entry.path().filename().string().rfind(
                        ".probe.", 0) == 0;
    }
    EXPECT_TRUE(sawProbe);
}

TEST(Worker, CapacityPoolDrainsWithZeroDuplicateSimulations)
{
    const TempDir dir("capacity");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    const auto specs = smallGrid();
    for (const auto &spec : specs)
        queue.enqueue(spec);

    // One daemon, capacity 2: the internal pool holds (and
    // heartbeats) two leased cells at once but must behave exactly
    // like two cooperating capacity-1 workers — every cell
    // simulated exactly once, nothing lost, queue left empty.
    dist::WorkerOptions opts;
    opts.workerId = "big-box";
    opts.capacity = 2;
    opts.drain = true;
    opts.poll = std::chrono::milliseconds(10);
    const dist::WorkerStats stats =
        dist::runWorker(dir.sub("q"), cache, opts);

    EXPECT_EQ(stats.claimed, specs.size());
    EXPECT_EQ(stats.simulated, specs.size())
        << "zero duplicate simulations across the pool";
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_TRUE(queue.scan().drained());
    EXPECT_TRUE(queue.status().leases.empty());
    for (const auto &spec : specs) {
        exp::RunResult out;
        EXPECT_TRUE(cache.lookup(spec, out)) << spec.id;
    }
}

TEST(Worker, CapacityPoolSharesTheMaxCellsBudgetExactly)
{
    const TempDir dir("budget");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    const auto specs = smallGrid();
    ASSERT_EQ(specs.size(), 4u);
    for (const auto &spec : specs)
        queue.enqueue(spec);

    // maxCells applies to the pool as a whole and is reserved
    // before each claim, so capacity 2 with a budget of 2 completes
    // exactly 2 cells — never 3.
    dist::WorkerOptions opts;
    opts.workerId = "bounded";
    opts.capacity = 2;
    opts.maxCells = 2;
    opts.poll = std::chrono::milliseconds(10);
    const dist::WorkerStats stats =
        dist::runWorker(dir.sub("q"), cache, opts);

    EXPECT_EQ(stats.cacheHits + stats.simulated, 2u);
    EXPECT_EQ(queue.scan().pending, 2u);
    EXPECT_EQ(queue.scan().claimed, 0u);
}

TEST(Dispatch, StreamsRowsInSpecOrderByteIdenticalToAssembly)
{
    const TempDir dir("stream");
    exp::ResultCache cache(dir.sub("cache"));

    // A grid with a failing cell in the middle: streamed rows must
    // cover error rows too, and still arrive in spec order.
    std::vector<exp::ExperimentSpec> specs = smallGrid();
    exp::ExperimentSpec broken;
    broken.id = "broken";
    broken.labels = {{"cell", "broken"}};
    specs.insert(specs.begin() + 2, broken);

    std::vector<std::size_t> order;
    std::ostringstream streamed;
    exp::CsvWriter writer(streamed);
    dist::DispatchOptions opts;
    opts.spawnWorkers = 2;
    opts.poll = std::chrono::milliseconds(10);
    opts.onResult = [&](std::size_t index,
                        const exp::RunResult &res) {
        order.push_back(index);
        writer.append(res);
    };
    const dist::DispatchOutcome outcome =
        dist::runDistributed(specs, dir.sub("q"), cache, opts);

    // Every row streamed exactly once, in spec order (the reorder
    // buffer hides completion order).
    ASSERT_EQ(order.size(), specs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);

    // The streamed CSV is byte-identical to writing the assembled
    // vector at the end — the acceptance property behind
    // `sweep_grid --distributed --stream-csv`.
    EXPECT_EQ(streamed.str(), toCsv(outcome.results));
    EXPECT_FALSE(outcome.results[2].ok);

    // A warm re-dispatch streams everything from the phase-1 cache
    // scan (the failed cell re-runs), same order, same bytes.
    std::vector<std::size_t> order2;
    std::ostringstream streamed2;
    exp::CsvWriter writer2(streamed2);
    opts.onResult = [&](std::size_t index,
                        const exp::RunResult &res) {
        order2.push_back(index);
        writer2.append(res);
    };
    const dist::DispatchOutcome again =
        dist::runDistributed(specs, dir.sub("q"), cache, opts);
    ASSERT_EQ(order2.size(), specs.size());
    for (std::size_t i = 0; i < order2.size(); ++i)
        EXPECT_EQ(order2[i], i);
    EXPECT_EQ(streamed2.str(), toCsv(again.results));
}

TEST(Dispatch, CleansUpClaimsOfWorkersThatDiedAfterPublishing)
{
    const TempDir dir("publishdie");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    // A worker claims the cell, publishes its result to the shared
    // cache, then dies before releasing: the claim and lease rot on
    // the queue. The dispatcher must resolve the cell from the
    // cache AND sweep the leftovers, so a finished sweep leaves an
    // empty queue even with no workers left running.
    const exp::ExperimentSpec spec = fastSpec("cell");
    queue.enqueue(spec);
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("died-after-store", claim));
    cache.store(spec, exp::runCell(spec));

    dist::DispatchOptions opts;
    opts.poll = std::chrono::milliseconds(10);
    const dist::DispatchOutcome outcome =
        dist::runDistributed({spec}, dir.sub("q"), cache, opts);

    ASSERT_EQ(outcome.results.size(), 1u);
    EXPECT_TRUE(outcome.results[0].ok);
    EXPECT_EQ(outcome.localWork.simulated, 0u);
    EXPECT_TRUE(queue.scan().drained());
    EXPECT_FALSE(std::filesystem::exists(
        queue.claimedPath(exp::specKey(spec), "died-after-store")));
    EXPECT_FALSE(std::filesystem::exists(
        queue.leasePath(exp::specKey(spec), "died-after-store")));
}

TEST(WorkQueue, WorkerMetricsRoundTripWithProbeAges)
{
    const TempDir dir("metrics");
    dist::WorkQueue queue(dir.sub("q"));

    dist::WorkerMetrics m;
    m.workerId = "host-1-p0";
    m.claimed = 5;
    m.simulated = 3;
    m.cacheHits = 2;
    m.failures = 1;
    m.simSeconds = 0.25;
    m.wallSeconds = 1.5;
    queue.publishMetrics(m);

    // Republishing overwrites in place (one file per worker), and a
    // second worker publishes alongside.
    m.claimed = 6;
    queue.publishMetrics(m);
    dist::WorkerMetrics other;
    other.workerId = "host-2-p0";
    other.simulated = 1;
    other.simSeconds = 0.05;
    other.wallSeconds = 0.4;
    queue.publishMetrics(other);

    const std::vector<dist::WorkerMetrics> all =
        queue.workerMetrics();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].workerId, "host-1-p0");
    EXPECT_EQ(all[0].claimed, 6u);
    EXPECT_EQ(all[0].simulated, 3u);
    EXPECT_EQ(all[0].cacheHits, 2u);
    EXPECT_EQ(all[0].failures, 1u);
    EXPECT_DOUBLE_EQ(all[0].simSeconds, 0.25);
    EXPECT_DOUBLE_EQ(all[0].wallSeconds, 1.5);
    EXPECT_EQ(all[1].workerId, "host-2-p0");
    EXPECT_EQ(all[1].simulated, 1u);
    // Ages come from the probe clock and cannot run backwards.
    EXPECT_GE(all[0].ageSeconds, 0.0);

    // A garbage file is skipped, never a wrong row.
    {
        std::ofstream os(queue.metricsPath("broken"));
        os << "{ not json";
    }
    EXPECT_EQ(queue.workerMetrics().size(), 2u);
    EXPECT_EQ(queue.purge() > 0, true);
    EXPECT_TRUE(queue.workerMetrics().empty());
}

TEST(Worker, PublishesMetricsAfterEveryResolvedClaim)
{
    const TempDir dir("worker-metrics");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    const auto specs = smallGrid();
    for (const auto &spec : specs)
        queue.enqueue(spec);

    dist::WorkerOptions opts;
    opts.workerId = "wm";
    opts.drain = true;
    opts.poll = std::chrono::milliseconds(10);
    const dist::WorkerStats stats =
        dist::runWorker(dir.sub("q"), cache, opts);
    ASSERT_EQ(stats.simulated, specs.size());

    const std::vector<dist::WorkerMetrics> all =
        queue.workerMetrics();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].workerId, "wm");
    EXPECT_EQ(all[0].claimed, specs.size());
    EXPECT_EQ(all[0].simulated, specs.size());
    EXPECT_EQ(all[0].cacheHits, 0u);
    EXPECT_EQ(all[0].failures, 0u);
    EXPECT_GT(all[0].simSeconds, 0.0);
    EXPECT_GT(all[0].wallSeconds, 0.0);
}

TEST(Slice, EntriesRoundTripThroughClaim)
{
    const TempDir dir("slice-claim");
    dist::WorkQueue queue(dir.sub("q"));

    const exp::ExperimentSpec spec = fastSpec("cell"); // 12 ms total
    const Tick step = 5 * kTicksPerMs;
    EXPECT_EQ(dist::WorkQueue::sliceCount(spec, step), 3u);

    const std::string key = queue.enqueueSlice(spec, step, 1);
    EXPECT_EQ(key, dist::WorkQueue::sliceKeyFor(exp::specKey(spec),
                                                step, 1));

    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w1", claim));
    EXPECT_TRUE(claim.isSlice);
    EXPECT_EQ(claim.key, key);
    EXPECT_EQ(claim.baseKey, exp::specKey(spec));
    EXPECT_EQ(claim.step, step);
    EXPECT_EQ(claim.index, 1u);
    EXPECT_EQ(claim.t0, 5 * kTicksPerMs);
    EXPECT_EQ(claim.t1, 10 * kTicksPerMs);
    EXPECT_EQ(claim.total, 12 * kTicksPerMs);
    EXPECT_EQ(claim.spec, spec);

    // Re-enqueueing a claimed slice is a skip, which is what makes
    // the "enqueue successor, then release" crash protocol safe to
    // replay from any point.
    const std::size_t skipped = queue.counters().skipped;
    queue.enqueueSlice(spec, step, 1);
    EXPECT_EQ(queue.counters().skipped, skipped + 1);

    queue.release(claim);
    EXPECT_TRUE(queue.scan().drained());

    // Bounds are validated eagerly.
    EXPECT_THROW(queue.enqueueSlice(spec, step, 3),
                 std::invalid_argument);
    EXPECT_THROW(queue.enqueueSlice(spec, 0, 0),
                 std::invalid_argument);
}

TEST(Slice, TamperedEntriesAreQuarantinedNeverSimulated)
{
    const TempDir dir("slice-corrupt");
    dist::WorkQueue queue(dir.sub("q"));

    const exp::ExperimentSpec spec = fastSpec("cell");
    const Tick step = 5 * kTicksPerMs;
    const std::string base = exp::specKey(spec);

    // A slice document filed under the wrong slice key: the claim
    // path recomputes the key and refuses to run it.
    const std::string wrongKey =
        dist::WorkQueue::sliceKeyFor(base, step, 2);
    queue.enqueueSlice(spec, step, 0);
    std::filesystem::rename(
        queue.pendingPath(
            dist::WorkQueue::sliceKeyFor(base, step, 0)),
        queue.pendingPath(wrongKey));

    // And one that is outright truncated garbage.
    const std::string gibberishKey(16, 'a');
    {
        std::ofstream os(queue.pendingPath(gibberishKey));
        os << "sysscale-slice v1\nbase = oops";
    }

    dist::Claim claim;
    EXPECT_FALSE(queue.tryClaim("w1", claim));
    EXPECT_EQ(queue.counters().corrupt, 2u);
    EXPECT_TRUE(queue.scan().drained());
}

TEST(Slice, SlicedDispatchMatchesUnslicedByteForByte)
{
    const TempDir dir("slice-identity");
    exp::ResultCache cache(dir.sub("cache"));

    // Two workers drain a grid whose 12 ms cells each split into
    // three checkpoint-chained slices.
    const auto specs = smallGrid();
    dist::DispatchOptions opts;
    opts.spawnWorkers = 2;
    opts.poll = std::chrono::milliseconds(10);
    opts.sliceTicks = 5 * kTicksPerMs;
    const dist::DispatchOutcome outcome =
        dist::runDistributed(specs, dir.sub("q"), cache, opts);
    EXPECT_EQ(outcome.localWork.simulated, 3 * specs.size())
        << "each slice simulated exactly once across both workers";
    for (const auto &res : outcome.results)
        EXPECT_TRUE(res.ok) << res.id << ": " << res.error;

    // Against an independent unsliced simulation, every field but
    // the host wall-clock matches bit for bit — slicing is invisible
    // in the output.
    exp::RunnerOptions iopts;
    iopts.jobs = 1;
    const auto independent = exp::ExperimentRunner(iopts).run(specs);
    ASSERT_EQ(independent.size(), outcome.results.size());
    for (std::size_t i = 0; i < independent.size(); ++i) {
        exp::RunResult a = outcome.results[i];
        exp::RunResult b = independent[i];
        a.hostSeconds = b.hostSeconds = 0.0;
        EXPECT_EQ(exp::csvRow(a), exp::csvRow(b)) << specs[i].id;
        EXPECT_EQ(a.statsDump, b.statsDump) << specs[i].id;
    }
}

TEST(Slice, ChainCrashResumesWithZeroDuplicateSimulation)
{
    const TempDir dir("slice-crash");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    const exp::ExperimentSpec spec = fastSpec("cell");
    const Tick step = 5 * kTicksPerMs; // 3 slices.
    queue.enqueueSlice(spec, step, 0);

    // A worker claims slice 0, simulates it, publishes its chain
    // snapshot — and dies before enqueueing the successor or
    // releasing the claim.
    dist::Claim claim;
    ASSERT_TRUE(queue.tryClaim("w-dead", claim));
    ASSERT_TRUE(claim.isSlice);
    exp::SliceOptions so;
    so.t0 = claim.t0;
    so.t1 = claim.t1;
    so.outSnap = queue.snapshotPath(claim.baseKey, claim.t1);
    ASSERT_TRUE(exp::runCellSlice(claim.spec, so).ok);
    backdate(queue.leasePath(claim.key, "w-dead"),
             std::chrono::seconds(3600));

    // A healthy worker drains the rest: it reclaims the stale slice
    // claim, recognizes the published snapshot as its completion
    // marker (snapshot hit, no re-simulation), and runs only the two
    // remaining slices of the chain.
    dist::WorkerOptions wopts;
    wopts.workerId = "w-alive";
    wopts.drain = true;
    wopts.poll = std::chrono::milliseconds(10);
    wopts.leaseTimeout = std::chrono::seconds(60);
    const dist::WorkerStats stats =
        dist::runWorker(dir.sub("q"), cache, wopts);
    EXPECT_EQ(stats.reclaims, 1u);
    EXPECT_EQ(stats.cacheHits, 1u) << "slice 0 resolves by snapshot";
    EXPECT_EQ(stats.simulated, 2u) << "only slices 1 and 2 run";
    EXPECT_TRUE(queue.scan().drained());

    // The assembled cell is byte-identical to an unsliced run.
    exp::RunResult chained;
    ASSERT_TRUE(cache.lookup(spec, chained));
    exp::RunResult whole = exp::runCell(spec);
    chained.hostSeconds = whole.hostSeconds = 0.0;
    EXPECT_EQ(exp::csvRow(chained), exp::csvRow(whole));
    EXPECT_EQ(chained.statsDump, whole.statsDump);
}

TEST(Slice, CorruptChainSnapshotDegradesNeverCrashes)
{
    const TempDir dir("slice-degrade");
    exp::ResultCache cache(dir.sub("cache"));
    dist::WorkQueue queue(dir.sub("q"));

    const exp::ExperimentSpec spec = fastSpec("cell");
    const Tick step = 5 * kTicksPerMs;
    const std::string base = exp::specKey(spec);

    // Slice 1 is on the queue but its input snapshot — the chain
    // handoff at t0 — is corrupt on disk. The worker must degrade
    // to a cache miss (re-simulate the prefix inside the slice),
    // finish the chain, and still produce the byte-identical cell.
    {
        std::ofstream os(queue.snapshotPath(base, step));
        os << "sysscale-snap v1\nnot a real snapshot\n";
    }
    queue.enqueueSlice(spec, step, 1);

    dist::WorkerOptions wopts;
    wopts.workerId = "w1";
    wopts.drain = true;
    wopts.poll = std::chrono::milliseconds(10);
    const dist::WorkerStats stats =
        dist::runWorker(dir.sub("q"), cache, wopts);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.simulated, 2u) << "slices 1 and 2";
    EXPECT_TRUE(queue.scan().drained());

    exp::RunResult chained;
    ASSERT_TRUE(cache.lookup(spec, chained));
    EXPECT_TRUE(chained.ok) << chained.error;
    exp::RunResult whole = exp::runCell(spec);
    chained.hostSeconds = whole.hostSeconds = 0.0;
    EXPECT_EQ(exp::csvRow(chained), exp::csvRow(whole));
    EXPECT_EQ(chained.statsDump, whole.statsDump);
}

TEST(Slice, FailedSliceFailsItsCellLoudly)
{
    const TempDir dir("slice-fail");
    exp::ResultCache cache(dir.sub("cache"));

    // An unknown governor makes every slice of the cell fail
    // validation inside runCellSlice. The chain must surface one
    // loud error row for the *cell* (base key), exactly like an
    // unsliced failure — and a healthy sibling cell still resolves.
    exp::ExperimentSpec bad = fastSpec("bad");
    bad.governor = "no-such-governor";
    std::vector<exp::ExperimentSpec> specs{bad, fastSpec("good")};

    dist::DispatchOptions opts;
    opts.spawnWorkers = 1;
    opts.poll = std::chrono::milliseconds(10);
    opts.sliceTicks = 5 * kTicksPerMs;
    const dist::DispatchOutcome outcome =
        dist::runDistributed(specs, dir.sub("q"), cache, opts);
    EXPECT_EQ(outcome.failedCells, 1u);
    EXPECT_FALSE(outcome.results[0].ok);
    EXPECT_NE(outcome.results[0].error.find("governor"),
              std::string::npos)
        << outcome.results[0].error;
    EXPECT_TRUE(outcome.results[1].ok);
}
