#include "dist/work_queue.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "exp/cache.hh"
#include "exp/spec_codec.hh"
#include "sim/snapshot.hh"

namespace fs = std::filesystem;

namespace sysscale {
namespace dist {

namespace {

constexpr std::size_t kKeyLen = 16; //!< specKey() hex digits.

/** Values of the `record` key, one per queue record kind. */
constexpr const char *kEntryRecord = "queue-entry";
constexpr const char *kFailureRecord = "failure";
constexpr const char *kMetricsRecord = "worker-metrics";

/** File name suffix of a worker's metrics record. */
constexpr const char *kMetricsSuffix = ".rec";

bool
isHexKey(const std::string &s)
{
    if (s.size() != kKeyLen)
        return false;
    for (const char c : s) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    return true;
}

/** Split "<key>.<worker>" claim/lease file names; empty on garbage. */
bool
splitClaimName(const std::string &name, std::string &key,
               std::string &worker)
{
    if (name.size() < kKeyLen + 2 || name[kKeyLen] != '.')
        return false;
    key = name.substr(0, kKeyLen);
    worker = name.substr(kKeyLen + 1);
    return isHexKey(key) && !worker.empty();
}

/**
 * The record of a pending queue entry: the cell's serialized spec
 * under its content key, plus — for one slice of a checkpoint chain
 * (@p step nonzero) — the slicing period and slice index.
 */
std::string
encodeEntry(const exp::ExperimentSpec &spec, const std::string &baseKey,
            Tick step, std::uint64_t index)
{
    SnapshotWriter w(baseKey, 0);
    w.putString("record", kEntryRecord);
    w.putString("cell", exp::serializeSpec(spec));
    if (step != 0) {
        w.putU64("step", step);
        w.putU64("index", index);
    }
    return w.str();
}

/** File key of a queue entry: the cell's key, or its slice's. */
std::string
entryKey(const std::string &baseKey, Tick step, std::uint64_t index)
{
    return step == 0 ? baseKey
                     : WorkQueue::sliceKeyFor(baseKey, step, index);
}

/** A decoded queue entry (see encodeEntry). */
struct Entry
{
    exp::ExperimentSpec spec;
    std::string baseKey;
    Tick step = 0; //!< Zero for a whole cell.
    std::uint64_t index = 0;
};

/**
 * Inverse of encodeEntry. Throws (SnapshotError or the spec codec's
 * errors) on any record that does not decode into a consistent
 * entry: a spec whose content key differs from the header's, a zero
 * slicing period, or a slice index past the end of its chain.
 */
Entry
decodeEntry(const std::string &text)
{
    SnapshotReader r(text);
    if (r.getString("record") != kEntryRecord)
        throw SnapshotError("not a queue entry");
    Entry e;
    e.baseKey = r.specKey();
    e.spec = exp::parseSpec(r.getString("cell"));
    if (r.has("step")) {
        e.step = r.getU64("step");
        e.index = r.getU64("index");
        if (e.step == 0)
            throw SnapshotError("zero slice step");
    }
    r.finish();
    if (exp::specKey(e.spec) != e.baseKey)
        throw SnapshotError("content key mismatch");
    if (e.step != 0 &&
        e.index >= WorkQueue::sliceCount(e.spec, e.step))
        throw SnapshotError("slice index past the chain");
    return e;
}

/** @p ref minus @p path's mtime, in (possibly negative) seconds. */
double
ageAgainst(const fs::file_time_type ref, const fs::path &path,
           std::error_code &ec)
{
    const auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return 0.0;
    return std::chrono::duration<double>(ref - mtime).count();
}

} // anonymous namespace

WorkQueue::WorkQueue(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    for (const char *sub :
         {"pending", "claimed", "leases", "failed", "snaps",
          "corrupt", "tmp", "metrics"}) {
        const fs::path p = fs::path(dir_) / sub;
        fs::create_directories(p, ec);
        if (ec || !fs::is_directory(p)) {
            throw std::runtime_error("WorkQueue: cannot create \"" +
                                     p.string() + "\"");
        }
    }
}

bool
WorkQueue::queueable(const exp::ExperimentSpec &spec)
{
    return exp::isSerializableSpec(spec);
}

std::string
WorkQueue::pendingPath(const std::string &key) const
{
    return dir_ + "/pending/" + key + ".spec";
}

std::string
WorkQueue::claimedPath(const std::string &key,
                       const std::string &workerId) const
{
    return dir_ + "/claimed/" + key + "." + workerId;
}

std::string
WorkQueue::leasePath(const std::string &key,
                     const std::string &workerId) const
{
    return dir_ + "/leases/" + key + "." + workerId;
}

std::string
WorkQueue::failedPath(const std::string &key) const
{
    return dir_ + "/failed/" + key;
}

std::string
WorkQueue::metricsPath(const std::string &workerId) const
{
    return dir_ + "/metrics/" + workerId + kMetricsSuffix;
}

void
WorkQueue::note(const std::string &event)
{
    if (onEvent)
        onEvent(event);
}

bool
WorkQueue::quarantine(const std::string &path,
                      const std::string &reason)
{
    std::error_code ec;
    const fs::path src(path);
    const fs::path dst = fs::path(dir_) / "corrupt" /
                         (src.filename().string() + "." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(tmpSerial_++));
    fs::rename(src, dst, ec);
    if (ec) {
        // Someone else moved or claimed it first; nothing to report.
        return false;
    }
    ++counters_.corrupt;
    note("corrupt: " + src.filename().string() + " quarantined to " +
         dst.string() + " (" + reason + ")");
    return true;
}

bool
WorkQueue::stage(const std::string &path, const std::string &text)
{
    const std::string tmp =
        dir_ + "/tmp/" + fs::path(path).filename().string() + "." +
        std::to_string(::getpid()) + "." + std::to_string(tmpSerial_++);
    std::error_code ec;
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os << text;
        os.close();
        if (!os) {
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

std::string
WorkQueue::enqueueEntry(const exp::ExperimentSpec &spec,
                        const std::string &baseKey, Tick step,
                        std::uint64_t index)
{
    const std::string key = entryKey(baseKey, step, index);

    // A failure marker that does not decode as this cell's error row
    // would otherwise wedge the cell: counted as failed here, absent
    // to failedResult(). Quarantine it (and its retained entry) so
    // the cell runs again.
    std::error_code ec;
    exp::RunResult failed;
    if (fs::exists(failedPath(baseKey), ec) &&
        !failedResult(baseKey, failed)) {
        if (quarantine(failedPath(baseKey),
                       "undecodable failure marker"))
            quarantine(failedPath(baseKey) + ".spec",
                       "entry of an undecodable failure marker");
    }

    // The entry already pending or claimed — or its cell already
    // failed — is a skip. That idempotence is what makes the
    // crash-recovery "enqueue successor, then release" order safe to
    // replay.
    bool present = fs::exists(pendingPath(key), ec) ||
                   fs::exists(failedPath(baseKey), ec);
    if (!present) {
        for (const auto &entry : fs::directory_iterator(
                 fs::path(dir_) / "claimed", ec)) {
            if (entry.path().filename().string().rfind(key + ".",
                                                       0) == 0) {
                present = true;
                break;
            }
        }
    }
    if (present) {
        ++counters_.skipped;
        return key;
    }
    if (!stage(pendingPath(key),
               encodeEntry(spec, baseKey, step, index))) {
        throw std::runtime_error("WorkQueue: cannot enqueue \"" + key +
                                 "\"");
    }
    ++counters_.enqueued;
    return key;
}

std::string
WorkQueue::enqueue(const exp::ExperimentSpec &spec)
{
    if (!queueable(spec)) {
        throw std::invalid_argument(
            "WorkQueue: cell \"" + spec.id +
            "\" carries runtime hooks and cannot be serialized");
    }
    return enqueueEntry(spec, exp::specKey(spec), 0, 0);
}

std::string
WorkQueue::sliceKeyFor(const std::string &baseKey, Tick step,
                       std::uint64_t index)
{
    // Deterministic across processes: every worker and dispatcher
    // derives the same chain keys from the same (cell, period).
    const std::string salt = "slice:" + baseKey + ":" +
                             std::to_string(step) + ":" +
                             std::to_string(index);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      snapshotFnv1a64(salt)));
    return buf;
}

std::uint64_t
WorkQueue::sliceCount(const exp::ExperimentSpec &spec, Tick step)
{
    if (step == 0)
        return 1;
    const Tick total = spec.warmup + spec.window;
    return (total + step - 1) / step;
}

std::string
WorkQueue::snapshotPath(const std::string &baseKey, Tick t) const
{
    return dir_ + "/snaps/" + baseKey + ".t" + std::to_string(t) +
           ".snap";
}

std::string
WorkQueue::enqueueSlice(const exp::ExperimentSpec &spec, Tick step,
                        std::uint64_t index)
{
    if (!queueable(spec)) {
        throw std::invalid_argument(
            "WorkQueue: cell \"" + spec.id +
            "\" carries runtime hooks and cannot be serialized");
    }
    if (step == 0) {
        throw std::invalid_argument(
            "WorkQueue: slice step must be nonzero");
    }
    if (index >= sliceCount(spec, step)) {
        throw std::invalid_argument(
            "WorkQueue: slice index " + std::to_string(index) +
            " past the end of the chain");
    }
    return enqueueEntry(spec, exp::specKey(spec), step, index);
}

bool
WorkQueue::tryClaim(const std::string &workerId, Claim &out)
{
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "pending", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() != kKeyLen + 5 ||
            name.compare(kKeyLen, 5, ".spec") != 0 ||
            !isHexKey(name.substr(0, kKeyLen))) {
            quarantine(entry.path().string(),
                       "not a <key>.spec file");
            continue;
        }
        const std::string key = name.substr(0, kKeyLen);

        // Lease before rename: a visible claim always has a lease,
        // so reclaimStale() can treat a missing lease as a crash.
        heartbeatPath(leasePath(key, workerId), workerId);
        const std::string claimed = claimedPath(key, workerId);
        fs::rename(entry.path(), claimed, ec);
        if (ec) {
            // Lost the race for this cell; drop the lease and try
            // the next one.
            fs::remove(leasePath(key, workerId), ec);
            continue;
        }

        // The rename is ours. A file that does not decode into the
        // entry it is named for must never be simulated — move it
        // aside loudly and keep scanning; the dispatcher re-enqueues
        // the cell from its own copy of the spec.
        Entry e;
        try {
            e = decodeEntry(readSnapshotFile(claimed));
            if (entryKey(e.baseKey, e.step, e.index) != key)
                throw SnapshotError("entry key mismatch");
        } catch (const std::exception &err) {
            quarantine(claimed, err.what());
            fs::remove(leasePath(key, workerId), ec);
            continue;
        }

        out = Claim{};
        out.key = key;
        out.workerId = workerId;
        out.spec = std::move(e.spec);
        if (e.step != 0) {
            out.isSlice = true;
            out.baseKey = e.baseKey;
            out.step = e.step;
            out.index = e.index;
            out.total = out.spec.warmup + out.spec.window;
            out.t0 = e.index * e.step;
            out.t1 = std::min(out.t0 + e.step, out.total);
        }
        ++counters_.claims;
        return true;
    }
    return false;
}

void
WorkQueue::heartbeatPath(const std::string &lease,
                         const std::string &workerId)
{
    // Rewritten in place: the mtime is the signal, the content is
    // diagnostic only. A torn write is harmless.
    // lint:allow raw-queue-write -- mtime-only heartbeat; a torn
    // write is harmless by design (content is diagnostic)
    std::ofstream os(lease, std::ios::binary | std::ios::trunc);
    if (os)
        os << workerId << "\n";
}

void
WorkQueue::heartbeat(const Claim &claim)
{
    heartbeatPath(leasePath(claim.key, claim.workerId),
                  claim.workerId);
}

void
WorkQueue::release(const Claim &claim)
{
    std::error_code ec;
    fs::remove(claimedPath(claim.key, claim.workerId), ec);
    fs::remove(leasePath(claim.key, claim.workerId), ec);
    ++counters_.releases;
}

void
WorkQueue::fail(const Claim &claim, const exp::RunResult &res)
{
    // A failed slice fails its *cell*: the marker carries the base
    // key the dispatcher is watching, and the rest of the chain is
    // simply never enqueued.
    const std::string cellKey =
        claim.isSlice ? claim.baseKey : claim.key;
    SnapshotWriter w(cellKey, 0);
    w.putString("record", kFailureRecord);
    exp::putResult(w, res);
    if (stage(failedPath(cellKey), w.str()))
        ++counters_.failures;

    // Keep a whole-cell entry next to the marker: retryFailed() can
    // then put the cell back on the queue without needing a
    // dispatcher's copy of the grid. A slice's claimed file is a
    // chain entry, so write the whole-cell entry afresh — a retry
    // re-runs the whole cell.
    std::error_code ec;
    if (claim.isSlice) {
        stage(failedPath(cellKey) + ".spec",
              encodeEntry(claim.spec, cellKey, 0, 0));
        fs::remove(claimedPath(claim.key, claim.workerId), ec);
    } else {
        fs::rename(claimedPath(claim.key, claim.workerId),
                   failedPath(cellKey) + ".spec", ec);
        if (ec)
            fs::remove(claimedPath(claim.key, claim.workerId), ec);
    }
    fs::remove(leasePath(claim.key, claim.workerId), ec);
}

bool
WorkQueue::failedResult(const std::string &key,
                        exp::RunResult &out) const
{
    try {
        SnapshotReader r(readSnapshotFile(failedPath(key)));
        if (r.specKey() != key ||
            r.getString("record") != kFailureRecord)
            return false;
        exp::RunResult res = exp::getResult(r);
        r.finish();
        if (res.ok)
            return false;
        out = std::move(res);
        return true;
    } catch (const std::exception &) {
        return false; // Treated as absent; the cell will re-run.
    }
}

void
WorkQueue::clearFailed(const std::string &key)
{
    std::error_code ec;
    fs::remove(failedPath(key), ec);
    fs::remove(failedPath(key) + ".spec", ec);
}

void
WorkQueue::discardResolved(const std::string &key)
{
    std::error_code ec;
    fs::remove(pendingPath(key), ec);
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "claimed", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(key + ".", 0) != 0)
            continue;
        fs::remove(entry.path(), ec);
        fs::remove(fs::path(dir_) / "leases" / name, ec);
    }
}

std::set<std::string>
WorkQueue::inFlightKeys() const
{
    std::set<std::string> keys;
    std::error_code ec;
    for (const char *sub : {"pending", "claimed"}) {
        for (const auto &entry :
             fs::directory_iterator(fs::path(dir_) / sub, ec)) {
            const std::string name =
                entry.path().filename().string();
            if (name.size() >= kKeyLen &&
                isHexKey(name.substr(0, kKeyLen)))
                keys.insert(name.substr(0, kKeyLen));
        }
    }
    return keys;
}

fs::file_time_type
WorkQueue::probeNow() const
{
    // Rewritten in place, like a lease heartbeat: only the mtime
    // matters. One file per observer process so concurrent
    // inspectors never contend.
    const fs::path probe = fs::path(dir_) / "tmp" /
                           (".probe." + std::to_string(::getpid()));
    {
        // lint:allow raw-queue-write -- mtime-only probe under
        // tmp/; never read as data, only stat'ed for its clock
        std::ofstream os(probe, std::ios::binary | std::ios::trunc);
        if (os)
            os << "probe\n";
    }
    std::error_code ec;
    const auto mtime = fs::last_write_time(probe, ec);
    if (!ec)
        return mtime;
    return wallClock ? wallClock()
                     // lint:allow nondeterminism -- this IS the
                     // injectable wallClock seam's default
                     : fs::file_time_type::clock::now();
}

std::size_t
WorkQueue::reclaimStale(std::chrono::seconds timeout)
{
    std::error_code ec;
    std::size_t reclaimed = 0;

    // One probe touch serves the whole pass: every staleness test
    // compares two mtimes stamped by the filesystem serving the
    // queue, so machines with skewed wall clocks still agree on
    // which leases are dead.
    const fs::file_time_type ref = probeNow();
    const double limit =
        std::chrono::duration<double>(timeout).count();

    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "claimed", ec)) {
        const std::string name = entry.path().filename().string();
        std::string key, worker;
        if (!splitClaimName(name, key, worker)) {
            quarantine(entry.path().string(),
                       "not a <key>.<worker> claim");
            continue;
        }
        const fs::path lease = leasePath(key, worker);
        bool stale;
        if (!fs::exists(lease, ec)) {
            // tryClaim writes the lease before the claim rename, so
            // a claim without one means its worker died in between
            // (or a racing reclaimer already took the lease).
            stale = true;
        } else {
            std::error_code age_ec;
            stale = ageAgainst(ref, lease, age_ec) > limit &&
                    !age_ec;
        }
        if (!stale)
            continue;
        fs::rename(entry.path(), pendingPath(key), ec);
        if (ec)
            continue; // The worker released/failed it meanwhile.
        fs::remove(lease, ec);
        ++reclaimed;
        ++counters_.reclaims;
        note("reclaimed stale claim " + key + " from worker " +
             worker);
    }

    // Orphaned leases: crash between lease write and claim rename.
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "leases", ec)) {
        const std::string name = entry.path().filename().string();
        std::string key, worker;
        if (!splitClaimName(name, key, worker)) {
            fs::remove(entry.path(), ec);
            continue;
        }
        std::error_code age_ec;
        if (!fs::exists(claimedPath(key, worker), ec) &&
            ageAgainst(ref, entry.path(), age_ec) > limit &&
            !age_ec) {
            fs::remove(entry.path(), ec);
        }
    }
    return reclaimed;
}

QueueScan
WorkQueue::scan() const
{
    QueueScan s;
    std::error_code ec;
    for (const auto &entry [[maybe_unused]] :
         fs::directory_iterator(fs::path(dir_) / "pending", ec))
        ++s.pending;
    for (const auto &entry [[maybe_unused]] :
         fs::directory_iterator(fs::path(dir_) / "claimed", ec))
        ++s.claimed;
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "failed", ec)) {
        // Count failure markers only, not the retained .spec files
        // kept alongside them for retryFailed().
        if (isHexKey(entry.path().filename().string()))
            ++s.failed;
    }
    return s;
}

QueueStatus
WorkQueue::status() const
{
    QueueStatus s;
    std::error_code ec;
    const QueueScan counts = scan();
    s.pending = counts.pending;
    s.claimed = counts.claimed;
    s.failed = counts.failed;
    for (const auto &entry [[maybe_unused]] :
         fs::directory_iterator(fs::path(dir_) / "corrupt", ec))
        ++s.corrupt;

    const fs::file_time_type ref = probeNow();
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "leases", ec)) {
        const std::string name = entry.path().filename().string();
        if (onScanFile)
            onScanFile(name);
        std::string key, worker;
        if (!splitClaimName(name, key, worker))
            continue;
        // The lease may have been released between the listing and
        // this stat — a vanished file is normal churn on a live
        // queue, not corruption; skip it silently.
        std::error_code age_ec;
        const double age = ageAgainst(ref, entry.path(), age_ec);
        if (age_ec)
            continue;
        LeaseInfo info;
        info.key = key;
        info.workerId = worker;
        info.ageSeconds = age;
        s.leases.push_back(std::move(info));
    }
    std::sort(s.leases.begin(), s.leases.end(),
              [](const LeaseInfo &a, const LeaseInfo &b) {
                  return a.key != b.key ? a.key < b.key
                                        : a.workerId < b.workerId;
              });
    return s;
}

std::vector<CellInfo>
WorkQueue::listCells() const
{
    std::vector<CellInfo> cells;
    std::error_code ec;
    const fs::file_time_type ref = probeNow();

    // Decode a cell's display id from its serialized spec; strictly
    // read-only — listing a live queue must never quarantine (the
    // claim path owns that) or otherwise perturb the campaign.
    auto decodeId = [&](const std::string &path) -> std::string {
        std::string text;
        try {
            text = readSnapshotFile(path);
        } catch (const SnapshotError &) {
            return std::string(); // Vanished mid-scan: skip signal.
        }
        try {
            const Entry e = decodeEntry(text);
            if (e.step == 0)
                return e.spec.id;
            return e.spec.id + " [slice " + std::to_string(e.index) +
                   "]";
        } catch (const std::exception &) {
            return "(unparsable)";
        }
    };

    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "pending", ec)) {
        const std::string name = entry.path().filename().string();
        if (onScanFile)
            onScanFile(name);
        if (name.size() != kKeyLen + 5 ||
            name.compare(kKeyLen, 5, ".spec") != 0 ||
            !isHexKey(name.substr(0, kKeyLen)))
            continue;
        const std::string id = decodeId(entry.path().string());
        if (id.empty())
            continue; // Claimed or discarded between ls and read.
        CellInfo cell;
        cell.state = "pending";
        cell.key = name.substr(0, kKeyLen);
        cell.specId = id;
        cells.push_back(std::move(cell));
    }

    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "claimed", ec)) {
        const std::string name = entry.path().filename().string();
        if (onScanFile)
            onScanFile(name);
        std::string key, worker;
        if (!splitClaimName(name, key, worker))
            continue;
        const std::string id = decodeId(entry.path().string());
        if (id.empty())
            continue;
        CellInfo cell;
        cell.state = "claimed";
        cell.key = key;
        cell.workerId = worker;
        cell.specId = id;
        std::error_code age_ec;
        const double age =
            ageAgainst(ref, leasePath(key, worker), age_ec);
        cell.leaseAgeSeconds = age_ec ? -1.0 : age;
        cells.push_back(std::move(cell));
    }

    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "failed", ec)) {
        const std::string name = entry.path().filename().string();
        if (onScanFile)
            onScanFile(name);
        if (!isHexKey(name))
            continue;
        CellInfo cell;
        cell.state = "failed";
        cell.key = name;
        exp::RunResult row;
        if (!failedResult(name, row))
            continue; // Marker vanished (cleared) mid-scan.
        cell.error = row.error;
        const std::string id =
            decodeId(entry.path().string() + ".spec");
        cell.specId = id.empty() ? "(spec not retained)" : id;
        cells.push_back(std::move(cell));
    }

    std::sort(cells.begin(), cells.end(),
              [](const CellInfo &a, const CellInfo &b) {
                  return a.state != b.state ? a.state < b.state
                                            : a.key < b.key;
              });
    return cells;
}

void
WorkQueue::publishMetrics(const WorkerMetrics &m)
{
    // Metrics belong to no cell, hence the placeholder spec key.
    SnapshotWriter w("-", 0);
    w.putString("record", kMetricsRecord);
    w.putString("worker", m.workerId);
    w.putU64("claimed", m.claimed);
    w.putU64("simulated", m.simulated);
    w.putU64("cache_hits", m.cacheHits);
    w.putU64("failures", m.failures);
    w.putDouble("sim_seconds", m.simSeconds);
    w.putDouble("wall_seconds", m.wallSeconds);
    stage(metricsPath(m.workerId), w.str()); // Never fails a cell.
}

std::vector<WorkerMetrics>
WorkQueue::workerMetrics() const
{
    std::vector<WorkerMetrics> all;
    std::error_code ec;
    const fs::file_time_type ref = probeNow();
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "metrics", ec)) {
        const fs::path p = entry.path();
        if (p.extension() != kMetricsSuffix)
            continue;
        WorkerMetrics m;
        // Vanished, torn or foreign files are skipped.
        try {
            SnapshotReader r(readSnapshotFile(p.string()));
            if (r.getString("record") != kMetricsRecord)
                continue;
            m.workerId = r.getString("worker");
            m.claimed = r.getU64("claimed");
            m.simulated = r.getU64("simulated");
            m.cacheHits = r.getU64("cache_hits");
            m.failures = r.getU64("failures");
            m.simSeconds = r.getDouble("sim_seconds");
            m.wallSeconds = r.getDouble("wall_seconds");
            r.finish();
        } catch (const std::exception &) {
            continue;
        }
        // The file name is the identity (publishMetrics names it).
        if (p.stem().string() != m.workerId)
            continue;
        std::error_code age_ec;
        m.ageSeconds = ageAgainst(ref, p, age_ec);
        if (age_ec)
            m.ageSeconds = 0.0;
        all.push_back(std::move(m));
    }
    std::sort(all.begin(), all.end(),
              [](const WorkerMetrics &a, const WorkerMetrics &b) {
                  return a.workerId < b.workerId;
              });
    return all;
}

std::size_t
WorkQueue::retryFailed()
{
    std::error_code ec;
    std::vector<std::string> keys;
    for (const auto &entry :
         fs::directory_iterator(fs::path(dir_) / "failed", ec)) {
        const std::string name = entry.path().filename().string();
        if (isHexKey(name))
            keys.push_back(name);
    }

    std::size_t cleared = 0;
    for (const std::string &key : keys) {
        // Rename-first so a concurrent retry cannot double-count:
        // exactly one caller wins the spec file. A marker without a
        // retained spec is just cleared — the next dispatch holds
        // the spec and re-enqueues the cell.
        fs::rename(failedPath(key) + ".spec", pendingPath(key), ec);
        const bool requeued = !ec;
        fs::remove(failedPath(key), ec);
        ++cleared;
        note(requeued
                 ? "retry-failed: " + key + " back in pending"
                 : "retry-failed: cleared marker for " + key +
                       " (no retained spec; next dispatch "
                       "re-enqueues it)");
    }
    return cleared;
}

std::size_t
WorkQueue::purge()
{
    std::error_code ec;
    std::size_t removed = 0;
    for (const char *sub :
         {"pending", "claimed", "leases", "failed", "snaps",
          "corrupt", "tmp", "metrics"}) {
        for (const auto &entry :
             fs::directory_iterator(fs::path(dir_) / sub, ec)) {
            if (fs::remove(entry.path(), ec) && !ec)
                ++removed;
        }
    }
    note("purged " + std::to_string(removed) + " file(s)");
    return removed;
}

std::string
makeWorkerId()
{
    static std::atomic<std::size_t> serial{0};
    char host[256] = "host";
    if (::gethostname(host, sizeof(host) - 1) != 0)
        host[0] = '\0';
    host[sizeof(host) - 1] = '\0';
    std::string id(host[0] ? host : "host");
    for (char &c : id) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-';
        if (!ok)
            c = '-';
    }
    id += "-" + std::to_string(::getpid()) + "-" +
          std::to_string(
              serial.fetch_add(1, std::memory_order_relaxed));
    return id;
}

} // namespace dist
} // namespace sysscale
