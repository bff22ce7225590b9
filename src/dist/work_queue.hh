/**
 * @file
 * Filesystem work-stealing queue for distributed sweeps.
 *
 * One grid fans out across machines through a shared directory (NFS
 * or any POSIX filesystem with atomic rename — no locks, no server):
 *
 *     <queue>/pending/<key>.spec        cells waiting for a worker
 *     <queue>/claimed/<key>.<worker>    cells being simulated
 *     <queue>/leases/<key>.<worker>     heartbeat files (mtime = alive)
 *     <queue>/failed/<key>              published error rows
 *     <queue>/failed/<key>.spec         retained entries (retry-failed)
 *     <queue>/snaps/<key>.t<tick>.snap  checkpoint-chain snapshots
 *     <queue>/metrics/<worker>.rec      worker telemetry
 *     <queue>/corrupt/                  quarantined unreadable files
 *     <queue>/tmp/                      staging for atomic writes
 *                                       + the lease-staleness probe
 *
 * Every file the queue reads back — entries, failure markers, worker
 * metrics — is a record in the snapshot codec (sim/snapshot.hh):
 * strict keys, bit-exact doubles, a trailing checksum. A pending
 * entry holds a cell's serialized exp::ExperimentSpec and is named
 * by its content key (exp::specKey), so the queue inherits the
 * cache's identity rules: duplicate cells collapse to one file and
 * renaming/relabeling never re-enqueues.
 *
 * Claiming is one atomic rename(pending -> claimed): exactly one
 * worker wins a cell, with no coordination beyond the filesystem.
 * While simulating, the winner refreshes its lease file; a claim
 * whose lease goes stale (crashed or partitioned worker) is renamed
 * back into pending/ by whoever notices first, so no cell is ever
 * lost. Results are published through the shared exp::ResultCache —
 * the cache entry *is* the completion marker — and workers check the
 * cache immediately after claiming, so a reclaimed cell whose
 * original worker actually finished is never simulated twice.
 *
 * Corrupt or truncated files never produce a claim (and therefore
 * never a wrong result): they are moved into corrupt/ and reported
 * loudly; the dispatcher re-enqueues the cell from its own spec.
 */

#ifndef SYSSCALE_DIST_WORK_QUEUE_HH
#define SYSSCALE_DIST_WORK_QUEUE_HH

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace sysscale {
namespace dist {

/**
 * One claimed queue entry, owned by a worker until release or fail:
 * either a whole cell or one time-slice of a cell's
 * checkpoint chain (see @ref WorkQueue::enqueueSlice).
 */
struct Claim
{
    std::string key;      //!< File key: specKey, or sliceKeyFor().
    std::string workerId; //!< Worker holding the claim.
    exp::ExperimentSpec spec;

    /** @name Slice claims only. @{ */

    /** Entry is one slice of a checkpoint chain, not a whole cell. */
    bool isSlice = false;

    std::string baseKey;   //!< exp::specKey of the sliced cell.
    Tick step = 0;         //!< Chain slicing period (ticks).
    std::uint64_t index = 0; //!< Slice number, 0-based.
    Tick t0 = 0;           //!< Slice start = index * step.
    Tick t1 = 0;           //!< Slice end = min(t0 + step, total).
    Tick total = 0;        //!< Cell length (warmup + window).
    /** @} */
};

/** Directory occupancy from one scan (point-in-time, racy by design). */
struct QueueScan
{
    std::size_t pending = 0;
    std::size_t claimed = 0;
    std::size_t failed = 0;

    /** No cell waiting or in flight (failed cells are finished). */
    bool drained() const { return pending == 0 && claimed == 0; }
};

/**
 * One live lease, aged against the queue filesystem's own clock (a
 * probe file touched next to the leases — see @ref
 * WorkQueue::status), so the age is meaningful even when observer
 * and worker clocks disagree.
 */
struct LeaseInfo
{
    std::string key;      //!< Cell the lease covers.
    std::string workerId; //!< Worker refreshing it.
    double ageSeconds = 0.0; //!< Probe mtime minus lease mtime.
};

/**
 * One cell visible on the queue, with its spec decoded for display
 * (read-only: inspection never quarantines, claims, or reclaims).
 */
struct CellInfo
{
    /** "pending", "claimed", or "failed". */
    std::string state;
    std::string key;
    std::string workerId; //!< Claimed cells only.

    /**
     * Cell id decoded from the serialized spec via the spec codec;
     * "(unparsable)" when the file does not decode (the claim path
     * will quarantine it — inspection only reports).
     */
    std::string specId;

    /** Failed cells only: the published error text. */
    std::string error;

    /** Claimed cells only; negative when the lease is missing. */
    double leaseAgeSeconds = -1.0;
};

/** Point-in-time queue health, assembled by @ref WorkQueue::status. */
struct QueueStatus
{
    std::size_t pending = 0;
    std::size_t claimed = 0;
    std::size_t failed = 0;
    std::size_t corrupt = 0; //!< Files quarantined under corrupt/.

    /** Every live lease, sorted by key then worker. */
    std::vector<LeaseInfo> leases;
};

/**
 * One worker's self-published campaign telemetry. Workers rewrite
 * their own metrics record (metrics/<workerId>.rec, atomic staged
 * rename) after every completed cell; observers read the whole
 * directory back with @ref WorkQueue::workerMetrics. Ages are
 * measured against the queue filesystem's probe clock, like lease
 * ages, so "last heartbeat" is meaningful across skewed machines.
 */
struct WorkerMetrics
{
    std::string workerId;
    std::size_t claimed = 0;   //!< Cells claimed so far.
    std::size_t simulated = 0; //!< Cells actually simulated.
    std::size_t cacheHits = 0; //!< Claims already completed elsewhere.
    std::size_t failures = 0;  //!< Error rows published.

    /** Simulated (model) seconds completed, summed over cells. */
    double simSeconds = 0.0;

    /** Host wall seconds those simulations took (hostSeconds sum). */
    double wallSeconds = 0.0;

    /**
     * Readers only: probe mtime minus metrics-file mtime — how long
     * since this worker last finished a cell. Ignored on publish.
     */
    double ageSeconds = 0.0;
};

/** Monotonic per-instance counters. */
struct QueueCounters
{
    std::size_t enqueued = 0;  //!< Cells newly written to pending/.
    std::size_t skipped = 0;   //!< Enqueues already present somewhere.
    std::size_t claims = 0;    //!< Successful tryClaim calls.
    std::size_t releases = 0;  //!< Claims completed.
    std::size_t failures = 0;  //!< Error rows published.
    std::size_t reclaims = 0;  //!< Stale claims recovered.
    std::size_t corrupt = 0;   //!< Files quarantined to corrupt/.
};

class WorkQueue
{
  public:
    /**
     * @param dir Queue root; the subdirectory tree is created
     *        (recursively) if absent. Throws std::runtime_error when
     *        it cannot be created.
     */
    explicit WorkQueue(std::string dir);

    const std::string &dir() const { return dir_; }

    /** Whether @p spec can ride the queue (= content-addressable). */
    static bool queueable(const exp::ExperimentSpec &spec);

    /**
     * Put @p spec into pending/ (atomic write) and return its key.
     * A cell already pending, claimed, or failed is skipped (its key
     * is still returned). A failure marker that does not decode as
     * the cell's error row is quarantined with its retained entry,
     * and the cell is enqueued. Throws std::invalid_argument for specs
     * carrying a runtime hook (governorFactory), which cannot be
     * serialized.
     */
    std::string enqueue(const exp::ExperimentSpec &spec);

    /**
     * @name Checkpoint-chained slices.
     *
     * A cell longer than a dispatcher's --slice-s rides the queue as
     * a *chain* of slice entries instead of one monolithic cell:
     * slice i simulates [i*step, min((i+1)*step, total)] of the
     * cell's warmup+window timeline via exp::runCellSlice, restoring
     * the chain's snapshot at t0 and publishing one at t1 under
     * snaps/ (tmp+rename, so observers never read a torn snapshot).
     * Only slice i is on the queue at a time; the worker that
     * completes it enqueues slice i+1 before releasing, and the
     * published snapshot doubles as the slice's completion marker —
     * a reclaimed slice whose snapshot already exists is never
     * simulated twice. A missing or corrupt chain snapshot degrades
     * to a cache miss inside runCellSlice (re-simulate from tick 0),
     * so a damaged chain heals itself instead of wedging; the final
     * slice publishes the cell's RunResult through the shared cache
     * exactly like an unsliced cell, byte-identical to the unsliced
     * run (tests/test_snapshot.cc pins the equivalence, test_dist.cc
     * the queue protocol).
     * @{
     */

    /**
     * File key of slice @p index of the cell with content key
     * @p baseKey under slicing period @p step: 16 hex digits,
     * deterministic across processes (the whole fleet derives the
     * same chain from the same spec).
     */
    static std::string sliceKeyFor(const std::string &baseKey,
                                   Tick step, std::uint64_t index);

    /** Slices in @p spec's chain under period @p step (>= 1). */
    static std::uint64_t sliceCount(const exp::ExperimentSpec &spec,
                                    Tick step);

    /**
     * Put slice @p index of @p spec's chain into pending/ and return
     * its slice key. Idempotent like enqueue(): an entry already
     * pending or claimed — or a cell already failed — is skipped.
     * Throws std::invalid_argument for unserializable specs, a zero
     * @p step, or an index at or past the end of the chain.
     */
    std::string enqueueSlice(const exp::ExperimentSpec &spec,
                             Tick step, std::uint64_t index);

    /**
     * Path of the chain snapshot published at tick @p t of cell
     * @p baseKey (snaps/<baseKey>.t<t>.snap). Existence = the slice
     * ending at @p t completed; validity is re-checked on read.
     */
    std::string snapshotPath(const std::string &baseKey,
                             Tick t) const;
    /** @} */

    /**
     * Claim any pending cell for @p workerId: the lease file is
     * written first, then the cell is renamed into claimed/ — an
     * atomic operation only one contender can win. On success fills
     * @p out and returns true; returns false when nothing claimable
     * remains. Unparsable or key-mismatched files are quarantined
     * (never claimed, never a wrong result) and the scan continues.
     */
    bool tryClaim(const std::string &workerId, Claim &out);

    /** Refresh @p claim's lease (call periodically while simulating). */
    void heartbeat(const Claim &claim);

    /**
     * Drop a finished claim (the result has been published through
     * the shared cache). Idempotent; a concurrently reclaimed claim
     * releases as a no-op.
     */
    void release(const Claim &claim);

    /**
     * Publish an error row for @p claim into failed/ and drop the
     * claim. Failed cells count as finished: they are not retried
     * until a dispatcher explicitly clears them (error rows are
     * never cached, matching the single-process runner). A
     * whole-cell entry is kept alongside the marker
     * (failed/<key>.spec) so @ref retryFailed can put the cell back
     * on the queue without a dispatcher.
     */
    void fail(const Claim &claim, const exp::RunResult &res);

    /**
     * Read the error row published for @p key into @p out. Returns
     * false when no marker exists or it does not decode (the cell
     * then re-runs).
     */
    bool failedResult(const std::string &key,
                      exp::RunResult &out) const;

    /** Remove the failure marker of @p key (fresh dispatch attempt). */
    void clearFailed(const std::string &key);

    /**
     * Drop every queue file of a cell that has resolved through the
     * cache: its pending file (re-enqueue race leftovers) and any
     * claim + lease a worker that died between publishing and
     * releasing left behind. Always safe once the result is cached
     * — a live claim holder's store and release are both
     * idempotent. Dispatcher cleanup so a finished sweep leaves an
     * empty queue.
     */
    void discardResolved(const std::string &key);

    /**
     * Keys currently in pending/ or claimed/ — one directory
     * listing, for the dispatcher's in-flight check.
     */
    std::set<std::string> inFlightKeys() const;

    /**
     * Recover cells whose worker died: every claim whose lease file
     * is missing or older than @p timeout is renamed back into
     * pending/, and orphaned lease files (crash between lease write
     * and claim rename) older than @p timeout are removed. Safe to
     * call from any process at any time; rename arbitrates races.
     * Returns the number of claims reclaimed.
     *
     * @p timeout must comfortably exceed the heartbeat interval: a
     * live-but-slow worker whose claim is reclaimed causes a
     * duplicate (deterministic, so still correct) simulation, never
     * a wrong or lost result.
     */
    std::size_t reclaimStale(std::chrono::seconds timeout);

    /** Count the queue directories (racy snapshot). */
    QueueScan scan() const;

    /** @name Read-only inspection (sweep_queue, dashboards). @{ */

    /**
     * Occupancy counts plus every live lease's age. Ages are
     * measured against a probe file touched in tmp/ — the queue
     * filesystem's own clock — so they are exact across machines
     * with skewed wall clocks. Tolerates concurrent mutation: a
     * file that vanishes between the directory listing and its
     * stat (claimed, released, reclaimed meanwhile) is skipped,
     * never misreported as corrupt.
     */
    QueueStatus status() const;

    /**
     * Every cell on the queue (pending, claimed, failed) with its
     * spec id decoded via the spec codec, sorted by state then key.
     * Strictly read-only: an unparsable file is reported as
     * "(unparsable)" but never quarantined, and vanishing files are
     * skipped — safe to run against a live campaign.
     */
    std::vector<CellInfo> listCells() const;

    /** @} */

    /** @name Worker telemetry (campaign dashboards). @{ */

    /**
     * Publish @p m as this worker's metrics record
     * (metrics/<m.workerId>.rec), staged under tmp/ and atomically
     * renamed so observers never read a torn write. Best-effort: a
     * publish that cannot complete is dropped silently (telemetry
     * must never fail a cell).
     */
    void publishMetrics(const WorkerMetrics &m);

    /**
     * Read back every published worker metrics file, sorted by
     * worker id, with @ref WorkerMetrics::ageSeconds filled from the
     * probe clock. Unreadable or torn files are skipped.
     */
    std::vector<WorkerMetrics> workerMetrics() const;

    /** @} */

    /**
     * Put every failed cell back on the queue: its retained spec
     * (failed/<key>.spec) is renamed into pending/ and the failure
     * marker removed. Markers without a retained spec (failures
     * published by older builds) are cleared so the next dispatch
     * re-enqueues them. Returns the number of markers cleared.
     */
    std::size_t retryFailed();

    /**
     * Remove every file in the queue (pending, claimed, leases,
     * failed, corrupt, tmp) — a destructive reset for abandoned
     * campaigns. Returns the number of files removed.
     */
    std::size_t purge();

    const QueueCounters &counters() const { return counters_; }

    /**
     * Loud-degradation hook: corrupt quarantines and stale reclaims
     * are reported here (and are visible in @ref counters either
     * way). Not serialized; set before sharing across threads.
     */
    std::function<void(const std::string &)> onEvent;

    /**
     * Test-only race injection: called with each file name during
     * status()/listCells() after the directory listing and before
     * the file is stat'ed or read — lets tests delete a file at
     * exactly that point to pin vanish tolerance. Null in
     * production.
     */
    std::function<void(const std::string &)> onScanFile;

    /**
     * Fallback "now" used only when the staleness probe file cannot
     * be written (read-only queue filesystem). Defaults to the
     * observer's wall clock; injectable so tests can pin that a
     * skewed observer clock never changes staleness decisions —
     * lease ages come from the probe, not from here.
     */
    std::function<std::filesystem::file_time_type()> wallClock;

    /** @name Path helpers (tests and tools). @{ */
    std::string pendingPath(const std::string &key) const;
    std::string claimedPath(const std::string &key,
                            const std::string &workerId) const;
    std::string leasePath(const std::string &key,
                          const std::string &workerId) const;
    std::string failedPath(const std::string &key) const;
    std::string metricsPath(const std::string &workerId) const;
    /** @} */

  private:
    void note(const std::string &event);
    bool quarantine(const std::string &path,
                    const std::string &reason);
    void heartbeatPath(const std::string &lease,
                       const std::string &workerId);

    /**
     * Publish @p text at @p path: write it to a staging file under
     * tmp/, check the write, then rename it into place, so readers
     * never see a torn file. False when any step fails.
     */
    bool stage(const std::string &path, const std::string &text);

    /** Shared body of enqueue()/enqueueSlice() (@p step 0 = cell). */
    std::string enqueueEntry(const exp::ExperimentSpec &spec,
                             const std::string &baseKey, Tick step,
                             std::uint64_t index);

    /**
     * The queue filesystem's own "now": touch a probe file under
     * tmp/ and read its mtime back, so staleness decisions compare
     * two timestamps stamped by the same clock — the filesystem
     * serving the queue — regardless of any machine's wall clock.
     * Falls back to @ref wallClock when the probe cannot be
     * written.
     */
    std::filesystem::file_time_type probeNow() const;

    std::string dir_;
    QueueCounters counters_;
    std::size_t tmpSerial_ = 0;
};

/**
 * A process-unique worker identity: "<host>-<pid>-<serial>",
 * sanitized to filename-safe characters (claim and lease file names
 * embed it after the 16-hex-digit cell key).
 */
std::string makeWorkerId();

} // namespace dist
} // namespace sysscale

#endif // SYSSCALE_DIST_WORK_QUEUE_HH
