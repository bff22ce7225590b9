/**
 * @file
 * Content-addressed on-disk result cache.
 *
 * One file per cell, named <cache_dir>/<specKey(spec)>.rec: a record
 * in the snapshot codec (sim/snapshot.hh) holding the full serialized
 * spec (for auditability and hash-collision detection) plus the
 * RunResult (putResult). Because the key covers everything the
 * simulation depends on and doubles are stored as their bit
 * patterns, replaying a hit is byte-identical to rerunning the cell
 * — including the recorded hostSeconds of the original execution.
 * The record's trailing checksum turns any damaged byte into a miss.
 *
 * Rules:
 *  - only ok results are stored; error rows are never cached,
 *  - specs carrying a governorFactory are not content-addressable
 *    and bypass the cache entirely,
 *  - a corrupt, unparsable, or key-mismatched file is a miss counted
 *    in CacheStats::corrupt (and is overwritten by the next store),
 *  - the id and labels of a hit are taken from the querying spec,
 *    not the stored one: cells that differ only in presentation
 *    share one entry.
 *
 * Writes go through a temp file + atomic rename, so concurrent
 * workers (or concurrent sweeps sharing a directory) never expose a
 * partially written entry.
 */

#ifndef SYSSCALE_EXP_CACHE_HH
#define SYSSCALE_EXP_CACHE_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "exp/experiment.hh"

namespace sysscale {

class SnapshotReader;
class SnapshotWriter;

namespace exp {

/** Counters for one ResultCache instance (monotonic). */
struct CacheStats
{
    std::size_t hits = 0;        //!< Lookups served from disk.
    std::size_t misses = 0;      //!< Lookups with no usable entry.
    std::size_t stores = 0;      //!< Entries written.
    std::size_t corrupt = 0;     //!< Files rejected while looking up.
    std::size_t uncacheable = 0; //!< Specs outside content addressing.
};

class ResultCache
{
  public:
    /**
     * @param dir Cache directory; created (recursively) if absent.
     *        Throws std::runtime_error when it cannot be created.
     */
    explicit ResultCache(std::string dir);

    const std::string &dir() const { return dir_; }

    /** Whether @p spec can be content-addressed at all. */
    static bool cacheable(const ExperimentSpec &spec);

    /** File an entry for @p spec lives at (whether or not present). */
    std::string pathFor(const ExperimentSpec &spec) const;

    /**
     * Try to serve @p spec from disk. On a hit fills @p out (with
     * @p spec's own id and labels) and returns true. Never throws:
     * unreadable or mismatched entries are misses.
     */
    bool lookup(const ExperimentSpec &spec, RunResult &out);

    /**
     * Persist @p res for @p spec. No-op for error rows and
     * uncacheable specs. Write failures are swallowed (a cache must
     * never fail a sweep); the entry is simply absent next time.
     */
    void store(const ExperimentSpec &spec, const RunResult &res);

    CacheStats stats() const;

  private:
    std::string dir_;
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> stores_{0};
    std::atomic<std::size_t> corrupt_{0};
    std::atomic<std::size_t> uncacheable_{0};
};

/**
 * @name The RunResult record section.
 *
 * One encoding of a result row, shared by every internal record
 * that carries one (cache entries, the work queue's failure
 * markers). Written under the `result.` scope with fixed keys only —
 * ids, labels and error text are values, never keys.
 * @{
 */
void putResult(SnapshotWriter &w, const RunResult &res);

/** Inverse of putResult(); throws SnapshotError on a bad field. */
RunResult getResult(SnapshotReader &r);
/** @} */

/**
 * The cache resolution every CLI shares (sweep_grid and the
 * grid-shaped benches): an explicit @p dir wins, the
 * SYSSCALE_CACHE_DIR environment variable is the fallback, and
 * @p no_cache disables both. Returns null when caching is off;
 * throws std::runtime_error when the directory cannot be created.
 */
std::unique_ptr<ResultCache> resolveCache(std::string dir,
                                          bool no_cache);

} // namespace exp
} // namespace sysscale

#endif // SYSSCALE_EXP_CACHE_HH
