/**
 * @file
 * On-disk cache of simulation results keyed by job content hash.
 *
 * Every cycle-level simulation of a (workload, mode, trace length,
 * fabrics, scale) point is deterministic, so its result can be reused
 * for as long as the simulator's behaviour is unchanged. The cache
 * stores one JSON file per job under a cache directory:
 *
 *     <dir>/<job-hash-hex>.json
 *     { "epoch": "...", "key": "bfs|accel-spec|32|1|1|0|full", "result": {...} }
 *
 * The *epoch* string names the simulator behaviour version
 * (kResultCacheEpoch); bump it whenever a change to src/ alters
 * simulation results, and every previously cached entry becomes a miss.
 * The full job key is stored and verified on load, so a (vanishingly
 * unlikely) hash collision degrades to a miss, never a wrong result.
 *
 * Robustness: any unreadable, unparsable or schema-mismatched cache
 * file is treated as a miss — the job is simply re-simulated and the
 * entry rewritten. Writes go to a temp file first and are renamed into
 * place, so concurrent writers (pool workers, parallel processes)
 * never expose half-written entries; the temp path is additionally
 * registered with the interrupt cleanup registry so a SIGINT mid-write
 * unlinks it instead of stranding it.
 *
 * Growth control: a long-lived process (the serve daemon, repeated
 * sweeps) would otherwise grow the directory without bound as epochs
 * roll and parameter spaces widen. gc() garbage-collects entries from
 * stale epochs plus any orphaned temp files, then applies an LRU size
 * budget: load() refreshes an entry's mtime on every hit, and gc()
 * evicts least-recently-used entries until the directory fits.
 */

#ifndef DYNASPAM_RUNNER_RESULT_CACHE_HH
#define DYNASPAM_RUNNER_RESULT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "runner/file_store.hh"
#include "runner/job.hh"
#include "sim/system.hh"

namespace dynaspam::runner
{

/**
 * Simulator behaviour version for cache invalidation. Bump on any
 * change that alters simulation results.
 */
inline constexpr const char *kResultCacheEpoch = "dynaspam-sim-6";

/** File-per-job result store. */
class ResultCache
{
  public:
    /**
     * @param dir cache directory (created on first store); an empty
     *            string disables the cache entirely
     * @param epoch behaviour version tag; defaults to kResultCacheEpoch
     */
    explicit ResultCache(std::string dir,
                         std::string epoch = kResultCacheEpoch);

    bool enabled() const { return !dir.empty(); }
    const std::string &directory() const { return dir; }

    /** @return the cache file path for @p job (even when disabled). */
    std::string pathFor(const Job &job) const;

    /**
     * Look up @p job. @return the cached result, or nullopt on any kind
     * of miss (absent, corrupt, wrong epoch, key mismatch, disabled).
     * Never throws for file-level problems.
     */
    std::optional<sim::RunResult> load(const Job &job) const;

    /**
     * Look up an entry by its hex hash (cache file stem) without
     * knowing the job — what GET /results/<hash> needs. Validates the
     * stored epoch and rebuilds the Job from the entry's "job" object.
     * @return nullopt on any kind of miss, like load().
     */
    std::optional<std::pair<Job, sim::RunResult>>
    loadByHash(const std::string &hash_hex) const;

    /**
     * Store @p result for @p job (atomically: temp file + rename).
     * Failures are reported with warn() and otherwise ignored — the
     * cache is an optimization, not a correctness dependency.
     */
    void store(const Job &job, const sim::RunResult &result) const;

    /**
     * Garbage-collect the cache directory: remove orphaned temp files
     * and entries whose epoch is not this cache's epoch (stale
     * simulator versions), then — when @p max_bytes is nonzero — evict
     * least-recently-used entries (by mtime; load() hits refresh it)
     * until the remaining entries total at most @p max_bytes.
     * Concurrent-writer safe: eviction losers are re-simulated misses,
     * never corruption. No-op when the cache is disabled.
     */
    CacheGcStats gc(std::uint64_t max_bytes = 0) const;

  private:
    /** Read and validate the entry at @p path: its epoch, and its key
     *  against @p expected (or against its own "job" when null). */
    std::optional<std::pair<Job, sim::RunResult>>
    readEntry(const std::string &path, const Job *expected) const;

    std::string dir;
    std::string epoch;
};

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_RESULT_CACHE_HH
