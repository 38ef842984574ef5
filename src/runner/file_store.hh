/**
 * @file
 * The on-disk store under ResultCache and SnapshotCache: one file per
 * entry in a cache directory, written atomically, read whole, and
 * garbage-collected by one policy.
 *
 * Writes go to a per-writer temp file (`<path>.tmp.<pid>.<thread>`)
 * that is registered with the interrupt cleanup registry, then are
 * renamed into place, so concurrent writers (pool workers, parallel
 * processes) never expose half-written entries and a SIGINT mid-write
 * leaves no litter. Reads refresh the entry's mtime, which gc() uses
 * as least-recently-used order.
 */

#ifndef DYNASPAM_RUNNER_FILE_STORE_HH
#define DYNASPAM_RUNNER_FILE_STORE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace dynaspam::runner
{

/**
 * Temp files younger than this are presumed to belong to a live writer
 * and are skipped by gc(); only older litter (crashed/killed writers)
 * is reaped.
 */
inline constexpr std::uint64_t kCacheTmpGraceSeconds = 60;

/** What one cache gc pass scanned and removed. */
struct CacheGcStats
{
    std::uint64_t scanned = 0;      ///< entry files examined
    std::uint64_t staleEvicted = 0; ///< wrong-epoch / unparsable entries
    std::uint64_t lruEvicted = 0;   ///< evicted to meet the size budget
    std::uint64_t tmpRemoved = 0;   ///< orphaned *.tmp.* writer litter
    std::uint64_t bytesBefore = 0;  ///< directory size before the pass
    std::uint64_t bytesAfter = 0;   ///< directory size after the pass
};

namespace file_store
{

/** @return the bytes of @p path, or nullopt when it cannot be opened. */
std::optional<std::string> slurp(const std::string &path);

/**
 * Refresh @p path's mtime so gc()'s LRU ordering sees the entry as
 * recently used. Best-effort: a failure (e.g. a read-only cache mount)
 * just weakens eviction ordering, never correctness.
 */
void touch(const std::string &path);

/**
 * Write @p bytes to @p path in @p dir (created when missing) through a
 * temp file and an atomic rename. Failures are reported with warn(),
 * naming @p what ("result cache"), and otherwise ignored — a cache is
 * an optimization, not a correctness dependency.
 */
void write(const std::string &dir, const std::string &path,
           const std::string &bytes, const char *what);

/**
 * Garbage-collect @p dir: remove temp files older than the grace
 * window and every `*<suffix>` entry whose bytes @p valid rejects,
 * then — when @p max_bytes is nonzero — evict entries oldest mtime
 * first (path breaks ties) until the rest total at most @p max_bytes.
 * An absent directory has nothing to collect.
 */
CacheGcStats gc(const std::string &dir, const std::string &suffix,
                const std::function<bool(const std::string &)> &valid,
                std::uint64_t max_bytes);

} // namespace file_store

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_FILE_STORE_HH
