/**
 * @file
 * ResultStore: the on-disk content-addressed store behind every
 * cached simulation result — the store-backed ParallelRunner path the
 * figure benches take, and the mpctune result cache.
 *
 * Keys are fixed-width lowercase-hex content hashes (the Job layer
 * composes them from kernel-IR hash x configKey hash; see
 * harness/job.hh). Values are opaque JSON objects. Layout is a
 * two-level directory sharded by key prefix so millions of entries
 * never land in one directory:
 *
 *     <dir>/<key[0:2]>/<key[2:4]>/<key>.json
 *
 * Durability discipline:
 *  - writes go to a unique temp file in the same directory, then
 *    rename() into place — readers never observe a torn entry, and
 *    two concurrent writers of the same key both succeed (last rename
 *    wins; both wrote the same content-addressed value);
 *  - reads validate that the entry parses as a JSON object; a corrupt
 *    or truncated entry is treated as a miss and moved into
 *    <dir>/quarantine/ (never deleted — a damaged entry is evidence),
 *    counted in stats().bad;
 *  - callers that impose more schema on the value (the Job layer) can
 *    quarantine() an entry that passed the JSON check but failed
 *    theirs.
 *
 * The store is process-local state over shared files: stats() counters
 * are per-ResultStore-instance, guarded by a mutex so ParallelRunner
 * threads can share one instance.
 */

#ifndef MPC_HARNESS_STORE_HH
#define MPC_HARNESS_STORE_HH

#include <memory>
#include <mutex>
#include <string>

namespace mpc::harness
{

class ResultStore
{
  public:
    /** Counter snapshot (per instance, not per directory). */
    struct Stats
    {
        int hits = 0;       ///< get() served a valid entry
        int misses = 0;     ///< get() found nothing
        int bad = 0;        ///< corrupt entries quarantined
        int writes = 0;     ///< put() completed
    };

    /** Open (creating directories lazily on first put). */
    explicit ResultStore(std::string dir);

    /** The store MPC_STORE names, or null when the variable is unset
     *  or empty. */
    static std::unique_ptr<ResultStore> fromEnv();

    const std::string &dir() const { return dir_; }

    /** True iff @p key is a plausible store key: at least 8 lowercase
     *  hex characters (shorter keys cannot shard two levels). */
    static bool validKey(const std::string &key);

    /** Sharded entry path for @p key (valid keys only). */
    std::string pathFor(const std::string &key) const;

    /**
     * Fetch the entry under @p key into @p value. Returns false on a
     * miss; a present-but-corrupt entry (unreadable, empty, or not a
     * parseable JSON object) is quarantined and reported as a miss.
     */
    bool get(const std::string &key, std::string &value);

    /**
     * Atomically publish @p value under @p key (temp file + rename).
     * Returns false on I/O failure (disk full, unwritable dir);
     * callers treat that as "store disabled", never as fatal.
     */
    bool put(const std::string &key, const std::string &value);

    /**
     * Move the entry under @p key into <dir>/quarantine/ (uniquified
     * with a numeric suffix if needed) and count it bad. Safe to call
     * for a key with no entry (no-op).
     */
    void quarantine(const std::string &key);

    Stats stats() const;

  private:
    std::string dir_;
    mutable std::mutex mutex_;
    Stats stats_;
};

} // namespace mpc::harness

#endif // MPC_HARNESS_STORE_HH
