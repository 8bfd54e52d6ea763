/**
 * @file
 * Process-wide keyed cache of simulation results.
 *
 * Every experiment run is a deterministic function of
 * (SimConfig, prefetcher spec, ServerWorkloadParams[, SMT partner]),
 * so its SimResult can be memoised. The benches exploit this heavily:
 * each figure normalizes against the same `"none"`
 * baseline suite, which without the cache would be re-simulated by
 * every binary section that needs it.
 *
 * Keys are canonical field-by-field serialisations of the full
 * configuration (experimentKey()); nothing is hashed in memory, so
 * there are no collision concerns. An optional on-disk JSON cache
 * (MORRIGAN_RESULT_CACHE=<dir>, or setDiskDir()) persists results
 * across processes for MORRIGAN_FULL=1 campaigns; disk files carry a
 * schema version and the full key, and corrupt or stale files are
 * ignored, never fatal.
 *
 * All entry points are thread-safe: the Supervisor's thread-mode
 * workers look up and insert results concurrently.
 */

#ifndef MORRIGAN_SIM_RESULT_CACHE_HH
#define MORRIGAN_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>

#include "common/json_reader.hh"
#include "core/prefetcher_registry.hh"
#include "sim/sim_config.hh"
#include "workload/server_workload.hh"

namespace morrigan
{

/**
 * Canonical cache key for one experiment. Enumerates every field of
 * the configuration and the workload parameters (and the SMT partner
 * workload when @p smt is non-null), prefixed with a schema version
 * so key layout changes invalidate old disk caches. Two experiments
 * share a key iff they would produce bit-identical SimResults.
 */
std::string experimentKey(const SimConfig &cfg, const std::string &kind,
                          const ServerWorkloadParams &workload,
                          const ServerWorkloadParams *smt = nullptr);

/**
 * Canonical key for one *warmup image* (see DESIGN.md §12): like
 * experimentKey() but without the measurement-only fields
 * (simInstructions, collectMissStream), so every run of a sweep that
 * shares a (workload, prefetcher, system) triple reuses one warmed
 * snapshot regardless of how long it measures. The prefetcher kind
 * *is* part of the key: prefetch walks mutate the caches, walker and
 * PB during warmup, so sharing images across prefetchers would break
 * bit-identity with an uninterrupted run.
 */
std::string warmupKey(const SimConfig &cfg, const std::string &kind,
                      const ServerWorkloadParams &workload,
                      const ServerWorkloadParams *smt = nullptr);

/** FNV-1a digest of a canonical key, for deriving cache/snapshot
 * file names. */
std::uint64_t cacheKeyDigest(const std::string &key);

/** Serialize a SimResult as one JSON object (full precision). */
void writeSimResultJson(std::ostream &os, const SimResult &r);

/**
 * Parse a SimResult previously written by writeSimResultJson().
 * Returns false (leaving @p out untouched) on malformed input.
 */
bool parseSimResultJson(const std::string &text, SimResult &out);

/** Same, from an already-parsed JSON object (campaign journal,
 * sandbox result pipe). */
bool simResultFromJson(const json::Value &doc, SimResult &out);

/** The keyed result cache. */
class ResultCache
{
  public:
    /** Disk directory comes from MORRIGAN_RESULT_CACHE (may be
     * empty: memory-only). */
    ResultCache();

    /** The process-wide instance the Supervisor uses. */
    static ResultCache &global();

    /**
     * Look up @p key; on a hit copies the result into @p out. A
     * memory miss falls through to the disk cache (when configured)
     * and promotes disk hits into memory.
     */
    bool lookup(const std::string &key, SimResult &out);

    /** Store a result; also writes the disk file when configured. */
    void insert(const std::string &key, const SimResult &result);

    /** Accounting (tests + campaign telemetry). */
    struct Counts
    {
        std::uint64_t hits = 0;        //!< lookups served (any tier)
        std::uint64_t misses = 0;      //!< lookups that failed
        std::uint64_t inserts = 0;     //!< new entries stored
        std::uint64_t diskHits = 0;    //!< hits served from disk
        std::uint64_t diskRejects = 0; //!< corrupt/stale disk files
    };
    Counts counts() const;

    /** Number of in-memory entries. */
    std::size_t size() const;

    /** Drop every memory entry and zero the counts (tests). Disk
     * files are left alone. */
    void clear();

    /** Redirect (or disable, with "") the on-disk tier. */
    void setDiskDir(std::string dir);

  private:
    bool diskLookup(const std::string &key, SimResult &out);
    void diskInsert(const std::string &key, const SimResult &result);
    std::string diskPath(const std::string &key) const;
    void warnMidWriteOnce(const std::string &key);

    mutable std::mutex mutex_;
    std::unordered_map<std::string, SimResult> entries_;
    Counts counts_;
    std::string diskDir_;
};

} // namespace morrigan

#endif // MORRIGAN_SIM_RESULT_CACHE_HH
