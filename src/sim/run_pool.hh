/**
 * @file
 * Experiment jobs and their execution on the calling thread.
 *
 * Simulation campaigns are embarrassingly parallel: every run is a
 * deterministic function of (SimConfig, prefetcher spec,
 * ServerWorkloadParams), with no shared mutable state between runs
 * (each job constructs its own Simulator, workload generator, RNG
 * streams and prefetcher). This header defines the job, executes one
 * job (executeJob), and holds the process-wide run settings the
 * batch scheduler (Supervisor, sim/supervisor.hh) reads: the worker
 * count and the warmup-image directory. Batches run through the
 * Supervisor return results in submission order, bit-identical to
 * serial execution regardless of the worker count.
 *
 * Worker count: the `--jobs` flag / setDefaultJobs() when given,
 * else the MORRIGAN_JOBS environment variable (validated: junk or
 * zero is fatal), else std::thread::hardware_concurrency().
 */

#ifndef MORRIGAN_SIM_RUN_POOL_HH
#define MORRIGAN_SIM_RUN_POOL_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/prefetcher_registry.hh"
#include "sim/sim_config.hh"
#include "workload/miss_stream_stats.hh"
#include "workload/server_workload.hh"

namespace morrigan
{

/** One simulation to run: configuration + prefetcher + workload(s). */
struct ExperimentJob
{
    SimConfig cfg;
    std::string kind = "none";
    ServerWorkloadParams workload;

    /** Second hardware thread's workload (SMT colocation). */
    bool smt = false;
    ServerWorkloadParams smtWorkload{};

    /**
     * Custom prefetcher constructor (ablation studies, user-defined
     * prefetchers). When set it overrides @p kind and disables
     * result caching; it is invoked once per job, on the worker
     * thread, so every run gets a fresh instance and jobs stay
     * independent. Must be callable concurrently.
     */
    std::function<std::unique_ptr<TlbPrefetcher>()>
        prefetcherFactory;

    /**
     * Stable identity for the campaign journal when the job is not
     * cacheable (factory prefetchers, checked runs). Campaigns that
     * want such jobs to resume across processes must set a tag that
     * uniquely names the job's full configuration (the fuzzer tags
     * every family member with its seed + member role). Empty means
     * "journal only if cacheable".
     */
    std::string journalTag;

    /** Canonical constructors. */
    static ExperimentJob of(const SimConfig &cfg, const std::string &kind,
                            const ServerWorkloadParams &workload);
    static ExperimentJob
    with(const SimConfig &cfg,
         std::function<std::unique_ptr<TlbPrefetcher>()> factory,
         const ServerWorkloadParams &workload);
    static ExperimentJob smtPair(const SimConfig &cfg,
                                 const std::string &kind,
                                 const ServerWorkloadParams &a,
                                 const ServerWorkloadParams &b);
    static ExperimentJob
    smtPairWith(const SimConfig &cfg,
                std::function<std::unique_ptr<TlbPrefetcher>()> factory,
                const ServerWorkloadParams &a,
                const ServerWorkloadParams &b);

    /**
     * Observation only, never part of the experiment key: when
     * intervalEvery > 0 the executing simulator attaches an interval
     * sampler and streams each epoch as JSONL into intervalOutPath
     * (truncating any previous file). Jobs served from the result
     * cache or replayed from a campaign journal do not execute, so
     * they produce no interval file -- the campaign service forwards
     * whatever epochs exist and nothing else.
     */
    std::uint64_t intervalEvery = 0;
    std::string intervalOutPath;

    /** Whether the job's result can be memoised by key. Checked and
     * fault-injected runs are excluded: their value is in the check
     * being re-executed (and their mismatch report is not part of
     * the serialized result). */
    bool cacheable() const
    {
        return !prefetcherFactory && !cfg.collectMissStream &&
               cfg.checkLevel == 0 && cfg.injectWalkerBugPeriod == 0;
    }
};

/** Everything one job produces. */
struct ExperimentOutput
{
    SimResult result;
    /** Populated when cfg.collectMissStream is set. */
    MissStreamStats missStream;
};

/**
 * Checkpoint/resume knobs for one job execution (see DESIGN.md §12).
 * Both paths are optional and independent; a corrupt, stale or
 * mismatched image is discarded with a warning and the job simulates
 * from scratch -- snapshots accelerate, they never gate.
 */
struct JobExecutionOptions
{
    /** Snapshot file to resume from (if present and valid) and to
     * autosave into every checkpointEvery instructions. */
    std::string checkpointPath;
    std::uint64_t checkpointEvery = 0;

    /** Warmup-image file (keyed by warmupKey() at the call site):
     * restored when present, written at the warmup->measurement
     * transition when not. Consulted only if no checkpoint was
     * restored (a checkpoint is always at least as far along). */
    std::string warmupImagePath;
};

/** Execute one job on the calling thread (no pool, no cache). */
ExperimentOutput executeJob(const ExperimentJob &job,
                            const JobExecutionOptions &opts = {});

/**
 * Validated parse of a worker-count value (MORRIGAN_JOBS / --jobs):
 * fatal() on junk, trailing garbage, zero, or counts above 1024.
 */
unsigned parseJobsValue(const char *what, const char *s);

/** Resolved default worker count (override > env > hardware). */
unsigned defaultJobs();

/** Override the process default worker count (the --jobs flag); 0
 * restores env/hardware resolution. */
void setDefaultJobs(unsigned jobs);

/**
 * Directory for warmup images, resolved per batch: the override set
 * here wins, else the MORRIGAN_WARMUP_CACHE environment variable,
 * else warmup imaging is off. Cacheable jobs in a batch then
 * restore/publish snapshots keyed by warmupKey(), so a sweep warms
 * each (workload, prefetcher, system) once.
 */
void setWarmupImageDir(std::string dir);
std::string warmupImageDir();

} // namespace morrigan

#endif // MORRIGAN_SIM_RUN_POOL_HH
