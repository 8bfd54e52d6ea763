/**
 * @file
 * Fault-isolated campaign supervisor.
 *
 * The Supervisor is the one batch scheduler: it runs a batch of
 * ExperimentJobs to completion no matter what individual jobs do,
 * and returns one outcome per job in submission order. It wraps
 * every job in a fault boundary:
 *
 *  - exceptions (and, in sandbox mode, SIGSEGV/SIGABRT/OOM kills)
 *    in one job are captured as a per-job failure instead of
 *    aborting the batch;
 *  - in sandbox mode, a watchdog enforces a per-job wall-clock
 *    deadline, derived from the instruction budget unless pinned;
 *  - failed jobs (and, in sandbox mode, timed-out ones) are
 *    retried a bounded number of times with exponential backoff
 *    and deterministic jitter (seeded from the job key, so reruns
 *    schedule identically);
 *  - cacheable jobs that repeat a key, within a batch or across
 *    batches, are simulated once per process (ResultCache);
 *  - with SupervisorOptions::checkpointDir set, cacheable jobs
 *    autosave snapshots (see DESIGN.md §12) and a retried attempt
 *    resumes from the last checkpoint -- in sandbox mode with a
 *    watchdog deadline derived from the remaining instruction
 *    budget -- instead of re-simulating from scratch;
 *  - every final outcome is appended to an fsync'd JSONL journal,
 *    so a campaign killed at any point (Ctrl-C, CI timeout,
 *    machine loss) resumes exactly where it stopped;
 *  - permanent failures land in the process-wide FailureManifest,
 *    which the CLIs and bench artifacts emit so degraded campaigns
 *    report what is missing instead of silently dropping rows.
 *
 * Thread mode (the default) starts min(jobs, pending jobs) worker
 * threads per batch; each pulls the next job, runs its retry loop
 * and settles it. It contains C++ exceptions only: a crash takes
 * the process down and a hung job hangs the batch. Sandbox mode
 * (SupervisorOptions::isolate, --isolate, MORRIGAN_ISOLATE=1) forks
 * one child per job and ships the result back over a pipe; the
 * scheduler then runs single-threaded in the parent (children
 * provide the parallelism), which keeps fork() safe, and it alone
 * can kill a job at its deadline.
 */

#ifndef MORRIGAN_SIM_SUPERVISOR_HH
#define MORRIGAN_SIM_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/run_pool.hh"

namespace morrigan
{

/** How one job ended up. */
enum class RunStatus
{
    Ok,       //!< produced a result
    Failed,   //!< threw / exited nonzero on every attempt
    TimedOut, //!< exceeded the watchdog deadline on every attempt
    Crashed,  //!< died by signal on every attempt (sandbox mode)
};

const char *runStatusName(RunStatus s);

/** Captured detail for a non-Ok outcome. */
struct RunFailure
{
    RunStatus status = RunStatus::Failed;
    std::string what;       //!< exception text / exit description
    int signal = 0;         //!< terminating signal (Crashed)
    std::string stderrTail; //!< last stderr bytes (sandbox mode)
    std::string repro;      //!< command (or tag) identifying the job
};

/** Per-job verdict from a supervised batch. */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    ExperimentOutput output; //!< valid iff status == Ok
    RunFailure failure;      //!< valid iff status != Ok
    /** Executions performed: 0 for cache hits; journal replays
     * keep the recording campaign's count. */
    unsigned attempts = 1;
    /** Wall-clock time of the *final* attempt in ms (0 for cache
     * hits; journal replays keep the recording campaign's value), so
     * post-mortems can tell slow jobs from hung ones. */
    std::uint64_t durationMs = 0;
    bool fromJournal = false;
    bool fromCache = false;
    /** Settled by a drain request before it could run: reported to
     * the caller as a failure but never journaled, so a resumed
     * campaign reruns the job instead of replaying the
     * cancellation. */
    bool canceled = false;
    /** Structural invariant violations observed inside a sandboxed
     * child (merged into the parent's count by the fuzzer). */
    std::uint64_t structuralViolations = 0;

    bool ok() const { return status == RunStatus::Ok; }
};

/** Campaign resilience policy. */
struct SupervisorOptions
{
    /** fork() one child per job; contains crashes and lets the
     * watchdog SIGKILL hung jobs. */
    bool isolate = false;

    /** Per-job wall-clock deadline in ms; 0 derives a deadline from
     * the job's instruction budget (derivedJobTimeoutMs). Applies
     * only with isolate; thread mode warns once and ignores it. */
    std::uint64_t jobTimeoutMs = 0;

    /** Total executions per job, first try included. */
    unsigned maxAttempts = 2;

    /** Exponential backoff between retries: attempt k waits
     * base << (k-1), capped, plus deterministic jitter. */
    std::uint64_t backoffBaseMs = 100;
    std::uint64_t backoffCapMs = 5'000;

    /** JSONL journal path; empty disables checkpoint/resume. */
    std::string journalPath;

    /**
     * Directory for per-job snapshot checkpoints; empty disables
     * them. Cacheable jobs autosave a snapshot (keyed by their
     * experiment key) every checkpointEveryInstructions, and a
     * retried attempt -- after a watchdog SIGKILL, a crash, or a
     * whole-campaign restart -- resumes from the last checkpoint
     * instead of starting over. In sandbox mode the watchdog
     * deadline of a resumed attempt is derived from the *remaining*
     * instruction budget.
     */
    std::string checkpointDir;

    /** Checkpoint autosave interval in executed instructions. */
    std::uint64_t checkpointEveryInstructions = 1'000'000;

    /**
     * Emit a campaign progress line to stderr at most every this
     * many ms (jobs done/running/retried, result-cache hit rate,
     * aggregate simulated instrs/sec, ETA); 0 disables. Observation
     * only -- never affects scheduling or results.
     */
    std::uint64_t progressEveryMs = 0;

    /** Worker count; 0 defers to defaultJobs(). */
    unsigned jobs = 0;

    /** Route cacheable jobs through ResultCache::global(). */
    bool useCache = true;

    /**
     * Drain hook, polled before every attempt (from each worker
     * thread in thread mode, so it must be callable concurrently).
     * Once it returns true, no further attempt (first try or retry)
     * is started: in-flight attempts run to completion and are
     * journaled as usual, and every still-pending job settles as a
     * Failed outcome with "canceled by drain" -- deliberately NOT
     * journaled, so a later campaign with the same journal reruns
     * those jobs instead of replaying the cancellation. Null (the
     * default) never drains.
     */
    std::function<bool()> stopRequested;

    /**
     * Observation hook invoked the moment a job's outcome is final
     * (executed, replayed from the journal, served from the cache,
     * copied from an in-batch duplicate, or canceled by drain),
     * with the job's batch index. Calls are serialized (thread-mode
     * workers make them under one lock); it must not re-enter the
     * Supervisor. The campaign service uses this to stream per-job
     * outcomes to clients while the batch is still running.
     */
    std::function<void(std::size_t, const RunOutcome &)> onJobSettled;

    /** Resolve MORRIGAN_ISOLATE / MORRIGAN_JOB_TIMEOUT (seconds) /
     * MORRIGAN_JOB_RETRIES / MORRIGAN_JOURNAL /
     * MORRIGAN_CHECKPOINT_DIR / MORRIGAN_CHECKPOINT_EVERY /
     * MORRIGAN_PROGRESS_MS on top of defaults; junk values are
     * fatal. */
    static SupervisorOptions fromEnv();
};

/**
 * Process-wide ledger of permanently failed jobs, drained by the
 * CLIs / bench artifacts into failure manifests. Thread-safe.
 */
class FailureManifest
{
  public:
    struct Entry
    {
        std::string label; //!< human-readable job identity
        RunFailure failure;
        unsigned attempts = 0;
        /** Final attempt's wall-clock ms (see
         * RunOutcome::durationMs). */
        std::uint64_t durationMs = 0;
    };

    static FailureManifest &global();

    void add(const std::string &label, const RunFailure &failure,
             unsigned attempts, std::uint64_t duration_ms = 0);
    std::vector<Entry> entries() const;
    std::size_t size() const;
    void clear();

    /** JSON array of {label, status, what, signal, repro,
     * attempts, duration_ms}. */
    void writeJson(std::ostream &os) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Entry> entries_;
};

/**
 * Default watchdog deadline for a job: a fixed floor plus time
 * proportional to the warmup+measure instruction budget *still to
 * run*. @p executed_instructions is how far a checkpoint the attempt
 * will resume from had progressed (0 = from scratch): an attempt
 * resuming at 90% of a long job gets a deadline sized for the last
 * 10%, not for the whole run again.
 */
std::uint64_t
derivedJobTimeoutMs(const ExperimentJob &job,
                    std::uint64_t executed_instructions = 0);

/**
 * Delay before retry attempt @p attempt (2 = first retry) of the
 * job identified by @p key: exponential backoff plus jitter hashed
 * from (key, attempt), so a rerun of the same campaign schedules
 * identically.
 */
std::uint64_t retryDelayMs(const std::string &key, unsigned attempt,
                           const SupervisorOptions &opt);

/** Human-readable job identity for reports and manifests. */
std::string jobLabel(const ExperimentJob &job);

/**
 * Best-effort repro command for a job. Jobs expressible as a
 * morrigan-sim invocation get one; factory/synthetic jobs get a
 * comment carrying the journal tag.
 */
std::string jobReproCommand(const ExperimentJob &job);

/**
 * Append-only JSONL journal of job-key -> outcome. Appends are
 * single atomic O_APPEND writes, fsync'd, so a record is either
 * fully present or absent; load() tolerates a truncated last line
 * (the job simply reruns). The last record for a key wins.
 */
class CampaignJournal
{
  public:
    /** Opens (creating if absent) and loads @p path; empty path
     * makes an inert journal. */
    explicit CampaignJournal(const std::string &path);
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    bool enabled() const { return fd_ >= 0; }
    std::size_t loadedRecords() const { return replay_.size(); }

    /** Replay a finished outcome for @p key, if journaled. */
    bool lookup(const std::string &key, RunOutcome &out) const;

    /** Durably record @p outcome for @p key. */
    void record(const std::string &key, const RunOutcome &outcome);

  private:
    int fd_ = -1;
    std::unordered_map<std::string, RunOutcome> replay_;
};

/** The supervisor itself. */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions opt = defaultOptions());

    /** Run a batch to completion; one outcome per job, in
     * submission order. Never throws for job-level faults. */
    std::vector<RunOutcome> run(const std::vector<ExperimentJob> &batch);

    /**
     * Process-wide default policy: fromEnv(), overridden by
     * setDefaultOptions() (the CLI flags). runBatch() and the other
     * sim/experiment.hh helpers construct their Supervisor from
     * this.
     */
    static SupervisorOptions defaultOptions();
    static void setDefaultOptions(const SupervisorOptions &opt);

    /** Worker threads (sandbox: concurrent children) a batch may
     * use: SupervisorOptions::jobs, else defaultJobs(). */
    unsigned jobs() const;

  private:
    /** Stable identity for cache + journal; "" = anonymous. */
    std::string jobKey(const ExperimentJob &job) const;

    /** Checkpoint/warmup knobs for one execution of @p job; empty
     * paths when checkpointing is off or the job is not eligible. */
    JobExecutionOptions jobOptions(const ExperimentJob &job,
                                   const std::string &key) const;

    /** Sandbox watchdog deadline for an attempt, accounting for the
     * progress recorded in the job's checkpoint (if any). */
    std::uint64_t attemptTimeoutMs(const ExperimentJob &job,
                                   const JobExecutionOptions &opts)
        const;

    /** Called by the schedulers the moment a job's outcome is
     * final, so the journal checkpoints progress incrementally (a
     * campaign killed mid-flight keeps every finished job). */
    using PublishFn = std::function<void(std::size_t)>;

    /** Run indices @p work of @p batch on up to jobs() worker
     * threads, each job through superviseInline. */
    void runThreaded(const std::vector<ExperimentJob> &batch,
                     const std::vector<std::size_t> &work,
                     const std::vector<std::string> &keys,
                     std::vector<RunOutcome> &out,
                     const PublishFn &publish);

    /** Run indices @p work of @p batch in fork-sandboxed children,
     * up to jobs() at a time, writing outcomes into @p out. */
    void runSandboxed(const std::vector<ExperimentJob> &batch,
                      const std::vector<std::size_t> &work,
                      const std::vector<std::string> &keys,
                      std::vector<RunOutcome> &out,
                      const PublishFn &publish);

    /** Run one job on the calling thread with retries, exception
     * containment and the drain check, but no watchdog: the thread
     * mode's per-job loop, and the sandbox-mode fallback for jobs
     * whose outputs cannot cross a pipe (miss-stream collection). */
    RunOutcome superviseInline(const ExperimentJob &job,
                               const std::string &key);

    SupervisorOptions opt_;
};

} // namespace morrigan

#endif // MORRIGAN_SIM_SUPERVISOR_HH
