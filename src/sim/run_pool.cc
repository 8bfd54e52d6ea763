#include "run_pool.hh"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/telemetry.hh"
#include "sim/simulator.hh"

namespace morrigan
{

namespace
{

/** Process-wide --jobs override; 0 means "not set". */
std::atomic<unsigned> defaultJobsOverride{0};

/** Process-wide warmup-image directory override. */
std::mutex warmupDirMutex;
std::string warmupDirOverride;
bool warmupDirSet = false;

} // namespace

ExperimentJob
ExperimentJob::of(const SimConfig &cfg, const std::string &kind,
                  const ServerWorkloadParams &workload)
{
    ExperimentJob job;
    job.cfg = cfg;
    job.kind = kind;
    job.workload = workload;
    return job;
}

ExperimentJob
ExperimentJob::with(
    const SimConfig &cfg,
    std::function<std::unique_ptr<TlbPrefetcher>()> factory,
    const ServerWorkloadParams &workload)
{
    ExperimentJob job;
    job.cfg = cfg;
    job.workload = workload;
    job.prefetcherFactory = std::move(factory);
    return job;
}

ExperimentJob
ExperimentJob::smtPair(const SimConfig &cfg, const std::string &kind,
                       const ServerWorkloadParams &a,
                       const ServerWorkloadParams &b)
{
    ExperimentJob job = of(cfg, kind, a);
    job.smt = true;
    job.smtWorkload = b;
    return job;
}

ExperimentJob
ExperimentJob::smtPairWith(
    const SimConfig &cfg,
    std::function<std::unique_ptr<TlbPrefetcher>()> factory,
    const ServerWorkloadParams &a, const ServerWorkloadParams &b)
{
    ExperimentJob job = with(cfg, std::move(factory), a);
    job.smt = true;
    job.smtWorkload = b;
    return job;
}

namespace
{

/** A fully wired simulator plus everything it borrows. */
struct JobAssembly
{
    std::unique_ptr<TlbPrefetcher> prefetcher;
    std::unique_ptr<ServerWorkload> trace;
    std::unique_ptr<ServerWorkload> smtTrace;
    std::unique_ptr<Simulator> sim;
};

JobAssembly
buildJob(const ExperimentJob &job)
{
    JobAssembly a;
    a.prefetcher = job.prefetcherFactory ? job.prefetcherFactory()
                                         : makePrefetcher(job.kind);
    a.trace = std::make_unique<ServerWorkload>(job.workload);
    a.sim = std::make_unique<Simulator>(job.cfg);
    a.sim->attachWorkload(a.trace.get(), 0);
    if (job.smt) {
        a.smtTrace =
            std::make_unique<ServerWorkload>(job.smtWorkload);
        a.sim->attachWorkload(a.smtTrace.get(), 1);
    }
    if (a.prefetcher)
        a.sim->attachPrefetcher(a.prefetcher.get());
    return a;
}

} // anonymous namespace

ExperimentOutput
executeJob(const ExperimentJob &job, const JobExecutionOptions &opts)
{
    telemetry::ScopedSpan job_span(telemetry::Phase::WorkerRun);
    JobAssembly a = buildJob(job);

    // Restore chain: a checkpoint (mid-run, furthest along) beats a
    // warmup image beats simulating from scratch. Any defect in an
    // image -- corruption, truncation, schema or configuration
    // mismatch -- discards it: the assembly is rebuilt and the job
    // re-simulates. Snapshots accelerate; they never gate.
    bool resumed = false;
    {
        telemetry::ScopedSpan span(telemetry::Phase::SimRestore);
        if (!opts.checkpointPath.empty() &&
            ::access(opts.checkpointPath.c_str(), F_OK) == 0) {
            try {
                a.sim->restoreCheckpoint(opts.checkpointPath);
                resumed = true;
            } catch (const SnapshotError &e) {
                warn("discarding checkpoint %s: %s",
                     opts.checkpointPath.c_str(), e.what());
                a = buildJob(job);
            }
        }
        if (!resumed && !opts.warmupImagePath.empty()) {
            if (::access(opts.warmupImagePath.c_str(), F_OK) == 0) {
                try {
                    a.sim->restoreCheckpoint(opts.warmupImagePath);
                    resumed = true;
                    telemetry::add(
                        telemetry::Counter::WarmupImageHits);
                } catch (const SnapshotError &e) {
                    warn("discarding warmup image %s: %s",
                         opts.warmupImagePath.c_str(), e.what());
                    a = buildJob(job);
                }
            }
            if (!resumed) {
                telemetry::add(
                    telemetry::Counter::WarmupImageMisses);
                a.sim->setWarmupImagePath(opts.warmupImagePath);
            }
        }
    }
    if (!opts.checkpointPath.empty() && opts.checkpointEvery != 0)
        a.sim->setCheckpointing(opts.checkpointPath,
                                opts.checkpointEvery);

    // Per-job interval streaming (campaign service): sink failures
    // degrade to an un-sampled run with a warning, they never fail
    // the job.
    std::ofstream interval_ofs;
    if (job.intervalEvery > 0 && !job.intervalOutPath.empty()) {
        interval_ofs.open(job.intervalOutPath,
                          std::ios::out | std::ios::trunc);
        if (interval_ofs) {
            a.sim->enableTracer();
            a.sim->enableIntervalSampler(job.intervalEvery)
                .setSink(&interval_ofs, IntervalFormat::Jsonl);
        } else {
            warn("cannot open interval sink '%s'",
                 job.intervalOutPath.c_str());
        }
    }

    ExperimentOutput out;
    out.result = a.sim->run();
    if (job.cfg.collectMissStream)
        out.missStream = a.sim->missStream();
    return out;
}

unsigned
parseJobsValue(const char *what, const char *s)
{
    if (!s || *s == '\0' ||
        !std::isdigit(static_cast<unsigned char>(*s)))
        fatal("%s: '%s' is not a positive integer", what,
              s ? s : "");
    errno = 0;
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (*end != '\0')
        fatal("%s: trailing junk in '%s'", what, s);
    if (errno == ERANGE || v == 0 || v > 1024)
        fatal("%s: %s out of range [1, 1024]", what, s);
    return static_cast<unsigned>(v);
}

unsigned
defaultJobs()
{
    unsigned override = defaultJobsOverride.load();
    if (override > 0)
        return override;
    if (const char *env = std::getenv("MORRIGAN_JOBS"))
        return parseJobsValue("MORRIGAN_JOBS", env);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
setDefaultJobs(unsigned jobs)
{
    defaultJobsOverride.store(jobs);
}

void
setWarmupImageDir(std::string dir)
{
    std::lock_guard<std::mutex> lock(warmupDirMutex);
    warmupDirOverride = std::move(dir);
    warmupDirSet = true;
}

std::string
warmupImageDir()
{
    {
        std::lock_guard<std::mutex> lock(warmupDirMutex);
        if (warmupDirSet)
            return warmupDirOverride;
    }
    if (const char *env = std::getenv("MORRIGAN_WARMUP_CACHE"))
        return env;
    return {};
}

} // namespace morrigan
