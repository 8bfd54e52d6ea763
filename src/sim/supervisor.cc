#include "supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "check/invariants.hh"
#include "common/fault_fs.hh"
#include "common/io_retry.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/telemetry.hh"
#include "sim/result_cache.hh"

namespace morrigan
{

namespace
{

using Clock = std::chrono::steady_clock;

/** FNV-1a 64-bit, for deterministic retry jitter. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Validated env-var integer (same contract as parseJobsValue). */
std::uint64_t
parseEnvU64(const char *what, const char *s, std::uint64_t min_value,
            std::uint64_t max_value)
{
    if (!s || *s == '\0' ||
        !std::isdigit(static_cast<unsigned char>(*s)))
        fatal("%s: '%s' is not a non-negative integer", what,
              s ? s : "");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0')
        fatal("%s: trailing junk in '%s'", what, s);
    if (errno == ERANGE || v < min_value || v > max_value)
        fatal("%s: %s out of range [%llu, %llu]", what, s,
              static_cast<unsigned long long>(min_value),
              static_cast<unsigned long long>(max_value));
    return v;
}

std::optional<RunStatus>
runStatusFromName(const std::string &name)
{
    if (name == "ok")
        return RunStatus::Ok;
    if (name == "failed")
        return RunStatus::Failed;
    if (name == "timed_out")
        return RunStatus::TimedOut;
    if (name == "crashed")
        return RunStatus::Crashed;
    return std::nullopt;
}

/** One journal record. Failures carry their diagnosis; successes
 * carry the full result (plus the check report, which the cache
 * deliberately drops but resumed campaigns must keep). */
void
writeJournalLine(std::ostream &os, const std::string &key,
                 const RunOutcome &o)
{
    json::Writer w(os);
    w.beginObject();
    w.kv("schema", "morrigan-journal");
    w.kv("version", json::journalSchemaVersion);
    w.kv("key", key);
    w.kv("status", runStatusName(o.status));
    w.kv("attempts", std::uint64_t{o.attempts});
    w.kv("duration_ms", o.durationMs);
    if (o.ok()) {
        w.key("result").rawValue([&](std::ostream &ro) {
            writeSimResultJson(ro, o.output.result);
        });
        w.kv("check_report", o.output.result.checkReport);
        w.kv("structural", o.structuralViolations);
    } else {
        w.kv("what", o.failure.what);
        w.kv("signal", o.failure.signal);
        w.kv("stderr_tail", o.failure.stderrTail);
        w.kv("repro", o.failure.repro);
    }
    w.endObject();
}

/**
 * Parse one journal line. @p stale_version is set (and false
 * returned) when the line is a well-formed morrigan-journal record
 * written under a different schema version: the loader reports those
 * separately from corruption, because the fix is "rerun", not
 * "investigate".
 */
bool
parseJournalLine(const std::string &line, std::string &key,
                 RunOutcome &out, std::uint64_t *stale_version)
{
    json::Value doc;
    if (!json::Reader(line).parse(doc) ||
        doc.type != json::Value::Type::Object)
        return false;
    std::string schema, status_name;
    std::uint64_t version = 0, attempts = 0;
    if (!json::getString(doc, "schema", schema) ||
        schema != "morrigan-journal" ||
        !json::getU64(doc, "version", version))
        return false;
    if (version !=
        static_cast<std::uint64_t>(json::journalSchemaVersion)) {
        if (stale_version)
            *stale_version = version;
        return false;
    }
    if (!json::getString(doc, "key", key) ||
        !json::getString(doc, "status", status_name) ||
        !json::getU64(doc, "attempts", attempts))
        return false;
    auto status = runStatusFromName(status_name);
    if (!status)
        return false;

    RunOutcome o;
    o.status = *status;
    o.attempts = static_cast<unsigned>(attempts);
    // Optional since journal schema v1 records predate it; absent
    // keys simply leave the replayed duration at 0.
    json::getU64(doc, "duration_ms", o.durationMs);
    if (o.ok()) {
        const json::Value *res = doc.find("result");
        if (!res || !simResultFromJson(*res, o.output.result))
            return false;
        json::getString(doc, "check_report",
                        o.output.result.checkReport);
        json::getU64(doc, "structural", o.structuralViolations);
    } else {
        o.failure.status = o.status;
        std::uint64_t sig = 0;
        json::getString(doc, "what", o.failure.what);
        if (json::getU64(doc, "signal", sig))
            o.failure.signal = static_cast<int>(sig);
        json::getString(doc, "stderr_tail", o.failure.stderrTail);
        json::getString(doc, "repro", o.failure.repro);
    }
    out = std::move(o);
    return true;
}

/** Keep the last @p keep bytes, cutting at a line boundary when one
 * is close. */
std::string
tailOf(const std::string &s, std::size_t keep = 2000)
{
    if (s.size() <= keep)
        return s;
    std::size_t start = s.size() - keep;
    std::size_t nl = s.find('\n', start);
    if (nl != std::string::npos && nl + 1 < s.size() &&
        nl - start < 200)
        start = nl + 1;
    return "..." + s.substr(start);
}

// ---------------------------------------------------------------
// Sandbox child protocol: the child writes exactly one JSON object
// to the result pipe -- {"ok":true,"result":{...},
// "check_report":...,"structural":N} or {"ok":false,"what":...} --
// and _exit()s (no atexit handlers, no stream flushing: the parent
// owns all artifacts).
// ---------------------------------------------------------------

void
writeAllFd(int fd, const std::string &s)
{
    io::writeAll(fd, s.data(), s.size());
}

[[noreturn]] void
runChildJob(const ExperimentJob &job, const JobExecutionOptions &opts,
            int result_fd)
{
    // The forked child inherits the parent's violation count;
    // report only what this job adds.
    const std::uint64_t structural_before =
        check::invariantViolations();
    std::string doc;
    int code = 0;
    try {
        ExperimentOutput out = executeJob(job, opts);
        std::ostringstream ss;
        json::Writer w(ss);
        w.beginObject();
        w.kv("ok", true);
        w.key("result").rawValue([&](std::ostream &ro) {
            writeSimResultJson(ro, out.result);
        });
        w.kv("check_report", out.result.checkReport);
        w.kv("structural",
             check::invariantViolations() - structural_before);
        w.endObject();
        doc = ss.str();
    } catch (const std::exception &e) {
        std::ostringstream ss;
        json::Writer w(ss);
        w.beginObject();
        w.kv("ok", false);
        w.kv("what", e.what());
        w.endObject();
        doc = ss.str();
        code = 2;
    } catch (...) {
        doc = "{\"ok\":false,\"what\":\"unknown exception\"}";
        code = 2;
    }
    writeAllFd(result_fd, doc);
    ::_exit(code);
}

/** 0 = unparseable, 1 = ok result, 2 = child-reported failure. */
int
parseChildDoc(const std::string &text, RunOutcome &o,
              std::string &what)
{
    json::Value doc;
    if (!json::Reader(text).parse(doc) ||
        doc.type != json::Value::Type::Object)
        return 0;
    bool okflag = false;
    if (!json::getBool(doc, "ok", okflag))
        return 0;
    if (!okflag) {
        if (!json::getString(doc, "what", what) || what.empty())
            what = "child reported failure without detail";
        return 2;
    }
    const json::Value *res = doc.find("result");
    if (!res || !simResultFromJson(*res, o.output.result))
        return 0;
    json::getString(doc, "check_report", o.output.result.checkReport);
    json::getU64(doc, "structural", o.structuralViolations);
    return 1;
}

/** Sandbox scheduler bookkeeping: an attempt waiting to start. */
struct PendingAttempt
{
    std::size_t idx;  //!< index into the batch
    unsigned attempt; //!< 1-based attempt number
    Clock::time_point notBefore;
};

std::uint64_t
msSince(Clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

/** Outcome of a job a drain request settled before its next attempt
 * could start (see SupervisorOptions::stopRequested). */
RunOutcome
canceledOutcome(const ExperimentJob &job, unsigned attempts)
{
    RunOutcome o;
    o.status = RunStatus::Failed;
    o.canceled = true;
    o.attempts = attempts;
    o.failure.status = RunStatus::Failed;
    o.failure.what = "canceled by drain";
    o.failure.repro = jobReproCommand(job);
    return o;
}

/** Process-wide default-policy override (the CLI flags). */
std::mutex defaultOptionsMutex;
std::optional<SupervisorOptions> defaultOptionsOverride;

/**
 * Rate-limited campaign progress line (stderr). Purely
 * observational and not thread-safe: the sandbox scheduler touches
 * it from its single thread, the thread-mode workers only under
 * their settle lock. The instrs/sec figure counts *simulated*
 * instructions of finalized jobs (warmup + measure budget) per wall
 * second -- a throughput number comparable across campaigns, not a
 * per-attempt profile.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::uint64_t every_ms, std::size_t total_jobs)
        : everyMs_(every_ms), total_(total_jobs),
          start_(Clock::now()), nextPrint_(start_)
    {
    }

    void jobDone(std::uint64_t simulated_instructions)
    {
        ++done_;
        instructions_ += simulated_instructions;
    }

    void retried(std::size_t n = 1) { retries_ += n; }

    void maybePrint(std::size_t running)
    {
        if (everyMs_ == 0 || total_ == 0)
            return;
        const Clock::time_point now = Clock::now();
        if (now < nextPrint_)
            return;
        nextPrint_ = now + std::chrono::milliseconds(everyMs_);
        const double elapsed =
            std::chrono::duration<double>(now - start_).count();
        const ResultCache::Counts cc = ResultCache::global().counts();
        const std::uint64_t probes = cc.hits + cc.misses;
        const double hit_rate =
            probes > 0 ? 100.0 * static_cast<double>(cc.hits) /
                             static_cast<double>(probes)
                       : 0.0;
        const double mips =
            elapsed > 0.0
                ? static_cast<double>(instructions_) / elapsed / 1e6
                : 0.0;
        std::string eta = "?";
        if (done_ > 0 && elapsed > 0.0) {
            const double per_job = elapsed / static_cast<double>(done_);
            eta = csprintf(
                "%.0fs",
                per_job * static_cast<double>(total_ - done_));
        }
        std::fprintf(stderr,
                     "[supervisor] %zu/%zu done, %zu running, "
                     "%zu retried, cache %.0f%% hit, "
                     "%.1fM instr/s, ETA %s\n",
                     done_, total_, running, retries_, hit_rate,
                     mips, eta.c_str());
    }

  private:
    std::uint64_t everyMs_;
    std::size_t total_;
    Clock::time_point start_;
    Clock::time_point nextPrint_;
    std::size_t done_ = 0;
    std::size_t retries_ = 0;
    std::uint64_t instructions_ = 0;
};

/** Simulated-instruction budget a finalized job contributes to the
 * campaign throughput figure. */
std::uint64_t
jobInstructionBudget(const ExperimentJob &job)
{
    return job.cfg.warmupInstructions + job.cfg.simInstructions;
}

} // namespace

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::TimedOut: return "timed_out";
      case RunStatus::Crashed: return "crashed";
    }
    return "?";
}

SupervisorOptions
SupervisorOptions::fromEnv()
{
    SupervisorOptions o;
    if (const char *e = std::getenv("MORRIGAN_ISOLATE"))
        o.isolate = *e != '\0' && std::string(e) != "0";
    if (const char *e = std::getenv("MORRIGAN_JOB_TIMEOUT"))
        o.jobTimeoutMs =
            parseEnvU64("MORRIGAN_JOB_TIMEOUT", e, 1, 86'400) * 1000;
    if (const char *e = std::getenv("MORRIGAN_JOB_RETRIES"))
        o.maxAttempts = 1 + static_cast<unsigned>(parseEnvU64(
                                "MORRIGAN_JOB_RETRIES", e, 0, 100));
    if (const char *e = std::getenv("MORRIGAN_JOURNAL"))
        o.journalPath = e;
    if (const char *e = std::getenv("MORRIGAN_CHECKPOINT_DIR"))
        o.checkpointDir = e;
    if (const char *e = std::getenv("MORRIGAN_CHECKPOINT_EVERY"))
        o.checkpointEveryInstructions =
            parseEnvU64("MORRIGAN_CHECKPOINT_EVERY", e, 1,
                        std::uint64_t{1} << 40);
    if (const char *e = std::getenv("MORRIGAN_PROGRESS_MS"))
        o.progressEveryMs =
            parseEnvU64("MORRIGAN_PROGRESS_MS", e, 1, 3'600'000);
    return o;
}

FailureManifest &
FailureManifest::global()
{
    static FailureManifest manifest;
    return manifest;
}

void
FailureManifest::add(const std::string &label,
                     const RunFailure &failure, unsigned attempts,
                     std::uint64_t duration_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back({label, failure, attempts, duration_ms});
}

std::vector<FailureManifest::Entry>
FailureManifest::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
}

std::size_t
FailureManifest::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
FailureManifest::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

void
FailureManifest::writeJson(std::ostream &os) const
{
    std::vector<Entry> snapshot = entries();
    json::Writer w(os);
    w.beginArray();
    for (const Entry &e : snapshot) {
        w.beginObject();
        w.kv("label", e.label);
        w.kv("status", runStatusName(e.failure.status));
        w.kv("what", e.failure.what);
        w.kv("signal", e.failure.signal);
        w.kv("repro", e.failure.repro);
        w.kv("attempts", std::uint64_t{e.attempts});
        w.kv("duration_ms", e.durationMs);
        w.endObject();
    }
    w.endArray();
}

std::uint64_t
derivedJobTimeoutMs(const ExperimentJob &job,
                    std::uint64_t executed_instructions)
{
    // A generous fixed floor (cold caches, loaded CI machines) plus
    // time proportional to the instruction budget still to run; the
    // simulator sustains well over 1M instructions/s, so 50 us per
    // 1k instructions is an order of magnitude of slack. An attempt
    // resuming from a checkpoint only pays for the remainder.
    const std::uint64_t budget =
        job.cfg.warmupInstructions + job.cfg.simInstructions;
    const std::uint64_t remaining =
        budget - std::min(executed_instructions, budget);
    return 60'000 + remaining / 20;
}

std::uint64_t
retryDelayMs(const std::string &key, unsigned attempt,
             const SupervisorOptions &opt)
{
    if (attempt <= 1)
        return 0;
    const unsigned shift = std::min(attempt - 2, 20u);
    const std::uint64_t backoff =
        std::min(opt.backoffCapMs, opt.backoffBaseMs << shift);
    // Jitter in [0, backoff/2], hashed from (key, attempt): spreads
    // concurrent retries without making reruns nondeterministic.
    const std::uint64_t jitter_range = backoff / 2 + 1;
    const std::uint64_t h =
        fnv1a(key + "#" + std::to_string(attempt));
    return backoff + h % jitter_range;
}

std::string
jobLabel(const ExperimentJob &job)
{
    std::string label = job.workload.name;
    if (job.smt)
        label += "+" + job.smtWorkload.name;
    label += " x ";
    label += job.prefetcherFactory
                 ? std::string("custom")
                 : prefetcherDisplayName(job.kind);
    if (!job.journalTag.empty())
        label += " [" + job.journalTag + "]";
    return label;
}

std::string
jobReproCommand(const ExperimentJob &job)
{
    if (job.prefetcherFactory) {
        if (!job.journalTag.empty())
            return "# non-CLI job: " + job.journalTag;
        return "# job uses a custom prefetcher factory; no CLI repro";
    }
    const SimConfig &c = job.cfg;
    std::string cmd = "./build/tools/morrigan-sim";
    cmd += " --workload " + job.workload.name;
    if (job.smt)
        cmd += " --smt-with " + job.smtWorkload.name;
    // The job's spec string is the CLI spelling by construction.
    cmd += csprintf(" --prefetcher %s", job.kind.c_str());
    cmd += csprintf(" --warmup %llu --instructions %llu",
                    static_cast<unsigned long long>(
                        c.warmupInstructions),
                    static_cast<unsigned long long>(
                        c.simInstructions));
    if (c.pageTableDepth != 4)
        cmd += csprintf(" --pt-depth %u", c.pageTableDepth);
    if (c.walker.asap)
        cmd += " --asap";
    if (c.perfectIstlb)
        cmd += " --perfect-istlb";
    if (c.prefetchIntoStlb)
        cmd += " --p2tlb";
    if (c.icachePref == ICachePrefKind::None)
        cmd += " --icache none";
    else if (c.icachePref == ICachePrefKind::FnlMma)
        cmd += " --icache fnl-mma";
    if (!c.icacheTranslationCost)
        cmd += " --no-icache-xlat";
    if (c.prefetchOnStlbHits)
        cmd += " --prefetch-on-hits";
    if (c.contextSwitchInterval > 0)
        cmd += csprintf(" --ctx-switch %llu",
                        static_cast<unsigned long long>(
                            c.contextSwitchInterval));
    if (c.pbEntries != SimConfig{}.pbEntries)
        cmd += csprintf(" --pb-entries %u", c.pbEntries);
    if (c.checkLevel > 0)
        cmd += csprintf(" --check-level %d", c.checkLevel);
    if (c.injectWalkerBugPeriod > 0)
        cmd += csprintf(" --inject %llu",
                        static_cast<unsigned long long>(
                            c.injectWalkerBugPeriod));
    return cmd;
}

CampaignJournal::CampaignJournal(const std::string &path)
{
    if (path.empty())
        return;
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        fatal("cannot open journal '%s': %s", path.c_str(),
              std::strerror(errno));

    std::ifstream ifs(path);
    std::string line;
    std::size_t bad = 0, stale = 0;
    std::uint64_t stale_version = 0;
    while (std::getline(ifs, line)) {
        if (line.empty())
            continue;
        std::string key;
        RunOutcome o;
        std::uint64_t v = 0;
        if (parseJournalLine(line, key, o, &v)) {
            o.fromJournal = true;
            replay_[key] = std::move(o); // last record wins
        } else if (v != 0) {
            ++stale;
            stale_version = v;
        } else {
            ++bad;
        }
    }
    if (stale > 0)
        warn("journal '%s': %zu record(s) use journal schema v%llu "
             "(this build writes v%d); those jobs will rerun",
             path.c_str(), stale,
             static_cast<unsigned long long>(stale_version),
             json::journalSchemaVersion);
    if (bad > 0)
        warn("journal '%s': ignoring %zu unparseable line(s) "
             "(interrupted append); those jobs will rerun",
             path.c_str(), bad);
}

CampaignJournal::~CampaignJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
CampaignJournal::lookup(const std::string &key, RunOutcome &out) const
{
    auto it = replay_.find(key);
    if (it == replay_.end())
        return false;
    out = it->second;
    return true;
}

void
CampaignJournal::record(const std::string &key,
                        const RunOutcome &outcome)
{
    if (fd_ < 0)
        return;
    telemetry::ScopedSpan span(telemetry::Phase::JournalAppend);
    std::ostringstream ss;
    writeJournalLine(ss, key, outcome);
    ss << '\n';
    const std::string line = ss.str();
    // One O_APPEND write per record: concurrent appenders cannot
    // interleave. If the write comes up short (disk full, quota),
    // never append the remainder -- another process's record could
    // land between the fragments and be glued onto ours, corrupting
    // *its* line too. Instead seal the fragment with a newline (so
    // only this unparseable record is lost) and retry the whole
    // record once as a fresh line.
    for (int tries = 0; tries < 2; ++tries) {
        const ssize_t n =
            faultfs::write(fd_, line.data(), line.size());
        if (n == static_cast<ssize_t>(line.size())) {
            if (faultfs::fsync(fd_) != 0)
                warn("journal: fsync failed (%s); the record may "
                     "not survive a crash (that job would rerun on "
                     "resume)",
                     std::strerror(errno));
            telemetry::add(telemetry::Counter::Fsyncs);
            return;
        }
        if (n < 0) {
            warn("journal: write failed (%s); record dropped "
                 "(that job will rerun on resume)",
                 std::strerror(errno));
            return;
        }
        io::writeRetry(fd_, "\n", 1);
    }
    warn("journal: short write persists; record dropped (that job "
         "will rerun on resume)");
    faultfs::fsync(fd_);
    telemetry::add(telemetry::Counter::Fsyncs);
}

Supervisor::Supervisor(SupervisorOptions opt) : opt_(std::move(opt))
{
    if (opt_.maxAttempts == 0)
        opt_.maxAttempts = 1;
    // Only a forked child can be killed at its deadline; a thread
    // cannot, so without --isolate a pinned deadline does nothing.
    static std::atomic<bool> warned{false};
    if (opt_.jobTimeoutMs > 0 && !opt_.isolate &&
        !warned.exchange(true))
        warn("job timeout (--job-timeout / MORRIGAN_JOB_TIMEOUT) "
             "applies only under --isolate; ignoring it in thread "
             "mode");
}

SupervisorOptions
Supervisor::defaultOptions()
{
    {
        std::lock_guard<std::mutex> lock(defaultOptionsMutex);
        if (defaultOptionsOverride)
            return *defaultOptionsOverride;
    }
    return SupervisorOptions::fromEnv();
}

void
Supervisor::setDefaultOptions(const SupervisorOptions &opt)
{
    std::lock_guard<std::mutex> lock(defaultOptionsMutex);
    defaultOptionsOverride = opt;
}

unsigned
Supervisor::jobs() const
{
    return opt_.jobs > 0 ? opt_.jobs : defaultJobs();
}

std::string
Supervisor::jobKey(const ExperimentJob &job) const
{
    if (job.cacheable())
        return experimentKey(job.cfg, job.kind, job.workload,
                             job.smt ? &job.smtWorkload : nullptr);
    // Miss-stream outputs are not journalable (the stream is not
    // serialized), so such jobs stay anonymous even when tagged.
    if (!job.journalTag.empty() && !job.cfg.collectMissStream)
        return "tag:" + job.journalTag;
    return "";
}

JobExecutionOptions
Supervisor::jobOptions(const ExperimentJob &job,
                       const std::string &key) const
{
    // Only cacheable jobs snapshot: everything else either cannot be
    // saved (checked runs, miss-stream collection) or has no stable
    // identity to key the image by (factory prefetchers).
    JobExecutionOptions opts;
    if (!job.cacheable())
        return opts;
    char buf[24];
    if (!opt_.checkpointDir.empty() && !key.empty()) {
        // Best-effort: if the directory cannot be created the
        // autosaves fail with a warning, they never fail the job.
        std::error_code ec;
        std::filesystem::create_directories(opt_.checkpointDir, ec);
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          cacheKeyDigest(key)));
        opts.checkpointPath = opt_.checkpointDir +
                              "/morrigan-ckpt-" + buf + ".snap";
        opts.checkpointEvery = opt_.checkpointEveryInstructions;
    }
    const std::string warmup_dir = warmupImageDir();
    if (!warmup_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(warmup_dir, ec);
        std::snprintf(
            buf, sizeof(buf), "%016llx",
            static_cast<unsigned long long>(cacheKeyDigest(
                warmupKey(job.cfg, job.kind, job.workload,
                          job.smt ? &job.smtWorkload : nullptr))));
        opts.warmupImagePath =
            warmup_dir + "/morrigan-warm-" + buf + ".snap";
    }
    return opts;
}

std::uint64_t
Supervisor::attemptTimeoutMs(const ExperimentJob &job,
                             const JobExecutionOptions &opts) const
{
    if (opt_.jobTimeoutMs > 0)
        return opt_.jobTimeoutMs;
    std::uint64_t executed = 0;
    SnapshotHeader hdr;
    if (!opts.checkpointPath.empty() &&
        readSnapshotHeader(opts.checkpointPath, hdr))
        executed = hdr.progressInstructions;
    return derivedJobTimeoutMs(job, executed);
}

std::vector<RunOutcome>
Supervisor::run(const std::vector<ExperimentJob> &batch)
{
    std::vector<RunOutcome> out(batch.size());
    std::vector<std::string> keys(batch.size());
    CampaignJournal journal(opt_.journalPath);
    ResultCache &cache = ResultCache::global();

    // Plan: replay journaled outcomes, serve cache hits, dedupe
    // repeated cacheable keys, execute the rest.
    std::unordered_map<std::string, std::size_t> representative;
    std::vector<std::pair<std::size_t, std::size_t>> copies;
    std::vector<bool> is_copy(batch.size(), false);
    std::vector<std::size_t> work;
    auto settled = [&](std::size_t i) {
        if (opt_.onJobSettled)
            opt_.onJobSettled(i, out[i]);
    };
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const ExperimentJob &job = batch[i];
        keys[i] = jobKey(job);
        if (!keys[i].empty() && journal.lookup(keys[i], out[i])) {
            settled(i);
            continue;
        }
        if (opt_.useCache && job.cacheable() &&
            cache.lookup(keys[i], out[i].output.result)) {
            out[i].status = RunStatus::Ok;
            out[i].fromCache = true;
            out[i].attempts = 0;
            if (journal.enabled())
                journal.record(keys[i], out[i]);
            settled(i);
            continue;
        }
        if (job.cacheable()) {
            auto [it, fresh] = representative.try_emplace(keys[i], i);
            if (!fresh) {
                copies.emplace_back(i, it->second);
                is_copy[i] = true;
                continue;
            }
        }
        work.push_back(i);
    }

    // Publish a finalized outcome the moment the scheduler settles
    // it: the journal then checkpoints progress job by job, so a
    // campaign killed mid-flight resumes with every finished job.
    PublishFn publish = [&](std::size_t i) {
        const RunOutcome &o = out[i];
        // Drain cancellations are settled but never published: the
        // cancellation must not be replayed as a terminal failure by
        // the campaign that resumes this journal.
        if (!o.canceled) {
            if (o.ok() && opt_.useCache && batch[i].cacheable())
                cache.insert(keys[i], o.output.result);
            if (!keys[i].empty() && journal.enabled())
                journal.record(keys[i], o);
        }
        settled(i);
    };

    if (opt_.isolate) {
        // Jobs whose outputs cannot cross the result pipe run
        // inline (uncontained); everything else forks.
        std::vector<std::size_t> sandboxed;
        for (std::size_t w : work) {
            if (batch[w].cfg.collectMissStream) {
                out[w] = superviseInline(batch[w], keys[w]);
                publish(w);
            } else {
                sandboxed.push_back(w);
            }
        }
        runSandboxed(batch, sandboxed, keys, out, publish);
    } else {
        runThreaded(batch, work, keys, out, publish);
    }

    for (const auto &[dst, src] : copies) {
        out[dst] = out[src];
        settled(dst);
    }

    // Every job that ends this campaign without a result -- fresh
    // failure or replayed one -- belongs in the manifest the CLIs
    // emit.
    for (std::size_t i = 0; i < batch.size(); ++i)
        if (!out[i].ok() && !is_copy[i])
            FailureManifest::global().add(jobLabel(batch[i]),
                                          out[i].failure,
                                          out[i].attempts,
                                          out[i].durationMs);
    return out;
}

RunOutcome
Supervisor::superviseInline(const ExperimentJob &job,
                            const std::string &key)
{
    const std::string retry_key = key.empty() ? jobLabel(job) : key;
    const JobExecutionOptions opts = jobOptions(job, key);
    RunOutcome o;
    for (unsigned attempt = 1; attempt <= opt_.maxAttempts;
         ++attempt) {
        if (opt_.stopRequested && opt_.stopRequested())
            return canceledOutcome(job, attempt - 1);
        if (attempt > 1) {
            telemetry::ScopedSpan span(
                telemetry::Phase::RetryBackoff);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                retryDelayMs(retry_key, attempt, opt_)));
        }
        const Clock::time_point began = Clock::now();
        try {
            o.output = executeJob(job, opts);
            o.status = RunStatus::Ok;
            o.attempts = attempt;
            o.durationMs = msSince(began);
            // The caller publishes the result (cache + journal); the
            // mid-run checkpoint is dead weight from here on.
            if (!opts.checkpointPath.empty())
                ::unlink(opts.checkpointPath.c_str());
            return o;
        } catch (const std::exception &e) {
            o.failure.what = e.what();
        } catch (...) {
            o.failure.what = "unknown exception";
        }
        o.status = RunStatus::Failed;
        o.failure.status = RunStatus::Failed;
        o.failure.repro = jobReproCommand(job);
        o.attempts = attempt;
        o.durationMs = msSince(began);
    }
    return o;
}

void
Supervisor::runThreaded(const std::vector<ExperimentJob> &batch,
                        const std::vector<std::size_t> &work,
                        const std::vector<std::string> &keys,
                        std::vector<RunOutcome> &out,
                        const PublishFn &publish)
{
    if (work.empty())
        return;
    ProgressMeter meter(opt_.progressEveryMs, work.size());
    std::mutex settle_mutex; // guards out, publish, meter, error
    std::exception_ptr error;
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> running{0};

    // Each job is self-contained, so any assignment of jobs to
    // workers produces identical results; the shared cursor only
    // affects scheduling. superviseInline contains job faults, so
    // only publishing (journal, settle hook) can throw: the first
    // such exception stops every worker and is rethrown to the
    // caller.
    auto worker = [&] {
        try {
            for (;;) {
                const std::size_t k = cursor.fetch_add(1);
                if (k >= work.size())
                    return;
                const std::size_t w = work[k];
                ++running;
                RunOutcome o = superviseInline(batch[w], keys[w]);
                --running;
                std::lock_guard<std::mutex> lock(settle_mutex);
                out[w] = std::move(o);
                publish(w);
                if (!out[w].canceled) {
                    meter.retried(out[w].attempts - 1);
                    meter.jobDone(jobInstructionBudget(batch[w]));
                }
                meter.maybePrint(running.load());
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(settle_mutex);
            if (!error)
                error = std::current_exception();
            cursor.store(work.size());
        }
    };
    const std::size_t nthreads =
        std::min<std::size_t>(jobs(), work.size());
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t) {
        try {
            threads.emplace_back(worker);
        } catch (const std::system_error &e) {
            // Out of threads: the workers already running share the
            // batch between them.
            if (threads.empty())
                throw;
            warn("supervisor: started %zu of %zu workers: %s",
                 threads.size(), nthreads, e.what());
            break;
        }
    }
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

void
Supervisor::runSandboxed(const std::vector<ExperimentJob> &batch,
                         const std::vector<std::size_t> &work,
                         const std::vector<std::string> &keys,
                         std::vector<RunOutcome> &out,
                         const PublishFn &publish)
{
    if (work.empty())
        return;
    const unsigned nchildren = std::max<unsigned>(
        1, static_cast<unsigned>(
               std::min<std::size_t>(jobs(), work.size())));

    std::deque<PendingAttempt> pending;
    const Clock::time_point start = Clock::now();
    for (std::size_t w : work)
        pending.push_back({w, 1, start});

    ProgressMeter meter(opt_.progressEveryMs, work.size());

    struct Child
    {
        pid_t pid;
        std::size_t idx;
        unsigned attempt;
        int resultFd;
        int stderrFd;
        std::string resultBuf;
        std::string stderrBuf;
        Clock::time_point deadline;
        std::uint64_t timeoutMs;
        std::string checkpointPath;
        Clock::time_point launched;
        bool watchdogKilled = false;
    };
    std::vector<Child> children;

    auto handle_failure = [&](const Child &c, RunStatus status,
                              const std::string &what, int sig) {
        if (c.attempt < opt_.maxAttempts) {
            const std::string retry_key = keys[c.idx].empty()
                                              ? jobLabel(batch[c.idx])
                                              : keys[c.idx];
            pending.push_back(
                {c.idx, c.attempt + 1,
                 Clock::now() +
                     std::chrono::milliseconds(retryDelayMs(
                         retry_key, c.attempt + 1, opt_))});
            meter.retried();
            return;
        }
        RunOutcome &o = out[c.idx];
        o.status = status;
        o.attempts = c.attempt;
        o.durationMs = msSince(c.launched);
        o.failure.status = status;
        o.failure.what = what;
        o.failure.signal = sig;
        o.failure.stderrTail = tailOf(c.stderrBuf);
        o.failure.repro = jobReproCommand(batch[c.idx]);
        publish(c.idx);
        meter.jobDone(jobInstructionBudget(batch[c.idx]));
    };

    auto classify = [&](Child &c, int status) {
        if (WIFSIGNALED(status)) {
            const int sig = WTERMSIG(status);
            if (c.watchdogKilled)
                handle_failure(
                    c, RunStatus::TimedOut,
                    csprintf("exceeded %llu ms watchdog deadline "
                             "(child killed)",
                             static_cast<unsigned long long>(
                                 c.timeoutMs)),
                    sig);
            else
                handle_failure(c, RunStatus::Crashed,
                               csprintf("terminated by signal %d "
                                        "(%s)",
                                        sig, strsignal(sig)),
                               sig);
            return;
        }
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        RunOutcome o;
        std::string what;
        const int parsed = parseChildDoc(c.resultBuf, o, what);
        if (code == 0 && parsed == 1) {
            o.status = RunStatus::Ok;
            o.attempts = c.attempt;
            o.durationMs = msSince(c.launched);
            out[c.idx] = std::move(o);
            publish(c.idx);
            meter.jobDone(jobInstructionBudget(batch[c.idx]));
            // Result is durable; drop the mid-run checkpoint.
            if (!c.checkpointPath.empty())
                ::unlink(c.checkpointPath.c_str());
        } else if (parsed == 2) {
            handle_failure(c, RunStatus::Failed, what, 0);
        } else {
            handle_failure(
                c, RunStatus::Failed,
                csprintf("child exited with status %d without a "
                         "parseable result",
                         code),
                0);
        }
    };

    auto draining = [&] {
        return opt_.stopRequested && opt_.stopRequested();
    };

    while (!pending.empty() || !children.empty()) {
        Clock::time_point now = Clock::now();

        // Fork every eligible attempt a free slot can take (none
        // once a drain is requested). The scheduler itself stays
        // single-threaded, so fork() never races another of our
        // threads holding a lock.
        for (auto it = pending.begin();
             !draining() && it != pending.end() &&
             children.size() < nchildren;) {
            if (it->notBefore > now) {
                ++it;
                continue;
            }
            int rp[2], ep[2];
            JobExecutionOptions opts;
            std::uint64_t tmo = 0;
            pid_t pid = -1;
            {
                telemetry::ScopedSpan span(
                    telemetry::Phase::SandboxSpawn);
                if (::pipe(rp) != 0)
                    fatal("pipe: %s", std::strerror(errno));
                if (::pipe(ep) != 0)
                    fatal("pipe: %s", std::strerror(errno));
                // The deadline is sized to what is left: a retry
                // that resumes from the previous attempt's
                // checkpoint gets a budget for the remaining
                // instructions, not the whole run again (read before
                // fork so parent and child agree on which image the
                // attempt starts from).
                opts = jobOptions(batch[it->idx], keys[it->idx]);
                tmo = attemptTimeoutMs(batch[it->idx], opts);
                pid = ::fork();
            }
            if (pid < 0)
                fatal("fork: %s", std::strerror(errno));
            if (pid == 0) {
                ::close(rp[0]);
                ::close(ep[0]);
                ::dup2(ep[1], 2);
                ::close(ep[1]);
                runChildJob(batch[it->idx], opts, rp[1]);
            }
            ::close(rp[1]);
            ::close(ep[1]);
            children.push_back(
                {pid, it->idx, it->attempt, rp[0], ep[0], "", "",
                 now + std::chrono::milliseconds(tmo), tmo,
                 opts.checkpointPath, now});
            it = pending.erase(it);
        }

        // Wait for output, a deadline, or a retry becoming ready.
        std::vector<pollfd> fds;
        std::vector<std::pair<std::size_t, bool>> fd_owner;
        for (std::size_t ci = 0; ci < children.size(); ++ci) {
            if (children[ci].resultFd >= 0) {
                fds.push_back({children[ci].resultFd, POLLIN, 0});
                fd_owner.emplace_back(ci, true);
            }
            if (children[ci].stderrFd >= 0) {
                fds.push_back({children[ci].stderrFd, POLLIN, 0});
                fd_owner.emplace_back(ci, false);
            }
        }
        Clock::time_point next = Clock::time_point::max();
        for (const Child &c : children)
            if (!c.watchdogKilled)
                next = std::min(next, c.deadline);
        if (!draining() && children.size() < nchildren)
            for (const PendingAttempt &p : pending)
                next = std::min(next, p.notBefore);
        int poll_ms = -1;
        if (fds.empty() && next == Clock::time_point::max()) {
            // Only reachable mid-drain (otherwise something would
            // be launchable): fall through to the cancel step.
            poll_ms = 0;
        } else if (next != Clock::time_point::max()) {
            auto delta =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    next - Clock::now())
                    .count();
            poll_ms = delta < 0
                          ? 0
                          : static_cast<int>(std::min<long long>(
                                delta + 1, 60'000));
        }
        {
            telemetry::ScopedSpan span(
                telemetry::Phase::SandboxWait);
            io::pollRetry(fds.data(),
                          static_cast<nfds_t>(fds.size()), poll_ms);
        }

        for (std::size_t fi = 0; fi < fds.size(); ++fi) {
            if (!(fds[fi].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Child &c = children[fd_owner[fi].first];
            const bool is_result = fd_owner[fi].second;
            int &fd = is_result ? c.resultFd : c.stderrFd;
            std::string &buf = is_result ? c.resultBuf : c.stderrBuf;
            char chunk[4096];
            const ssize_t n = io::readRetry(fd, chunk, sizeof(chunk));
            if (n > 0) {
                buf.append(chunk, static_cast<std::size_t>(n));
            } else {
                ::close(fd);
                fd = -1;
            }
        }

        now = Clock::now();
        for (auto it = children.begin(); it != children.end();) {
            if (it->resultFd < 0 && it->stderrFd < 0) {
                int status = 0;
                io::waitpidRetry(it->pid, &status, 0);
                classify(*it, status);
                it = children.erase(it);
            } else {
                if (now >= it->deadline && !it->watchdogKilled) {
                    ::kill(it->pid, SIGKILL);
                    it->watchdogKilled = true;
                }
                ++it;
            }
        }

        // Drain: with every child reaped, settle what never
        // launched as canceled (not journaled).
        if (draining() && children.empty()) {
            for (const PendingAttempt &p : pending) {
                out[p.idx] =
                    canceledOutcome(batch[p.idx], p.attempt - 1);
                publish(p.idx);
            }
            pending.clear();
        }
        meter.maybePrint(children.size());
    }
}

} // namespace morrigan
