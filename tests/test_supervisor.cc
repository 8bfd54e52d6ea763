/**
 * @file
 * Campaign supervisor regression tests: fault containment (thread
 * and sandbox modes), sandbox watchdog timeouts, deterministic retry
 * scheduling, thread-mode drain, journal checkpoint/resume
 * (bit-identical, tolerant of torn writes), failure manifests and
 * degraded-mode batch results.
 */

#include <gtest/gtest.h>

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.hh"
#include "core/tlb_prefetcher.hh"
#include "sim/experiment.hh"
#include "sim/supervisor.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmupInstructions = 20'000;
    cfg.simInstructions = 60'000;
    return cfg;
}

/** Every field compared exactly: supervised results must be
 * bit-identical to direct serial execution, replay included. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.prefetcher, b.prefetcher);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.istlbMisses, b.istlbMisses);
    EXPECT_EQ(a.dstlbMisses, b.dstlbMisses);
    EXPECT_EQ(a.pbHits, b.pbHits);
    EXPECT_EQ(a.demandWalks, b.demandWalks);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.meanDemandWalkLatencyInstr,
              b.meanDemandWalkLatencyInstr);
}

/** Throws from inside the simulation loop (thread-mode fault). */
class ThrowingPrefetcher : public TlbPrefetcher
{
  public:
    const char *name() const override { return "throwing"; }
    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        throw std::runtime_error("synthetic prefetcher fault");
    }
};

/** Dies by SIGSEGV inside the simulation loop (sandbox fault). */
class CrashingPrefetcher : public TlbPrefetcher
{
  public:
    const char *name() const override { return "crashing"; }
    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        std::raise(SIGSEGV);
    }
};

/** Never returns from the simulation loop (watchdog fodder). */
class HangingPrefetcher : public TlbPrefetcher
{
  public:
    const char *name() const override { return "hanging"; }
    void
    onInstrStlbMiss(Vpn, Addr, unsigned,
                    std::vector<PrefetchRequest> &) override
    {
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }
};

ExperimentJob
goodJob(const SimConfig &cfg, unsigned workload_index)
{
    return ExperimentJob::of(cfg, "none",
                             qmmWorkloadParams(workload_index));
}

template <typename Prefetcher>
ExperimentJob
faultyJob(const SimConfig &cfg, const char *tag)
{
    ExperimentJob job = ExperimentJob::with(
        cfg, [] { return std::make_unique<Prefetcher>(); },
        qmmWorkloadParams(0));
    job.journalTag = tag;
    return job;
}

std::string
tempPath(const char *stem)
{
    return testing::TempDir() + stem;
}

} // namespace

TEST(Supervisor, ThreadModeContainsExceptions)
{
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor sup(opt);

    std::vector<ExperimentJob> jobs = {
        goodJob(cfg, 1),
        faultyJob<ThrowingPrefetcher>(cfg, "test:throwing"),
        goodJob(cfg, 2),
    };
    std::vector<RunOutcome> out = sup.run(jobs);
    ASSERT_EQ(out.size(), 3u);

    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[2].ok());
    expectIdentical(out[0].output.result,
                    runWorkload(cfg, "none",
                                qmmWorkloadParams(1)));

    EXPECT_EQ(out[1].status, RunStatus::Failed);
    EXPECT_EQ(out[1].attempts, 1u);
    EXPECT_NE(out[1].failure.what.find("synthetic prefetcher fault"),
              std::string::npos);
    EXPECT_NE(out[1].failure.repro.find("test:throwing"),
              std::string::npos);
}

TEST(Supervisor, ThreadModeRetriesThenFails)
{
    SupervisorOptions opt;
    opt.maxAttempts = 3;
    opt.backoffBaseMs = 1;
    opt.backoffCapMs = 2;
    opt.useCache = false;
    Supervisor sup(opt);

    std::vector<RunOutcome> out = sup.run(
        {faultyJob<ThrowingPrefetcher>(quickConfig(), "test:retry")});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::Failed);
    EXPECT_EQ(out[0].attempts, 3u);
}

TEST(Supervisor, RunBatchDegradedMode)
{
    // The result-only convenience API must not abort on a failed
    // job: the row degrades to a default SimResult (ipc 0) that the
    // metric helpers treat as missing.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor::setDefaultOptions(opt);

    std::vector<SimResult> results = runBatch({
        goodJob(cfg, 3),
        faultyJob<ThrowingPrefetcher>(cfg, "test:degraded"),
    });
    Supervisor::setDefaultOptions(SupervisorOptions::fromEnv());

    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[0].ipc, 0.0);
    EXPECT_EQ(results[1].ipc, 0.0);
    EXPECT_TRUE(std::isnan(speedupPct(results[1], results[0])));
}

TEST(Supervisor, IsolateContainsSigsegv)
{
    // Under ASan the child's SIGSEGV is reported as a nonzero exit
    // instead of a signal death, so assert containment (!ok) rather
    // than the specific Crashed classification.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.isolate = true;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor sup(opt);

    std::vector<ExperimentJob> jobs = {
        goodJob(cfg, 4),
        faultyJob<CrashingPrefetcher>(cfg, "test:crashing"),
    };
    std::vector<RunOutcome> out = sup.run(jobs);
    ASSERT_EQ(out.size(), 2u);

    EXPECT_TRUE(out[0].ok());
    expectIdentical(out[0].output.result,
                    runWorkload(cfg, "none",
                                qmmWorkloadParams(4)));
    EXPECT_FALSE(out[1].ok());
    EXPECT_EQ(out[1].attempts, 1u);
}

TEST(Supervisor, WatchdogKillsHungJob)
{
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.isolate = true;
    opt.jobTimeoutMs = 500;
    opt.maxAttempts = 2;
    opt.backoffBaseMs = 1;
    opt.backoffCapMs = 2;
    opt.useCache = false;
    Supervisor sup(opt);

    std::vector<RunOutcome> out = sup.run(
        {faultyJob<HangingPrefetcher>(cfg, "test:hanging")});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::TimedOut);
    EXPECT_EQ(out[0].attempts, 2u);
}

TEST(Supervisor, ThreadModeDrainCancelsPendingJobsOnly)
{
    // A drain requested by the first settle: every job settles
    // exactly once, the jobs already running finish and are
    // journaled, the rest settle canceled and are not, so a second
    // campaign on the same journal replays the finished jobs and
    // executes only the canceled ones.
    const SimConfig cfg = quickConfig();
    std::vector<ExperimentJob> batch;
    for (unsigned i = 13; i < 21; ++i)
        batch.push_back(goodJob(cfg, i));

    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        const std::string journal =
            tempPath("morrigan-test-journal-drain-") +
            std::to_string(workers) + ".jsonl";
        std::remove(journal.c_str());

        std::atomic<bool> stop{false};
        std::vector<unsigned> settles(batch.size(), 0);
        SupervisorOptions opt;
        opt.jobs = workers;
        opt.useCache = false;
        opt.journalPath = journal;
        opt.stopRequested = [&stop] { return stop.load(); };
        // Unsynchronized on purpose: settle calls are serialized.
        opt.onJobSettled = [&](std::size_t i, const RunOutcome &) {
            ++settles[i];
            stop.store(true);
        };
        std::vector<RunOutcome> first = Supervisor(opt).run(batch);
        ASSERT_EQ(first.size(), batch.size());

        std::size_t finished = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(settles[i], 1u);
            if (first[i].ok()) {
                ++finished;
                continue;
            }
            EXPECT_TRUE(first[i].canceled);
            EXPECT_EQ(first[i].attempts, 0u);
            EXPECT_EQ(first[i].failure.what, "canceled by drain");
        }
        // Only jobs in flight when the drain began may finish.
        EXPECT_GE(finished, 1u);
        EXPECT_LE(finished, workers);

        // Canceled outcomes are not journaled.
        std::ifstream ifs(journal);
        std::size_t lines = 0;
        for (std::string line; std::getline(ifs, line);) {
            ++lines;
            EXPECT_EQ(line.find("canceled by drain"),
                      std::string::npos);
        }
        EXPECT_EQ(lines, finished);

        opt.stopRequested = nullptr;
        opt.onJobSettled = nullptr;
        std::vector<RunOutcome> second = Supervisor(opt).run(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            SCOPED_TRACE(i);
            ASSERT_TRUE(second[i].ok());
            EXPECT_EQ(second[i].fromJournal, first[i].ok());
            if (first[i].ok())
                expectIdentical(first[i].output.result,
                                second[i].output.result);
        }
        std::remove(journal.c_str());
    }
}

TEST(Supervisor, CrashAndHangBatchCompletes)
{
    // The defining property: a batch containing a crasher and a
    // hanger still returns every good row.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.isolate = true;
    // Comfortably above the good jobs' runtime, short enough that
    // the hanger's kill keeps the test fast.
    opt.jobTimeoutMs = 1'000;
    opt.maxAttempts = 1;
    opt.useCache = false;
    FailureManifest::global().clear();
    std::vector<RunOutcome> out = Supervisor(opt).run({
        goodJob(cfg, 5),
        faultyJob<CrashingPrefetcher>(cfg, "test:crash2"),
        faultyJob<HangingPrefetcher>(cfg, "test:hang2"),
        goodJob(cfg, 6),
    });
    ASSERT_EQ(out.size(), 4u);
    EXPECT_TRUE(out[0].ok());
    EXPECT_FALSE(out[1].ok());
    EXPECT_EQ(out[2].status, RunStatus::TimedOut);
    EXPECT_TRUE(out[3].ok());
    EXPECT_EQ(FailureManifest::global().size(), 2u);
    FailureManifest::global().clear();
}

TEST(Supervisor, RetryScheduleDeterministic)
{
    SupervisorOptions opt;
    opt.backoffBaseMs = 100;
    opt.backoffCapMs = 5'000;

    // Same (key, attempt) always yields the same delay.
    EXPECT_EQ(retryDelayMs("job-a", 2, opt),
              retryDelayMs("job-a", 2, opt));
    // Different keys jitter differently (overwhelmingly likely for
    // these two fixed strings; a hash collision would be a bug in
    // itself worth noticing).
    EXPECT_NE(retryDelayMs("job-a", 2, opt),
              retryDelayMs("job-b", 2, opt));

    // Exponential growth up to the cap: attempt k backs off
    // base << (k - 2) (capped), plus jitter in [0, backoff/2].
    for (unsigned attempt = 2; attempt < 8; ++attempt) {
        std::uint64_t d = retryDelayMs("job-a", attempt, opt);
        std::uint64_t backoff =
            std::min<std::uint64_t>(opt.backoffCapMs,
                                    opt.backoffBaseMs
                                        << (attempt - 2));
        EXPECT_GE(d, backoff);
        EXPECT_LE(d, backoff + backoff / 2);
    }
    // Deep attempts stay bounded by cap + jitter; the first try
    // has no delay at all.
    EXPECT_EQ(retryDelayMs("job-a", 1, opt), 0u);
    EXPECT_LE(retryDelayMs("job-a", 60, opt),
              opt.backoffCapMs + opt.backoffCapMs / 2);
}

TEST(Supervisor, DerivedTimeoutScalesWithBudget)
{
    SimConfig small = quickConfig();
    SimConfig big = quickConfig();
    big.simInstructions = 100 * small.simInstructions;
    std::uint64_t t_small =
        derivedJobTimeoutMs(goodJob(small, 0));
    std::uint64_t t_big = derivedJobTimeoutMs(goodJob(big, 0));
    EXPECT_GE(t_small, 60'000u); // fixed floor
    EXPECT_GT(t_big, t_small);
}

TEST(Supervisor, JournalResumeBitIdentical)
{
    // Simulate a campaign killed partway: journal only a prefix of
    // the batch, then run the full batch against the same journal.
    // The resumed campaign must produce outcomes bit-identical to an
    // uninterrupted run, replaying the prefix without executing it.
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-resume.jsonl");
    std::remove(journal.c_str());

    std::vector<ExperimentJob> prefix = {goodJob(cfg, 7),
                                         goodJob(cfg, 8)};
    std::vector<ExperimentJob> full = prefix;
    full.push_back(goodJob(cfg, 9));
    full.push_back(ExperimentJob::of(cfg, "morrigan",
                                     qmmWorkloadParams(7)));

    SupervisorOptions opt;
    opt.useCache = false;
    opt.journalPath = journal;

    // "Killed" campaign: only the prefix completed.
    std::vector<RunOutcome> first = Supervisor(opt).run(prefix);
    ASSERT_TRUE(first[0].ok() && first[1].ok());
    EXPECT_FALSE(first[0].fromJournal);

    // Uninterrupted reference, no journal.
    SupervisorOptions plain;
    plain.useCache = false;
    std::vector<RunOutcome> reference = Supervisor(plain).run(full);

    // Resume.
    std::vector<RunOutcome> resumed = Supervisor(opt).run(full);
    ASSERT_EQ(resumed.size(), full.size());
    EXPECT_TRUE(resumed[0].fromJournal);
    EXPECT_TRUE(resumed[1].fromJournal);
    // Replays keep the recording campaign's execution count.
    EXPECT_EQ(resumed[0].attempts, 1u);
    EXPECT_FALSE(resumed[2].fromJournal);
    for (std::size_t i = 0; i < full.size(); ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(resumed[i].ok());
        expectIdentical(reference[i].output.result,
                        resumed[i].output.result);
    }

    // A third run replays everything.
    std::vector<RunOutcome> third = Supervisor(opt).run(full);
    for (const RunOutcome &o : third)
        EXPECT_TRUE(o.fromJournal);
    std::remove(journal.c_str());
}

TEST(Supervisor, JournalToleratesTruncatedLastLine)
{
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-torn.jsonl");
    std::remove(journal.c_str());

    SupervisorOptions opt;
    opt.useCache = false;
    opt.journalPath = journal;
    Supervisor(opt).run({goodJob(cfg, 10)});

    // Simulate a torn write: an unterminated, truncated record.
    {
        std::ofstream f(journal, std::ios::app);
        f << "{\"schema\":\"morrigan-journal\",\"key\":\"half";
    }

    // The good record still replays; the torn line is skipped.
    std::vector<RunOutcome> out =
        Supervisor(opt).run({goodJob(cfg, 10)});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[0].fromJournal);
    std::remove(journal.c_str());
}

TEST(Supervisor, JournalRecordsFailures)
{
    // Permanent failures are journaled too: resuming a campaign
    // must not re-execute a job that already failed all attempts.
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-fail.jsonl");
    std::remove(journal.c_str());

    int factory_calls = 0;
    ExperimentJob failing = ExperimentJob::with(
        cfg,
        [&factory_calls]() -> std::unique_ptr<TlbPrefetcher> {
            ++factory_calls;
            return std::make_unique<ThrowingPrefetcher>();
        },
        qmmWorkloadParams(0));
    failing.journalTag = "test:journaled-failure";

    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    opt.journalPath = journal;

    std::vector<RunOutcome> first = Supervisor(opt).run({failing});
    EXPECT_EQ(first[0].status, RunStatus::Failed);
    EXPECT_EQ(factory_calls, 1);

    std::vector<RunOutcome> second = Supervisor(opt).run({failing});
    EXPECT_EQ(second[0].status, RunStatus::Failed);
    EXPECT_TRUE(second[0].fromJournal);
    EXPECT_NE(second[0].failure.what.find(
                  "synthetic prefetcher fault"),
              std::string::npos);
    EXPECT_EQ(factory_calls, 1) << "journaled failure was re-run";
    std::remove(journal.c_str());
}

TEST(Supervisor, AnonymousJobsNeverJournal)
{
    // A factory job without a journalTag has no stable identity;
    // it must re-execute on resume rather than replay some other
    // job's record.
    const SimConfig cfg = quickConfig();
    const std::string journal =
        tempPath("morrigan-test-journal-anon.jsonl");
    std::remove(journal.c_str());

    int factory_calls = 0;
    ExperimentJob anon = ExperimentJob::with(
        cfg,
        [&factory_calls]() -> std::unique_ptr<TlbPrefetcher> {
            ++factory_calls;
            return std::make_unique<ThrowingPrefetcher>();
        },
        qmmWorkloadParams(0));

    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    opt.journalPath = journal;
    Supervisor(opt).run({anon});
    Supervisor(opt).run({anon});
    EXPECT_EQ(factory_calls, 2);
    std::remove(journal.c_str());
}

TEST(Supervisor, FailureManifestJson)
{
    FailureManifest m;
    RunFailure f;
    f.status = RunStatus::TimedOut;
    f.what = "deadline exceeded";
    f.repro = "./build/tools/morrigan-sim --workload qmm_00";
    m.add("qmm_00 x morrigan", f, 3);

    std::ostringstream os;
    m.writeJson(os);

    const std::string text = os.str();
    json::Reader reader(text);
    json::Value doc;
    ASSERT_TRUE(reader.parse(doc)) << text;
    ASSERT_EQ(doc.type, json::Value::Type::Array);
    ASSERT_EQ(doc.array.size(), 1u);
    const json::Value &e = doc.array[0];
    std::string s;
    EXPECT_TRUE(json::getString(e, "label", s));
    EXPECT_EQ(s, "qmm_00 x morrigan");
    EXPECT_TRUE(json::getString(e, "status", s));
    EXPECT_EQ(s, "timed_out");
    std::uint64_t attempts = 0;
    EXPECT_TRUE(json::getU64(e, "attempts", attempts));
    EXPECT_EQ(attempts, 3u);
}

TEST(Supervisor, OptionsFromEnv)
{
    setenv("MORRIGAN_ISOLATE", "1", 1);
    setenv("MORRIGAN_JOB_TIMEOUT", "30", 1);
    setenv("MORRIGAN_JOB_RETRIES", "4", 1);
    SupervisorOptions opt = SupervisorOptions::fromEnv();
    EXPECT_TRUE(opt.isolate);
    EXPECT_EQ(opt.jobTimeoutMs, 30'000u);
    EXPECT_EQ(opt.maxAttempts, 5u); // 1 first try + 4 retries
    unsetenv("MORRIGAN_ISOLATE");
    unsetenv("MORRIGAN_JOB_TIMEOUT");
    unsetenv("MORRIGAN_JOB_RETRIES");
    EXPECT_FALSE(SupervisorOptions::fromEnv().isolate);
}

TEST(Supervisor, RunBatchAllPairsFailed)
{
    // Every pair lost a member: each speedup is NaN and the geomean
    // over zero surviving pairs is NaN -- never a crash, never a
    // fabricated number.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor::setDefaultOptions(opt);

    std::vector<SimResult> results = runBatch({
        faultyJob<ThrowingPrefetcher>(cfg, "test:allfail-0"),
        faultyJob<ThrowingPrefetcher>(cfg, "test:allfail-1"),
        goodJob(cfg, 4),
        faultyJob<ThrowingPrefetcher>(cfg, "test:allfail-2"),
    });
    Supervisor::setDefaultOptions(SupervisorOptions::fromEnv());

    ASSERT_EQ(results.size(), 4u);
    // Pairs (base, opt): (0, 1) both failed, (2, 3) opt failed.
    std::vector<SimResult> base = {results[0], results[2]};
    std::vector<SimResult> opt_r = {results[1], results[3]};
    EXPECT_TRUE(std::isnan(speedupPct(base[0], opt_r[0])));
    EXPECT_TRUE(std::isnan(speedupPct(base[1], opt_r[1])));
    EXPECT_TRUE(std::isnan(geomeanSpeedupPct(base, opt_r)));
}

TEST(Supervisor, RunBatchSingleSurvivingPair)
{
    // With exactly one surviving pair the geomean degrades to that
    // pair's speedup: failed pairs are skipped, not zero-filled.
    const SimConfig cfg = quickConfig();
    SupervisorOptions opt;
    opt.maxAttempts = 1;
    opt.useCache = false;
    Supervisor::setDefaultOptions(opt);

    std::vector<SimResult> results = runBatch({
        goodJob(cfg, 5),
        ExperimentJob::of(cfg, "sp", qmmWorkloadParams(5)),
        faultyJob<ThrowingPrefetcher>(cfg, "test:lonely-base"),
        faultyJob<ThrowingPrefetcher>(cfg, "test:lonely-opt"),
    });
    Supervisor::setDefaultOptions(SupervisorOptions::fromEnv());

    ASSERT_EQ(results.size(), 4u);
    std::vector<SimResult> base = {results[0], results[2]};
    std::vector<SimResult> opt_r = {results[1], results[3]};
    const double lone = speedupPct(results[0], results[1]);
    EXPECT_FALSE(std::isnan(lone));
    EXPECT_NEAR(geomeanSpeedupPct(base, opt_r), lone, 1e-12);
}

namespace
{

/** Pelts @p target with SIGUSR1 every ~1ms until told to stop. */
struct SignalStorm
{
    explicit SignalStorm(pthread_t target)
        : target_(target), pelter_([this] {
              while (!stop_.load(std::memory_order_relaxed)) {
                  pthread_kill(target_, SIGUSR1);
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(1));
              }
          })
    {
    }
    ~SignalStorm()
    {
        stop_.store(true);
        pelter_.join();
    }
    pthread_t target_;
    std::atomic<bool> stop_{false};
    std::thread pelter_;
};

} // namespace

TEST(Supervisor, EintrStormYieldsBitIdenticalOutcomes)
{
    // A sandboxed campaign's pipe/waitpid/poll protocol must be
    // EINTR-clean: pelt the scheduling thread with harmless signals
    // (handler installed WITHOUT SA_RESTART, so every blocking call
    // really does take the EINTR path) and require outcomes
    // bit-identical to an undisturbed run -- journal records
    // included.
    struct sigaction sa, old_sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0; // deliberately no SA_RESTART
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

    const SimConfig cfg = quickConfig();
    std::vector<ExperimentJob> jobs = {
        goodJob(cfg, 11),
        ExperimentJob::of(cfg, "morrigan", qmmWorkloadParams(12)),
    };

    SupervisorOptions plain;
    plain.isolate = true;
    plain.useCache = false;
    std::vector<RunOutcome> reference = Supervisor(plain).run(jobs);
    ASSERT_TRUE(reference[0].ok() && reference[1].ok());

    const std::string journal =
        tempPath("morrigan-test-journal-eintr.jsonl");
    std::remove(journal.c_str());
    SupervisorOptions opt = plain;
    opt.journalPath = journal;

    std::vector<RunOutcome> stormed;
    {
        SignalStorm storm(pthread_self());
        stormed = Supervisor(opt).run(jobs);
    }
    ::sigaction(SIGUSR1, &old_sa, nullptr);

    ASSERT_EQ(stormed.size(), reference.size());
    for (std::size_t i = 0; i < stormed.size(); ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(stormed[i].ok());
        expectIdentical(reference[i].output.result,
                        stormed[i].output.result);
    }

    // The journal written under the storm is intact: a resume
    // replays every record rather than rerunning.
    std::vector<RunOutcome> resumed = Supervisor(opt).run(jobs);
    for (const RunOutcome &o : resumed)
        EXPECT_TRUE(o.fromJournal);
    std::remove(journal.c_str());
}
