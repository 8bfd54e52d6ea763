#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include "attribution.hh"
#include "check/fuzz.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "workload/workload_factory.hh"

namespace perfbench
{

using namespace morrigan;

namespace
{

/** The paper's geomean Morrigan speedup over its QMM suite (%). */
constexpr double paperMorriganSpeedupPct = 7.6;

/** Table 1 system with the default 1M warmup + 4M measured
 * instructions; the smoke test shortens the runs. */
SimConfig
benchConfig(const Args &args)
{
    SimConfig cfg;
    if (args.quick) {
        cfg.warmupInstructions = 100'000;
        cfg.simInstructions = 400'000;
    }
    return cfg;
}

/**
 * One index from each of @p k equal strata of [0, n), picked by the
 * seed. Simulation speed differs up to 1.9x between QMM workloads
 * and falls with the index, so stratifying keeps every seed's mix
 * comparable while the seed still chooses the workloads.
 */
std::vector<unsigned>
stratified(unsigned n, unsigned k, std::uint64_t seed)
{
    std::vector<unsigned> out;
    for (unsigned i = 0; i < k; ++i) {
        unsigned lo = i * n / k, hi = (i + 1) * n / k;
        out.push_back(lo + static_cast<unsigned>(
                               mixSeed(seed * 64 + i) % (hi - lo)));
    }
    return out;
}

/** Arm or disarm the simulator's telemetry and the benchmark's own
 * spans. */
void
setTracing(bool on)
{
    telemetry::setEnabled(on);
    spans().setEnabled(on);
}

/**
 * trace.overhead from paired rounds: @p round(traced) does one round
 * of the workload's work and returns its wall seconds. Untraced and
 * traced rounds alternate until @p seconds have elapsed and at least
 * @p min_pairs pairs ran, so host speed drift over the run cancels
 * out of each pair.
 * Returns 1 - the median of the paired untraced/traced time ratios,
 * that is 1 - traced/untraced throughput. Tracing stays armed.
 */
template <typename Round>
double
pairedTraceOverhead(double seconds, std::size_t min_pairs, Round &&round)
{
    std::vector<double> ratios;
    Clock::time_point t0 = Clock::now();
    do {
        setTracing(false);
        double plain = round(false);
        setTracing(true);
        ratios.push_back(plain / round(true));
    } while (ratios.size() < min_pairs || secondsSince(t0) < seconds);
    return 1.0 - median(ratios);
}

/** Settle an untimed warm-up simulation of @p job. */
void
warmUp(const ExperimentJob &job, const std::string &key, Ledger &ledger)
{
    Scope span("warmup");
    Assembly a;
    assemble(job, a);
    ledger.settle(key, a.sim->run());
}

/**
 * Set-up time samples for setup_s. One set-up takes well under a
 * millisecond to a few milliseconds, so one page-fault burst would
 * move a sum or a small sample, and host speed swings lasting seconds
 * would move samples all taken at one moment. So set-ups are sampled
 * in bursts spread over the timed part, one before every simulation
 * or round and one after the last, and the median is reported.
 */
class SetupSampler
{
  public:
    explicit SetupSampler(const std::vector<ExperimentJob> &jobs)
        : jobs_(jobs)
    {
    }

    /** Assemble and tear down each job configuration once, timing
     * each set-up. */
    void burst()
    {
        for (const ExperimentJob &j : jobs_) {
            Assembly a;
            samples_.push_back(assemble(j, a));
        }
    }

    double medianS() const { return median(samples_); }

  private:
    const std::vector<ExperimentJob> &jobs_;
    std::vector<double> samples_;
};

// ---------------------------------------------------------------
// server / data: back-to-back simulations on the calling thread
// ---------------------------------------------------------------

/** Assemble and run @p job once; returns the seconds run() took. */
double
simulateOnce(const ExperimentJob &job, Ledger &ledger)
{
    Assembly a;
    assemble(job, a);
    Scope span("sim.run");
    Clock::time_point t = Clock::now();
    SimResult r = a.sim->run();
    double run_s = secondsSince(t);
    ledger.settle(jobKey(job), r);
    return run_s;
}

/** Simulate @p jobs round-robin until @p seconds have elapsed and
 * every job ran at least once, with a set-up burst before each;
 * returns each job's run() seconds. */
std::vector<std::vector<double>>
simulateRounds(const std::vector<ExperimentJob> &jobs, double seconds,
               Ledger &ledger, SetupSampler &setups)
{
    std::vector<std::vector<double>> run_s(jobs.size());
    Clock::time_point t0 = Clock::now();
    for (std::size_t n = 0; n < jobs.size() || secondsSince(t0) < seconds;
         ++n) {
        std::size_t i = n % jobs.size();
        setups.burst();
        run_s[i].push_back(simulateOnce(jobs[i], ledger));
    }
    setups.burst();
    return run_s;
}

void
runSingle(const Args &args, const std::vector<ExperimentJob> &jobs,
          Ledger &ledger, Report &rep)
{
    warmUp(jobs[0], jobKey(jobs[0]), ledger);
    if (!args.trace) {
        SetupSampler setups(jobs);
        std::vector<std::vector<double>> run_s =
            simulateRounds(jobs, args.seconds, ledger, setups);
        double setup_s = setups.medianS();
        // Simulated instructions per second of run(), from each job's
        // mean run time, so every job weighs the same however many
        // times it ran. Host speed swings in bursts of seconds; a mean
        // over the whole timed part averages them out, where a median
        // of a job's two or three runs picks one burst.
        double instrs = 0.0, secs = 0.0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            instrs += static_cast<double>(jobInstructions(jobs[i]));
            secs += mean(run_s[i]);
        }
        double n_jobs = static_cast<double>(jobs.size());
        rep.add("minstr_per_s", instrs / secs / 1e6);
        rep.add("jobs_per_s", n_jobs / (n_jobs * setup_s + secs));
        rep.add("setup_s", setup_s);
        rep.add("peak_rss_mb", peakRssMb());
        return;
    }
    // Each pair simulates one job untraced, then traced; every job
    // runs, so the digest is the untraced run's.
    std::size_t n = 0;
    auto pair_half = [&](bool traced) {
        double s = simulateOnce(jobs[n % jobs.size()], ledger);
        n += traced;
        return s;
    };
    rep.add("trace.overhead",
            pairedTraceOverhead(args.seconds, jobs.size(), pair_half));
    attribute(jobs[0], args.workDir, ledger, rep);
}

// ---------------------------------------------------------------
// campaign: runBatchOutcomes, cold pass then resume pass
// ---------------------------------------------------------------

struct CampaignRound
{
    double coldS = 0.0;
    double resumeS = 0.0;
    std::vector<double> jobS;     //!< cold-pass job durations
    std::vector<SimResult> cold;  //!< cold-pass results, job order
    telemetry::Report tel;
};

/** One cold + resume pass in a fresh directory @p dir: the journal
 * and the disk result-cache tier live there, and the in-memory cache
 * is cleared before each pass. */
CampaignRound
campaignRound(const std::vector<ExperimentJob> &jobs, unsigned workers,
              const std::string &dir, Ledger &ledger)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SupervisorOptions opt;
    opt.jobs = workers;
    opt.journalPath = dir + "/journal.jsonl";
    Supervisor::setDefaultOptions(opt);
    ResultCache &cache = ResultCache::global();
    cache.setDiskDir(dir);
    cache.clear();
    telemetry::reset();

    CampaignRound r;
    std::vector<RunOutcome> out;
    {
        Scope span("campaign.cold");
        Clock::time_point t0 = Clock::now();
        out = runBatchOutcomes(jobs);
        r.coldS = secondsSince(t0);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const RunOutcome &o = out[i];
        if (!o.ok() || o.fromCache || o.fromJournal) {
            ledger.fail("cold pass not simulated: " + jobLabel(jobs[i]));
            continue;
        }
        ledger.settle(jobKey(jobs[i]), o.output.result);
        r.jobS.push_back(static_cast<double>(o.durationMs) * 1e-3);
        r.cold.push_back(o.output.result);
    }

    cache.clear();
    {
        Scope span("campaign.resume");
        Clock::time_point t0 = Clock::now();
        out = runBatchOutcomes(jobs);
        r.resumeS = secondsSince(t0);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const RunOutcome &o = out[i];
        if (!o.ok() || !(o.fromCache || o.fromJournal))
            ledger.fail("resume pass not answered from the store: " +
                        jobLabel(jobs[i]));
        else
            ledger.settle(jobKey(jobs[i]), o.output.result);
    }
    r.tel = telemetry::snapshot();
    std::filesystem::remove_all(dir);
    return r;
}

/** Rounds until @p seconds have elapsed (at least one), with a
 * set-up burst before each. */
std::vector<CampaignRound>
campaignRounds(const std::vector<ExperimentJob> &jobs, unsigned workers,
               const Args &args, double seconds, Ledger &ledger,
               SetupSampler &setups)
{
    std::vector<CampaignRound> rounds;
    Clock::time_point t0 = Clock::now();
    do {
        setups.burst();
        rounds.push_back(campaignRound(jobs, workers,
                                       args.workDir + "/campaign", ledger));
    } while (secondsSince(t0) < seconds);
    setups.burst();
    return rounds;
}

/** Per-call mean of a telemetry phase in ms. */
double
phaseMeanMs(const telemetry::Report &t, telemetry::Phase p)
{
    const telemetry::PhaseStat &s = t.phase(p);
    return s.count ? static_cast<double>(s.totalNs) * 1e-6 /
                         static_cast<double>(s.count)
                   : 0.0;
}

/** Pool metrics over the job durations of the given passes. */
void
addPoolMetrics(const std::vector<double> &job_s,
               const std::vector<double> &busy, Report &rep)
{
    rep.add("sim.pool.job_s_p50", quantile(job_s, 0.5));
    rep.add("sim.pool.job_s_p90", quantile(job_s, 0.9));
    rep.add("sim.pool.job_samples", static_cast<double>(job_s.size()));
    rep.add("sim.pool.busy_share", median(busy));
}

} // anonymous namespace

void
runServer(const Args &args, Ledger &ledger, Report &rep)
{
    SimConfig cfg = benchConfig(args);
    std::vector<ExperimentJob> jobs;
    for (unsigned idx :
         stratified(numQmmWorkloads, args.quick ? 2 : 15, args.seed))
        jobs.push_back(ExperimentJob::of(
            cfg, "morrigan", qmmWorkloadParams(idx)));
    runSingle(args, jobs, ledger, rep);
}

void
runData(const Args &args, Ledger &ledger, Report &rep)
{
    // Every SPEC-like workload (there are only ten, and their speeds
    // differ up to 1.7x), in a seed-rotated order.
    SimConfig cfg = benchConfig(args);
    std::vector<ExperimentJob> jobs;
    for (unsigned idx : stratified(numSpecWorkloads,
                                   args.quick ? 2 : numSpecWorkloads,
                                   args.seed))
        jobs.push_back(
            ExperimentJob::of(cfg, "morrigan", specWorkloadParams(idx)));
    std::rotate(jobs.begin(),
                jobs.begin() + static_cast<long>(args.seed % jobs.size()),
                jobs.end());
    runSingle(args, jobs, ledger, rep);
}

void
runCampaign(const Args &args, Ledger &ledger, Report &rep)
{
    SimConfig cfg = benchConfig(args);
    std::vector<ExperimentJob> jobs;
    for (unsigned idx :
         stratified(numQmmWorkloads, args.quick ? 2 : 10, args.seed)) {
        ServerWorkloadParams p = qmmWorkloadParams(idx);
        jobs.push_back(ExperimentJob::of(cfg, "none", p));
        jobs.push_back(ExperimentJob::of(cfg, "morrigan", p));
    }
    const unsigned workers = workerCount();

    warmUp(jobs[1], jobKey(jobs[1]), ledger);

    auto fidelity = [&](const CampaignRound &r) {
        std::vector<SimResult> base, opt;
        for (std::size_t i = 0; i + 1 < r.cold.size(); i += 2) {
            base.push_back(r.cold[i]);
            opt.push_back(r.cold[i + 1]);
        }
        double got = geomeanSpeedupPct(base, opt);
        rep.notes.push_back(csprintf(
            "fidelity: campaign geomean Morrigan speedup %.2f%% over %zu "
            "QMM workloads; paper %.1f%%; gap %+.2f points",
            got, base.size(), paperMorriganSpeedupPct,
            got - paperMorriganSpeedupPct));
    };

    if (!args.trace) {
        SetupSampler setups(jobs);
        std::vector<CampaignRound> rounds = campaignRounds(
            jobs, workers, args, args.seconds, ledger, setups);
        fidelity(rounds.front());
        // Rates over the whole timed part: every cold pass of the run.
        double instrs = 0.0, cold_s = 0.0;
        for (const ExperimentJob &j : jobs)
            instrs += static_cast<double>(jobInstructions(j));
        for (const CampaignRound &r : rounds)
            cold_s += r.coldS;
        double n_rounds = static_cast<double>(rounds.size());
        rep.add("minstr_per_s", n_rounds * instrs / cold_s / 1e6);
        rep.add("jobs_per_s",
                n_rounds * static_cast<double>(jobs.size()) / cold_s);
        rep.add("setup_s", setups.medianS());
        rep.add("peak_rss_mb", peakRssMb());
        return;
    }

    std::vector<CampaignRound> rounds;
    rep.add("trace.overhead",
            pairedTraceOverhead(args.seconds, 1, [&](bool traced) {
                CampaignRound r = campaignRound(
                    jobs, workers, args.workDir + "/campaign", ledger);
                if (traced)
                    rounds.push_back(r);
                return r.coldS;
            }));
    fidelity(rounds.front());

    std::vector<double> job_s, busy, answer_ms;
    for (const CampaignRound &r : rounds) {
        double sum = 0.0;
        for (double s : r.jobS)
            sum += s;
        job_s.insert(job_s.end(), r.jobS.begin(), r.jobS.end());
        busy.push_back(sum / (workers * r.coldS));
        answer_ms.push_back(r.resumeS * 1e3 /
                            static_cast<double>(jobs.size()));
    }
    addPoolMetrics(job_s, busy, rep);
    const telemetry::Report &tel = rounds.front().tel;
    rep.add("sim.store.answer_ms", median(answer_ms));
    rep.add("sim.cache.lookup_ms",
            phaseMeanMs(tel, telemetry::Phase::CacheLookup));
    rep.add("sim.cache.insert_ms",
            phaseMeanMs(tel, telemetry::Phase::CacheInsert));
    rep.add("sim.journal.append_ms",
            phaseMeanMs(tel, telemetry::Phase::JournalAppend));
    rep.add("sim.cache.hits",
            static_cast<double>(
                tel.counter(telemetry::Counter::ResultCacheHits)));
    rep.add("sim.cache.misses",
            static_cast<double>(
                tel.counter(telemetry::Counter::ResultCacheMisses)));
    attribute(jobs[1], args.workDir, ledger, rep);
}

void
runFuzz(const Args &args, Ledger &ledger, Report &rep)
{
    // The fuzz seed range is fixed (the 25-seed campaign CI runs):
    // per-seed cost is heavy-tailed (one sampled configuration in
    // ~60 costs 5x the median), so a seed-chosen range of a size that
    // fits in one run would spread jobs_per_s by 12-24%.
    check::FuzzOptions opt;
    opt.seeds = args.quick ? 3 : 25;
    opt.seedBase = 1;
    opt.jobs = workerCount();
    if (args.quick) {
        opt.instructions = 80'000;
        opt.warmupInstructions = 20'000;
    }

    // Every settled family member, by batch index.
    std::mutex mu;
    std::vector<RunOutcome> settled;
    SupervisorOptions sup;
    sup.jobs = opt.jobs;
    sup.onJobSettled = [&](std::size_t i, const RunOutcome &o) {
        std::lock_guard<std::mutex> lock(mu);
        if (settled.size() <= i)
            settled.resize(i + 1);
        settled[i] = o;
    };
    Supervisor::setDefaultOptions(sup);
    ResultCache::global().setDiskDir("");

    std::vector<check::FuzzCase> cases;
    for (std::uint64_t s = 0; s < opt.seeds; ++s)
        cases.push_back(check::sampleCase(opt.seedBase + s, opt));
    auto base_job = [](const check::FuzzCase &fc) {
        if (!fc.customMorrigan)
            return fc.smt ? ExperimentJob::smtPair(fc.cfg, fc.kind,
                                                   fc.workload,
                                                   fc.smtWorkload)
                          : ExperimentJob::of(fc.cfg, fc.kind, fc.workload);
        auto factory = [p = fc.morrigan]() -> std::unique_ptr<TlbPrefetcher> {
            return std::make_unique<MorriganPrefetcher>(p);
        };
        return fc.smt ? ExperimentJob::smtPairWith(fc.cfg, factory,
                                                   fc.workload,
                                                   fc.smtWorkload)
                      : ExperimentJob::with(fc.cfg, factory, fc.workload);
    };

    warmUp(base_job(cases[0]), "fuzz/warmup", ledger);

    struct FuzzRound
    {
        double wallS = 0.0;
        double instrs = 0.0;
        std::vector<double> jobS;
        std::uint64_t mismatches = 0;
    };
    auto round = [&]() {
        settled.clear();
        FuzzRound r;
        check::FuzzCampaignOutcome out;
        {
            Scope span("fuzz.campaign");
            Clock::time_point t0 = Clock::now();
            out = check::runCampaign(opt);
            r.wallS = secondsSince(t0);
        }
        for (std::size_t i = 0; i < settled.size(); ++i) {
            const RunOutcome &o = settled[i];
            if (!o.ok()) {
                ledger.fail(csprintf("fuzz job %zu: %s", i,
                                     o.failure.what.c_str()));
                continue;
            }
            const SimResult &res = o.output.result;
            ledger.settle(csprintf("fuzz/%zu", i), res);
            r.instrs += static_cast<double>(opt.warmupInstructions +
                                            res.instructions);
            r.jobS.push_back(static_cast<double>(o.durationMs) * 1e-3);
            r.mismatches += res.checkMismatches;
        }
        for (const check::FuzzSeedOutcome &so : out.seeds) {
            if (so.passed)
                ledger.pass();
            else
                ledger.fail(csprintf(
                    "fuzz seed %llu: %s",
                    static_cast<unsigned long long>(so.seed),
                    so.failures.empty() ? "failed"
                                        : so.failures.front().c_str()));
        }
        if (out.structuralViolations)
            ledger.fail("structural invariant violations");
        return r;
    };

    if (!args.trace) {
        std::vector<ExperimentJob> base_jobs;
        for (const check::FuzzCase &fc : cases)
            base_jobs.push_back(base_job(fc));
        SetupSampler setups(base_jobs);
        // Rates over the whole timed part: every round of the run.
        double instrs = 0.0, n_jobs = 0.0, wall_s = 0.0;
        Clock::time_point t0 = Clock::now();
        do {
            setups.burst();
            FuzzRound r = round();
            instrs += r.instrs;
            n_jobs += static_cast<double>(r.jobS.size());
            wall_s += r.wallS;
        } while (secondsSince(t0) < args.seconds);
        setups.burst();
        rep.add("minstr_per_s", instrs / wall_s / 1e6);
        rep.add("jobs_per_s", n_jobs / wall_s);
        rep.add("setup_s", setups.medianS());
        rep.add("peak_rss_mb", peakRssMb());
        return;
    }

    std::vector<FuzzRound> rs;
    rep.add("trace.overhead",
            pairedTraceOverhead(args.seconds, 1, [&](bool traced) {
                FuzzRound r = round();
                if (traced)
                    rs.push_back(r);
                return r.wallS;
            }));
    std::vector<double> job_s, busy;
    for (const FuzzRound &r : rs) {
        double sum = 0.0;
        for (double s : r.jobS)
            sum += s;
        job_s.insert(job_s.end(), r.jobS.begin(), r.jobS.end());
        busy.push_back(sum / (opt.jobs * r.wallS));
    }
    addPoolMetrics(job_s, busy, rep);
    rep.add("check.mismatches", static_cast<double>(rs.front().mismatches));

    // Single-thread and unchecked (snapshots refuse checked runs).
    auto plain_job = [&](const check::FuzzCase &fc) {
        ExperimentJob j = base_job(fc);
        j.smt = false;
        j.cfg.checkLevel = 0;
        j.cfg.injectWalkerBugPeriod = 0;
        return j;
    };

    // Checking overhead: paired unchecked / checked executions of the
    // first sampled case.
    ExperimentJob first = plain_job(cases[0]);
    ExperimentJob checked = first;
    checked.cfg.checkLevel = std::max(1, opt.checkLevel);
    std::vector<double> overhead;
    for (int pair = 0; pair < 3; ++pair) {
        Scope span("check.pair");
        Clock::time_point t0 = Clock::now();
        ledger.settle(jobKey(first), executeJob(first).result, false);
        double plain = secondsSince(t0);
        t0 = Clock::now();
        ledger.settle("fuzz/checked", executeJob(checked).result, false);
        overhead.push_back(secondsSince(t0) / plain - 1.0);
    }
    rep.add("check.overhead", median(overhead));

    // The attributed representative: the first sampled case with an
    // I-cache prefetcher, so the icache layer is measured here.
    auto with_icache = std::find_if(
        cases.begin(), cases.end(), [](const check::FuzzCase &fc) {
            return fc.cfg.icachePref != ICachePrefKind::None;
        });
    if (with_icache == cases.end())
        throw std::runtime_error("no fuzz case samples an I-cache prefetcher");
    attribute(plain_job(*with_icache), args.workDir, ledger, rep);
}

} // namespace perfbench
