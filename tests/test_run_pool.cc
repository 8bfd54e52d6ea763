/**
 * @file
 * Run-pool regression tests for the Supervisor's thread mode (the
 * worker pool every batch runs through): the determinism guarantee
 * (results are bit-identical across worker counts and to direct
 * serial execution), submission-order preservation, factory jobs,
 * SMT jobs, miss-stream jobs, and the hardened MORRIGAN_JOBS
 * parsing of sim/run_pool.hh.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/morrigan.hh"
#include "sim/experiment.hh"
#include "sim/run_pool.hh"
#include "sim/supervisor.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmupInstructions = 100'000;
    cfg.simInstructions = 300'000;
    return cfg;
}

/** Every field of SimResult, compared exactly (doubles included:
 * determinism means bit-identical, not merely close). */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.prefetcher, b.prefetcher);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1iMpki, b.l1iMpki);
    EXPECT_EQ(a.itlbMpki, b.itlbMpki);
    EXPECT_EQ(a.istlbMpki, b.istlbMpki);
    EXPECT_EQ(a.dstlbMpki, b.dstlbMpki);
    EXPECT_EQ(a.istlbMisses, b.istlbMisses);
    EXPECT_EQ(a.dstlbMisses, b.dstlbMisses);
    EXPECT_EQ(a.pbHits, b.pbHits);
    EXPECT_EQ(a.pbHitsIrip, b.pbHitsIrip);
    EXPECT_EQ(a.pbHitsSdp, b.pbHitsSdp);
    EXPECT_EQ(a.pbHitsICache, b.pbHitsICache);
    EXPECT_EQ(a.istlbCycleFraction, b.istlbCycleFraction);
    EXPECT_EQ(a.icacheCycleFraction, b.icacheCycleFraction);
    EXPECT_EQ(a.dataCycleFraction, b.dataCycleFraction);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.demandWalks, b.demandWalks);
    EXPECT_EQ(a.demandWalksInstr, b.demandWalksInstr);
    EXPECT_EQ(a.demandWalkRefs, b.demandWalkRefs);
    EXPECT_EQ(a.demandWalkRefsInstr, b.demandWalkRefsInstr);
    EXPECT_EQ(a.prefetchWalks, b.prefetchWalks);
    EXPECT_EQ(a.prefetchWalkRefs, b.prefetchWalkRefs);
    EXPECT_EQ(a.prefetchWalkRefsByLevel, b.prefetchWalkRefsByLevel);
    EXPECT_EQ(a.meanDemandWalkLatencyInstr,
              b.meanDemandWalkLatencyInstr);
    EXPECT_EQ(a.meanDemandWalkLatencyData,
              b.meanDemandWalkLatencyData);
    EXPECT_EQ(a.icachePrefetches, b.icachePrefetches);
    EXPECT_EQ(a.icacheCrossPagePrefetches,
              b.icacheCrossPagePrefetches);
    EXPECT_EQ(a.icacheCrossPageNeedingWalk,
              b.icacheCrossPageNeedingWalk);
    EXPECT_EQ(a.icacheCrossPagePbHits, b.icacheCrossPagePbHits);
    EXPECT_EQ(a.pbHitDistance, b.pbHitDistance);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.correctingWalks, b.correctingWalks);
}

/** Run @p batch on @p workers thread-mode workers with the result
 * cache off, so every job truly executes. */
std::vector<ExperimentOutput>
runPooled(const std::vector<ExperimentJob> &batch, unsigned workers)
{
    SupervisorOptions opt;
    opt.jobs = workers;
    opt.useCache = false;
    std::vector<ExperimentOutput> outputs;
    for (RunOutcome &o : Supervisor(opt).run(batch)) {
        EXPECT_TRUE(o.ok()) << o.failure.what;
        outputs.push_back(std::move(o.output));
    }
    return outputs;
}

} // namespace

TEST(RunPool, DeterministicAcrossWorkerCounts)
{
    // A small workload x prefetcher matrix; every result must be
    // bit-identical to the direct serial runWorkload() path at both
    // jobs=1 and jobs=4. Caching is off so every run truly executes.
    const SimConfig cfg = quickConfig();
    const std::string kinds[] = {"none",
                                    "morrigan"};
    std::vector<ExperimentJob> jobs;
    std::vector<SimResult> serial;
    for (unsigned i : {0u, 7u, 19u}) {
        for (const std::string &kind : kinds) {
            jobs.push_back(
                ExperimentJob::of(cfg, kind, qmmWorkloadParams(i)));
            serial.push_back(
                runWorkload(cfg, kind, qmmWorkloadParams(i)));
        }
    }

    std::vector<ExperimentOutput> r1 = runPooled(jobs, 1);
    std::vector<ExperimentOutput> r4 = runPooled(jobs, 4);

    ASSERT_EQ(r1.size(), jobs.size());
    ASSERT_EQ(r4.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(serial[i].workload + "/" +
                     serial[i].prefetcher);
        expectIdentical(serial[i], r1[i].result);
        expectIdentical(serial[i], r4[i].result);
    }
}

TEST(RunPool, PreservesSubmissionOrder)
{
    SimConfig cfg = quickConfig();
    cfg.simInstructions = 150'000;
    std::vector<ExperimentJob> jobs;
    for (unsigned i : {4u, 1u, 9u, 2u})
        jobs.push_back(ExperimentJob::of(cfg, "none",
                                         qmmWorkloadParams(i)));
    std::vector<ExperimentOutput> results = runPooled(jobs, 4);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].result.workload, "qmm_04");
    EXPECT_EQ(results[1].result.workload, "qmm_01");
    EXPECT_EQ(results[2].result.workload, "qmm_09");
    EXPECT_EQ(results[3].result.workload, "qmm_02");
}

TEST(RunPool, FactoryJobsMatchSerialRunWith)
{
    const SimConfig cfg = quickConfig();
    const ServerWorkloadParams wl = qmmWorkloadParams(3);

    MorriganPrefetcher serial_pref{MorriganParams{}};
    SimResult serial = runWorkloadWith(cfg, &serial_pref, wl);

    std::vector<ExperimentOutput> results = runPooled(
        {ExperimentJob::with(cfg,
                             [] {
                                 return std::make_unique<
                                     MorriganPrefetcher>(
                                     MorriganParams{});
                             },
                             wl)},
        2);
    ASSERT_EQ(results.size(), 1u);
    expectIdentical(serial, results[0].result);
}

TEST(RunPool, SmtJobsMatchSerialRunSmtPair)
{
    const SimConfig cfg = quickConfig();
    const ServerWorkloadParams a = qmmWorkloadParams(0);
    const ServerWorkloadParams b = qmmWorkloadParams(5);
    SimResult serial = runSmtPair(cfg, nullptr, a, b);

    std::vector<ExperimentOutput> results =
        runPooled({ExperimentJob::smtPair(cfg, "none", a, b)}, 2);
    ASSERT_EQ(results.size(), 1u);
    expectIdentical(serial, results[0].result);
}

TEST(RunPool, MissStreamBatchMatchesSerial)
{
    SimConfig cfg = quickConfig();
    cfg.collectMissStream = true;

    ServerWorkload trace(qmmWorkloadParams(2));
    Simulator sim(cfg);
    sim.attachWorkload(&trace, 0);
    sim.run();
    const MissStreamStats &serial = sim.missStream();

    std::vector<ExperimentOutput> outputs = runPooled(
        {ExperimentJob::of(cfg, "none", qmmWorkloadParams(2))}, 2);
    ASSERT_EQ(outputs.size(), 1u);
    const MissStreamStats &pooled = outputs[0].missStream;
    EXPECT_EQ(serial.totalMisses(), pooled.totalMisses());
    EXPECT_EQ(serial.distinctPages(), pooled.distinctPages());
    EXPECT_EQ(serial.pagesCoveringFraction(0.9),
              pooled.pagesCoveringFraction(0.9));
    EXPECT_EQ(serial.deltaCdfAt(10), pooled.deltaCdfAt(10));
}

TEST(RunPoolJobs, EnvOverridesHardware)
{
    setenv("MORRIGAN_JOBS", "3", 1);
    setDefaultJobs(0);
    EXPECT_EQ(defaultJobs(), 3u);
    unsetenv("MORRIGAN_JOBS");
}

TEST(RunPoolJobs, ExplicitOverrideWinsOverEnv)
{
    setenv("MORRIGAN_JOBS", "3", 1);
    setDefaultJobs(7);
    EXPECT_EQ(defaultJobs(), 7u);
    SupervisorOptions opt;
    EXPECT_EQ(Supervisor(opt).jobs(), 7u);
    opt.jobs = 2;
    EXPECT_EQ(Supervisor(opt).jobs(), 2u);
    setDefaultJobs(0);
    unsetenv("MORRIGAN_JOBS");
}

TEST(RunPoolJobsDeathTest, JunkIsFatal)
{
    EXPECT_EXIT(parseJobsValue("--jobs", "abc"),
                ::testing::ExitedWithCode(1),
                "not a positive integer");
    EXPECT_EXIT(parseJobsValue("--jobs", ""),
                ::testing::ExitedWithCode(1),
                "not a positive integer");
    EXPECT_EXIT(parseJobsValue("--jobs", "-4"),
                ::testing::ExitedWithCode(1),
                "not a positive integer");
    EXPECT_EXIT(parseJobsValue("--jobs", "4x"),
                ::testing::ExitedWithCode(1), "trailing junk");
    EXPECT_EXIT(parseJobsValue("MORRIGAN_JOBS", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(parseJobsValue("MORRIGAN_JOBS", "4096"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(RunPoolJobsDeathTest, JunkEnvIsFatalAtResolution)
{
    setenv("MORRIGAN_JOBS", "lots", 1);
    setDefaultJobs(0);
    EXPECT_EXIT(defaultJobs(), ::testing::ExitedWithCode(1),
                "MORRIGAN_JOBS");
    unsetenv("MORRIGAN_JOBS");
}
