/**
 * @file
 * ResultCache tests: key construction, hit/miss accounting, the
 * "baselines simulated at most once per process" guarantee through
 * the Supervisor, JSON round-trips, and on-disk cache behaviour (including
 * corrupt and stale files, which must be ignored, never fatal).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/morrigan.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
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
    cfg.warmupInstructions = 50'000;
    cfg.simInstructions = 150'000;
    return cfg;
}

/** A SimResult with every field set to a distinctive value. */
SimResult
sampleResult()
{
    SimResult r;
    r.workload = "qmm_07";
    r.prefetcher = "morrigan";
    r.instructions = 10'000'000;
    r.cycles = 12'345'678.25;
    r.ipc = 0.810000000000000053; // not representable exactly
    r.l1iMpki = 12.5;
    r.itlbMpki = 3.0 / 7.0;
    r.istlbMpki = 1.0 / 3.0;
    r.dstlbMpki = 2.25;
    r.istlbMisses = 4242;
    r.dstlbMisses = 9999;
    r.pbHits = 1200;
    r.pbHitsIrip = 700;
    r.pbHitsSdp = 400;
    r.pbHitsICache = 100;
    r.istlbCycleFraction = 0.0625;
    r.icacheCycleFraction = 0.125;
    r.dataCycleFraction = 0.5;
    r.coverage = 0.43;
    r.demandWalks = 11;
    r.demandWalksInstr = 7;
    r.demandWalkRefs = 44;
    r.demandWalkRefsInstr = 28;
    r.prefetchWalks = 5;
    r.prefetchWalkRefs = 20;
    r.prefetchWalkRefsByLevel = {1, 2, 3, 4};
    r.meanDemandWalkLatencyInstr = 137.5;
    r.meanDemandWalkLatencyData = 1.0 / 7.0;
    r.icachePrefetches = 3141;
    r.icacheCrossPagePrefetches = 59;
    r.icacheCrossPageNeedingWalk = 26;
    r.icacheCrossPagePbHits = 5;
    r.pbHitDistance = {8, 7, 6, 5, 4, 3, 2, 1};
    r.contextSwitches = 3;
    r.correctingWalks = 17;
    return r;
}

/** Results of @p batch run on @p workers threads through the
 * process-wide result cache. */
std::vector<SimResult>
runCached(const std::vector<ExperimentJob> &batch, unsigned workers)
{
    SupervisorOptions opt;
    opt.jobs = workers;
    opt.useCache = true;
    std::vector<SimResult> results;
    for (RunOutcome &o : Supervisor(opt).run(batch)) {
        EXPECT_TRUE(o.ok()) << o.failure.what;
        results.push_back(std::move(o.output.result));
    }
    return results;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
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

} // namespace

TEST(ExperimentKey, DistinguishesEveryInput)
{
    const SimConfig cfg = quickConfig();
    const ServerWorkloadParams wl = qmmWorkloadParams(0);
    const std::string base =
        experimentKey(cfg, "none", wl);

    // Same inputs -> same key.
    EXPECT_EQ(base, experimentKey(cfg, "none", wl));

    // Different prefetcher kind.
    EXPECT_NE(base, experimentKey(cfg, "morrigan", wl));

    // Different workload (seed only differs).
    ServerWorkloadParams wl2 = wl;
    wl2.seed += 1;
    EXPECT_NE(base, experimentKey(cfg, "none", wl2));

    // Different config knobs, including nested params.
    SimConfig c2 = cfg;
    c2.simInstructions += 1;
    EXPECT_NE(base, experimentKey(c2, "none", wl));
    SimConfig c3 = cfg;
    c3.pbEntries *= 2;
    EXPECT_NE(base, experimentKey(c3, "none", wl));
    SimConfig c4 = cfg;
    c4.tlb.stlb.entries *= 2;
    EXPECT_NE(base, experimentKey(c4, "none", wl));
    SimConfig c5 = cfg;
    c5.mem.l2.latency += 1;
    EXPECT_NE(base, experimentKey(c5, "none", wl));

    // SMT partner presence and identity.
    const ServerWorkloadParams partner = qmmWorkloadParams(1);
    const std::string smt_key =
        experimentKey(cfg, "none", wl, &partner);
    EXPECT_NE(base, smt_key);
    ServerWorkloadParams partner2 = partner;
    partner2.seed += 1;
    EXPECT_NE(smt_key, experimentKey(cfg, "none", wl,
                                     &partner2));
}

TEST(ResultCacheJson, RoundTripsBitExactly)
{
    const SimResult r = sampleResult();
    std::ostringstream os;
    writeSimResultJson(os, r);

    SimResult parsed;
    ASSERT_TRUE(parseSimResultJson(os.str(), parsed));
    expectSameResult(r, parsed);
}

TEST(ResultCacheJson, RejectsMalformedInput)
{
    SimResult out;
    EXPECT_FALSE(parseSimResultJson("", out));
    EXPECT_FALSE(parseSimResultJson("not json at all", out));
    EXPECT_FALSE(parseSimResultJson("{\"workload\": \"x\"}", out));

    std::ostringstream os;
    writeSimResultJson(os, sampleResult());
    std::string truncated = os.str();
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(parseSimResultJson(truncated, out));
}

TEST(ResultCache, HitMissAccounting)
{
    ResultCache cache;
    cache.setDiskDir("");

    const std::string key = "k1";
    SimResult out;
    EXPECT_FALSE(cache.lookup(key, out));
    cache.insert(key, sampleResult());
    ASSERT_TRUE(cache.lookup(key, out));
    expectSameResult(sampleResult(), out);
    EXPECT_FALSE(cache.lookup("k2", out));

    const ResultCache::Counts c = cache.counts();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 2u);
    EXPECT_EQ(c.inserts, 1u);
    EXPECT_EQ(c.diskHits, 0u);
    EXPECT_EQ(c.diskRejects, 0u);
    EXPECT_EQ(cache.size(), 1u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.counts().hits, 0u);
}

TEST(ResultCache, BaselineSimulatedOncePerProcess)
{
    // The acceptance criterion: identical cacheable jobs are
    // simulated once per process per key, whether the repetition is
    // across batches or within one batch.
    ResultCache &cache = ResultCache::global();
    cache.setDiskDir("");
    cache.clear();

    const SimConfig cfg = quickConfig();
    std::vector<ServerWorkloadParams> suite = {qmmWorkloadParams(0),
                                               qmmWorkloadParams(1)};

    std::vector<ExperimentJob> batch;
    for (const ServerWorkloadParams &wl : suite)
        batch.push_back(
            ExperimentJob::of(cfg, "none", wl));

    std::vector<SimResult> first = runCached(batch, 2);
    ResultCache::Counts c = cache.counts();
    EXPECT_EQ(c.inserts, 2u);
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 2u);

    // Second figure asking for the same baseline: all hits, nothing
    // new simulated.
    std::vector<SimResult> second = runCached(batch, 2);
    c = cache.counts();
    EXPECT_EQ(c.inserts, 2u);
    EXPECT_EQ(c.hits, 2u);
    EXPECT_EQ(c.misses, 2u);
    for (std::size_t i = 0; i < first.size(); ++i)
        expectSameResult(first[i], second[i]);

    // In-batch duplicates also collapse to one simulation.
    cache.clear();
    std::vector<ExperimentJob> dup = {batch[0], batch[0], batch[0]};
    std::vector<SimResult> results = runCached(dup, 2);
    c = cache.counts();
    EXPECT_EQ(c.inserts, 1u);
    expectSameResult(results[0], results[1]);
    expectSameResult(results[0], results[2]);

    cache.clear();
}

TEST(ResultCache, FactoryJobsBypassTheCache)
{
    ResultCache &cache = ResultCache::global();
    cache.setDiskDir("");
    cache.clear();

    ExperimentJob job = ExperimentJob::with(
        quickConfig(),
        [] {
            return std::make_unique<MorriganPrefetcher>(
                MorriganParams{});
        },
        qmmWorkloadParams(0));
    EXPECT_FALSE(job.cacheable());

    runCached({job}, 1);
    runCached({job}, 1);
    const ResultCache::Counts c = cache.counts();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.inserts, 0u);
    cache.clear();
}

TEST(ResultCacheDisk, RoundTripAcrossInstances)
{
    const std::string dir = ::testing::TempDir();
    const std::string key = "disk-roundtrip-key";

    ResultCache writer;
    writer.setDiskDir(dir);
    writer.insert(key, sampleResult());

    // A fresh instance (fresh process stand-in) misses in memory but
    // hits on disk, bit-exactly.
    ResultCache reader;
    reader.setDiskDir(dir);
    SimResult out;
    ASSERT_TRUE(reader.lookup(key, out));
    expectSameResult(sampleResult(), out);
    EXPECT_EQ(reader.counts().diskHits, 1u);
    EXPECT_EQ(reader.counts().hits, 1u);

    // The disk hit was promoted to memory: a second lookup stays in
    // memory.
    ASSERT_TRUE(reader.lookup(key, out));
    EXPECT_EQ(reader.counts().diskHits, 1u);
    EXPECT_EQ(reader.counts().hits, 2u);
}

TEST(ResultCacheDisk, CorruptFilesAreIgnored)
{
    // A dedicated subdirectory keeps the test hermetic: it holds
    // exactly one cache file, which we overwrite with garbage. The
    // reader must treat it as a miss, never crash.
    const std::string subdir =
        ::testing::TempDir() + "/morrigan_corrupt_test";
    ASSERT_EQ(0, system(("mkdir -p '" + subdir + "'").c_str()));
    const std::string key = "corrupt-file-key";

    ResultCache writer;
    writer.setDiskDir(subdir);
    writer.insert(key, sampleResult());
    ASSERT_EQ(0,
              system(("for f in '" + subdir +
                      "'/morrigan-cache-*.json; do echo garbage > "
                      "\"$f\"; done")
                         .c_str()));

    ResultCache reader;
    reader.setDiskDir(subdir);
    SimResult out;
    EXPECT_FALSE(reader.lookup(key, out));
    EXPECT_EQ(reader.counts().diskRejects, 1u);
    EXPECT_EQ(reader.counts().misses, 1u);
    EXPECT_EQ(reader.counts().hits, 0u);
}

TEST(ResultCacheDisk, StaleVersionsAreIgnored)
{
    const std::string dir =
        ::testing::TempDir() + "/morrigan_stale_test";
    ASSERT_EQ(0, system(("mkdir -p '" + dir + "'").c_str()));
    const std::string key = "stale-version-key";

    ResultCache writer;
    writer.setDiskDir(dir);
    writer.insert(key, sampleResult());
    // Rewrite the version field in the single cache file to a stale
    // value.
    ASSERT_EQ(0,
              system(("for f in '" + dir +
                      "'/morrigan-cache-*.json; do sed -i "
                      "'s/\"version\": *[0-9]*/\"version\": 0/' "
                      "\"$f\"; done")
                         .c_str()));

    ResultCache reader;
    reader.setDiskDir(dir);
    SimResult out;
    EXPECT_FALSE(reader.lookup(key, out));
    EXPECT_EQ(reader.counts().diskRejects, 1u);
}

TEST(ResultCacheDisk, KeyMismatchIsRejected)
{
    // A hash collision (or a renamed file) would surface as a file
    // whose embedded key differs from the requested one; the full
    // key stored in the file guards against silently serving it.
    const std::string dir =
        ::testing::TempDir() + "/morrigan_keymismatch_test";
    ASSERT_EQ(0, system(("mkdir -p '" + dir + "'").c_str()));

    ResultCache writer;
    writer.setDiskDir(dir);
    writer.insert("key-a", sampleResult());
    // Rename the file so it sits at the path derived for a different
    // key. Easiest deterministic route: rewrite the embedded key.
    ASSERT_EQ(0, system(("for f in '" + dir +
                         "'/morrigan-cache-*.json; do sed -i "
                         "'s/key-a/key-b/' \"$f\"; done")
                            .c_str()));

    ResultCache reader;
    reader.setDiskDir(dir);
    SimResult out;
    EXPECT_FALSE(reader.lookup("key-a", out));
    EXPECT_EQ(reader.counts().diskRejects, 1u);
}

TEST(ResultCacheDisk, MissingDirectoryIsAMissNotAnError)
{
    ResultCache cache;
    cache.setDiskDir("/nonexistent/morrigan-cache-dir");
    SimResult out;
    EXPECT_FALSE(cache.lookup("any-key", out));
    EXPECT_EQ(cache.counts().misses, 1u);
    EXPECT_EQ(cache.counts().diskRejects, 0u);
    // Inserts into an unwritable dir must not crash either.
    cache.insert("any-key", sampleResult());
    ASSERT_TRUE(cache.lookup("any-key", out));
}
