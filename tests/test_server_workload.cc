/** @file Unit + property tests for the synthetic server workload. */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "archive_util.hh"
#include "common/logging.hh"
#include "workload/server_workload.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

TEST(ServerWorkload, DeterministicForSameParams)
{
    ServerWorkloadParams p = qmmWorkloadParams(1);
    ServerWorkload a(p), b(p);
    for (int i = 0; i < 5000; ++i) {
        TraceRecord ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.hasData, rb.hasData);
        EXPECT_EQ(ra.dataAddr, rb.dataAddr);
    }
}

TEST(ServerWorkload, DifferentSeedsDiffer)
{
    ServerWorkloadParams p = qmmWorkloadParams(1);
    ServerWorkload a(p);
    p.seed += 1;
    ServerWorkload b(p);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next().pc == b.next().pc;
    EXPECT_LT(same, 500);
}

TEST(ServerWorkload, PcsStayInMappedCodeRegions)
{
    ServerWorkloadParams p = qmmWorkloadParams(2);
    ServerWorkload w(p);
    auto regions = w.mappedRegions();
    for (int i = 0; i < 20000; ++i) {
        Vpn vpn = pageOf(w.next().pc);
        bool in_region = false;
        for (const auto &[base, count] : regions)
            in_region |= vpn >= base && vpn < base + count;
        EXPECT_TRUE(in_region) << "pc page " << vpn << " unmapped";
    }
}

TEST(ServerWorkload, DataAccessRateMatchesParam)
{
    ServerWorkloadParams p = qmmWorkloadParams(3);
    ServerWorkload w(p);
    int with_data = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        with_data += w.next().hasData;
    EXPECT_NEAR(with_data / static_cast<double>(n),
                p.dataAccessProb, 0.02);
}

TEST(ServerWorkload, CodeAndDataRegionsDisjoint)
{
    ServerWorkloadParams p = qmmWorkloadParams(4);
    ServerWorkload w(p);
    auto regions = w.mappedRegions();
    for (std::size_t i = 0; i < regions.size(); ++i) {
        for (std::size_t j = i + 1; j < regions.size(); ++j) {
            auto [a, ca] = regions[i];
            auto [b, cb] = regions[j];
            EXPECT_TRUE(a + ca <= b || b + cb <= a)
                << "regions overlap";
        }
    }
}

TEST(ServerWorkload, SuccessorFanOutIsSmall)
{
    // Finding 3: pages have only a few likely successors.
    ServerWorkloadParams p = qmmWorkloadParams(5);
    ServerWorkload w(p);
    unsigned small = 0, total = 0;
    for (std::uint32_t i = 0; i < p.codePages; i += 7) {
        std::uint32_t k = w.successorCount(i);
        if (k == 0)
            continue;
        ++total;
        small += k <= 8;
    }
    ASSERT_GT(total, 20u);
    EXPECT_GT(small / static_cast<double>(total), 0.6);
}

TEST(ServerWorkload, TierClassificationConsistent)
{
    ServerWorkloadParams p = qmmWorkloadParams(6);
    ServerWorkload w(p);
    int hot = 0, warm = 0, cold = 0;
    for (std::uint32_t i = 0; i < p.codePages; ++i) {
        switch (w.tierOfVpn(w.pageVpn(i))) {
          case 0: ++hot; break;
          case 1: ++warm; break;
          case 2: ++cold; break;
          default: FAIL() << "code page without tier";
        }
    }
    EXPECT_EQ(hot, static_cast<int>(p.hotCodePages));
    EXPECT_EQ(warm, static_cast<int>(p.warmCodePages));
    EXPECT_EQ(hot + warm + cold, static_cast<int>(p.codePages));
    EXPECT_EQ(w.tierOfVpn(0xdeadbeef), -1);
}

TEST(ServerWorkload, PhaseChangesHappenOnSchedule)
{
    ServerWorkloadParams p = qmmWorkloadParams(7);
    p.phaseInterval = 10000;
    ServerWorkload w(p);
    for (int i = 0; i < 45000; ++i)
        w.next();
    EXPECT_GE(w.phaseChanges(), 3u);
    EXPECT_LE(w.phaseChanges(), 5u);
}

TEST(ServerWorkload, PhaseChangeMidDeviationStaysInBounds)
{
    // With this generator seed the first phase change (at 2M
    // records) rebuilds the running request's path shorter while the
    // request is deviating; the deviation's return must start a new
    // request instead of indexing past the rebuilt path's end.
    ServerWorkloadParams p = qmmWorkloadParams(43);
    p.seed = 16929568105644185409ULL;
    ServerWorkload a(p), b(p);
    const auto regions = a.mappedRegions();
    for (int i = 0; i < 2'100'000; ++i) {
        const TraceRecord ra = a.next(), rb = b.next();
        ASSERT_EQ(ra.pc, rb.pc) << "record " << i;
        ASSERT_EQ(ra.dataAddr, rb.dataAddr) << "record " << i;
        const Vpn vpn = pageOf(ra.pc);
        bool in_region = false;
        for (const auto &[base, count] : regions)
            in_region |= vpn >= base && vpn < base + count;
        ASSERT_TRUE(in_region)
            << "record " << i << ": pc page " << vpn << " unmapped";
    }
    EXPECT_GE(a.phaseChanges(), 1u);
}

TEST(ServerWorkload, ResumeAcrossPhaseChangeMidDeviation)
{
    // The same seed as above: around record 2,000,005 the running
    // request's path is shorter than the path position next()
    // carries. Every image in that window must restore and replay
    // the exact record stream the uninterrupted generator produced.
    ServerWorkloadParams p = qmmWorkloadParams(43);
    p.seed = 16929568105644185409ULL;
    constexpr std::size_t first = 2'000'000, count = 101;
    constexpr std::size_t replay = 10'000;
    ServerWorkload a(p);
    for (std::size_t i = 0; i < first; ++i)
        a.next();
    std::vector<std::string> images;
    std::vector<TraceRecord> expect;
    for (std::size_t i = 0; i < count + replay; ++i) {
        if (i < count)
            images.push_back(savePayload(a));
        expect.push_back(a.next());
    }
    for (std::size_t k = 0; k < count; ++k) {
        ServerWorkload b(p);
        ASSERT_NO_THROW(loadPayload(b, images[k]))
            << "record " << first + k;
        for (std::size_t i = 0; i < replay; ++i) {
            const TraceRecord rb = b.next();
            const TraceRecord &ra = expect[k + i];
            ASSERT_EQ(rb.pc, ra.pc) << "image " << first + k << " +" << i;
            ASSERT_EQ(rb.hasData, ra.hasData)
                << "image " << first + k << " +" << i;
            ASSERT_EQ(rb.dataAddr, ra.dataAddr)
                << "image " << first + k << " +" << i;
        }
    }
}

TEST(ServerWorkload, ZeroPhaseIntervalDisablesPhases)
{
    ServerWorkloadParams p = qmmWorkloadParams(8);
    p.phaseInterval = 0;
    ServerWorkload w(p);
    for (int i = 0; i < 50000; ++i)
        w.next();
    EXPECT_EQ(w.phaseChanges(), 0u);
}

TEST(ServerWorkload, VisitsConcentrateOnHotTier)
{
    ServerWorkloadParams p = qmmWorkloadParams(9);
    ServerWorkload w(p);
    std::uint64_t hot = 0, total = 0;
    Vpn last = 0;
    for (int i = 0; i < 200000; ++i) {
        Vpn vpn = pageOf(w.next().pc);
        if (vpn == last)
            continue;  // count page visits, not instructions
        last = vpn;
        ++total;
        hot += w.tierOfVpn(vpn) == 0;
    }
    EXPECT_GT(hot / static_cast<double>(total), 0.5);
}

TEST(WorkloadFactory, AllQmmPresetsConstruct)
{
    for (unsigned i = 0; i < numQmmWorkloads; ++i) {
        ServerWorkloadParams p = qmmWorkloadParams(i);
        EXPECT_EQ(p.name, csprintf("qmm_%02u", i));
        EXPECT_GE(p.codePages, 1500u);
        EXPECT_LE(p.codePages, 6000u);
        EXPECT_GT(p.hotShare + p.warmShare, 0.9);
        EXPECT_LT(p.hotShare + p.warmShare, 1.0);
        ServerWorkload w(p);
        for (int k = 0; k < 100; ++k)
            w.next();
    }
}

TEST(WorkloadFactory, SpecPresetsAreSmallFootprint)
{
    for (unsigned i = 0; i < numSpecWorkloads; ++i) {
        ServerWorkloadParams p = specWorkloadParams(i);
        EXPECT_LE(p.codePages, 100u);
        ServerWorkload w(p);
        for (int k = 0; k < 100; ++k)
            w.next();
    }
}

TEST(WorkloadFactory, JavaPresetsNamed)
{
    const auto &names = javaWorkloadNames();
    EXPECT_EQ(names.size(), 7u);
    EXPECT_EQ(names[0], "cassandra");
    for (unsigned i = 0; i < names.size(); ++i) {
        ServerWorkloadParams p = javaWorkloadParams(i);
        EXPECT_EQ(p.name, names[i]);
    }
}

TEST(WorkloadFactoryDeathTest, OutOfRangeIndexIsFatal)
{
    EXPECT_EXIT(qmmWorkloadParams(numQmmWorkloads),
                ::testing::ExitedWithCode(1), "out of range");
}

/** Every QMM preset is constructible and deterministic (sweep). */
class QmmSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(QmmSweep, DeterministicFirstThousand)
{
    ServerWorkloadParams p = qmmWorkloadParams(GetParam());
    ServerWorkload a(p), b(p);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next().pc, b.next().pc);
}

INSTANTIATE_TEST_SUITE_P(Suite, QmmSweep,
                         ::testing::Values(0u, 7u, 13u, 22u, 31u,
                                           40u, 44u));
