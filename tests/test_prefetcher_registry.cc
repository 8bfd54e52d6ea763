/**
 * @file
 * Plugin registry, spec handling, hybrid composition, and the
 * per-plugin invariants of the tournament competitors (FNL+MMA,
 * MANA, FDIP, PMP): issue behavior, credit filtering, storage
 * budgets, and snapshot round-trips.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive_util.hh"
#include "common/rng.hh"
#include "core/fdip.hh"
#include "core/fnl_mma_tlb.hh"
#include "core/mana.hh"
#include "core/pmp.hh"
#include "core/prefetcher_registry.hh"

using namespace morrigan;

namespace
{

std::vector<PrefetchRequest>
miss(TlbPrefetcher &p, Vpn vpn, Addr pc = 0, unsigned tid = 0)
{
    std::vector<PrefetchRequest> out;
    p.onInstrStlbMiss(vpn, pc, tid, out);
    return out;
}

bool
issues(const std::vector<PrefetchRequest> &out, Vpn vpn)
{
    return std::any_of(out.begin(), out.end(),
                       [&](const PrefetchRequest &r) {
                           return r.vpn == vpn;
                       });
}

PrefetcherPlugin
dummyPlugin(std::string name)
{
    PrefetcherPlugin p;
    p.name = std::move(name);
    p.displayName = "Dummy";
    p.description = "test plugin";
    p.factory = [] {
        return std::make_unique<FdipPrefetcher>();
    };
    return p;
}

} // namespace

// ---------------------------------------------------------------
// Registry mechanics
// ---------------------------------------------------------------

TEST(Registry, GlobalHasAllBuiltinsInRegistrationOrder)
{
    const std::vector<std::string> expected = {
        "sp", "asp", "dp", "mp", "mp-iso", "mp-unbounded2",
        "mp-unbounded", "morrigan", "morrigan-mono", "fnl-mma",
        "mana", "fdip", "pmp"};
    EXPECT_EQ(PrefetcherRegistry::global().names(), expected);
}

TEST(Registry, FindReturnsMetadata)
{
    const PrefetcherRegistry &reg = PrefetcherRegistry::global();
    const PrefetcherPlugin *p = reg.find("morrigan");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->displayName, "Morrigan");
    EXPECT_TRUE(p->fuzzable);
    EXPECT_TRUE(p->tournament);

    // "none" is a reserved spec word, not a plugin.
    EXPECT_EQ(reg.find("none"), nullptr);
    EXPECT_EQ(reg.find("bogus"), nullptr);
}

TEST(Registry, UnboundedOraclesAreExcludedFromFuzzAndTournament)
{
    const PrefetcherRegistry &reg = PrefetcherRegistry::global();
    for (const char *name : {"mp-unbounded2", "mp-unbounded"}) {
        const PrefetcherPlugin *p = reg.find(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_FALSE(p->fuzzable) << name;
        EXPECT_FALSE(p->tournament) << name;
    }
    // mp is dominated by its ISO twin in the tournament but stays
    // fuzzable.
    const PrefetcherPlugin *mp = reg.find("mp");
    ASSERT_NE(mp, nullptr);
    EXPECT_TRUE(mp->fuzzable);
    EXPECT_FALSE(mp->tournament);
}

TEST(Registry, EveryPluginFactoryProducesAnInstance)
{
    for (const PrefetcherPlugin &p :
         PrefetcherRegistry::global().plugins()) {
        auto inst = p.factory();
        ASSERT_NE(inst, nullptr) << p.name;
        EXPECT_STRNE(inst->name(), "") << p.name;
    }
}

TEST(Registry, NamesJoinedListsEveryPlugin)
{
    std::string joined =
        PrefetcherRegistry::global().namesJoined();
    for (const std::string &name :
         PrefetcherRegistry::global().names())
        EXPECT_NE(joined.find(name), std::string::npos) << name;
}

TEST(Registry, LocalRegistryAcceptsNewPlugin)
{
    PrefetcherRegistry reg;
    reg.registerPlugin(dummyPlugin("my-pf"));
    ASSERT_NE(reg.find("my-pf"), nullptr);
    EXPECT_EQ(reg.names(), std::vector<std::string>{"my-pf"});
}

TEST(RegistryDeathTest, DuplicateNameIsFatal)
{
    EXPECT_EXIT(
        {
            PrefetcherRegistry reg;
            reg.registerPlugin(dummyPlugin("dup"));
            reg.registerPlugin(dummyPlugin("dup"));
        },
        ::testing::ExitedWithCode(1), "duplicate");
}

TEST(RegistryDeathTest, ReservedAndMalformedNamesAreFatal)
{
    EXPECT_EXIT(
        {
            PrefetcherRegistry reg;
            reg.registerPlugin(dummyPlugin(""));
        },
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(
        {
            PrefetcherRegistry reg;
            reg.registerPlugin(dummyPlugin("none"));
        },
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(
        {
            PrefetcherRegistry reg;
            reg.registerPlugin(dummyPlugin("a+b"));
        },
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(
        {
            PrefetcherRegistry reg;
            PrefetcherPlugin p = dummyPlugin("no-factory");
            p.factory = nullptr;
            reg.registerPlugin(std::move(p));
        },
        ::testing::ExitedWithCode(1), "");
}

// ---------------------------------------------------------------
// Spec strings
// ---------------------------------------------------------------

TEST(Spec, SplitHandlesSingleAndHybrid)
{
    EXPECT_EQ(splitPrefetcherSpec("morrigan"),
              std::vector<std::string>{"morrigan"});
    EXPECT_EQ(splitPrefetcherSpec("none"),
              std::vector<std::string>{"none"});
    std::vector<std::string> abc = {"sp", "dp", "morrigan"};
    EXPECT_EQ(splitPrefetcherSpec("sp+dp+morrigan"), abc);
}

TEST(Spec, CheckAcceptsRegisteredNamesAndHybrids)
{
    EXPECT_EQ(checkPrefetcherSpec("none"), "");
    EXPECT_EQ(checkPrefetcherSpec("fdip"), "");
    EXPECT_EQ(checkPrefetcherSpec("morrigan-mono+sp"), "");
    EXPECT_EQ(checkPrefetcherSpec("fnl-mma+mana+fdip"), "");
}

TEST(Spec, CheckRejectsUnknownAndListsRegistered)
{
    std::string err = checkPrefetcherSpec("sp+bogus");
    EXPECT_NE(err.find("unknown prefetcher 'bogus'"),
              std::string::npos)
        << err;
    // The message must enumerate every registered plugin.
    for (const std::string &name :
         PrefetcherRegistry::global().names())
        EXPECT_NE(err.find(name), std::string::npos) << name;
}

TEST(Spec, CheckRejectsNoneInsideComposition)
{
    EXPECT_NE(checkPrefetcherSpec("none+sp"), "");
    EXPECT_NE(checkPrefetcherSpec("morrigan+none"), "");
}

TEST(Spec, DisplayNameJoinsMemberDisplayNames)
{
    EXPECT_EQ(prefetcherDisplayName("none"), "none");
    EXPECT_EQ(prefetcherDisplayName("fnl-mma"), "FNL+MMA");
    EXPECT_EQ(prefetcherDisplayName("morrigan-mono+sp"),
              "Morrigan-mono+SP");
}

// ---------------------------------------------------------------
// Hybrid composition
// ---------------------------------------------------------------

TEST(Composite, StorageBudgetsSum)
{
    auto solo_mono = makePrefetcher("morrigan-mono");
    auto solo_dp = makePrefetcher("dp");
    auto hybrid = makePrefetcher("morrigan-mono+dp");
    EXPECT_EQ(hybrid->storageBits(),
              solo_mono->storageBits() + solo_dp->storageBits());

    // SP is stateless, so composing it is storage-free.
    auto with_sp = makePrefetcher("morrigan-mono+sp");
    EXPECT_EQ(with_sp->storageBits(), solo_mono->storageBits());
}

TEST(Composite, MissesFanOutToEveryMember)
{
    // sp prefetches vpn+1 on every miss; fnl-mma adds vpn+1 and
    // vpn+2. Both members must see the miss.
    auto hybrid = makePrefetcher("sp+fnl-mma");
    auto out = miss(*hybrid, 0x100);
    // sp's +1, fnl-mma's +1 and +2: the composite does not dedupe
    // (the simulator's PB filter does).
    EXPECT_EQ(out.size(), 3u);
    EXPECT_TRUE(issues(out, 0x101));
    EXPECT_TRUE(issues(out, 0x102));
}

TEST(Composite, CreditRoutesToTheProducingMemberOnly)
{
    auto pf = makePrefetcher("fnl-mma+fdip");
    auto *hybrid = dynamic_cast<CompositePrefetcher *>(pf.get());
    ASSERT_NE(hybrid, nullptr);
    ASSERT_EQ(hybrid->memberCount(), 2u);
    auto *fnl =
        dynamic_cast<FnlMmaTlbPrefetcher *>(&hybrid->member(0));
    auto *fdip = dynamic_cast<FdipPrefetcher *>(&hybrid->member(1));
    ASSERT_NE(fnl, nullptr);
    ASSERT_NE(fdip, nullptr);

    PrefetchTag tag;
    tag.producer = PrefetchProducer::Other;
    tag.table = FnlMmaTlbPrefetcher::tagTable;
    pf->creditPbHit(tag);
    EXPECT_EQ(fnl->creditedHits(), 1u);
    EXPECT_EQ(fdip->creditedHits(), 0u);

    tag.table = FdipPrefetcher::tagTable;
    pf->creditPbHit(tag);
    EXPECT_EQ(fnl->creditedHits(), 1u);
    EXPECT_EQ(fdip->creditedHits(), 1u);
}

TEST(Composite, ContextSwitchFlushesEveryMember)
{
    auto hybrid = makePrefetcher("fdip+mana");
    // Train fdip's A->B edge to confidence >= 1.
    miss(*hybrid, 1);
    miss(*hybrid, 2);
    miss(*hybrid, 1);
    miss(*hybrid, 2);
    EXPECT_TRUE(issues(miss(*hybrid, 1), 2));
    hybrid->onContextSwitch();
    EXPECT_TRUE(miss(*hybrid, 1).empty());
}

TEST(Composite, SnapshotRoundTripsMembersInOrder)
{
    auto a = makePrefetcher("fdip+fnl-mma");
    miss(*a, 1);
    miss(*a, 2);
    miss(*a, 1);
    miss(*a, 2);

    const std::string image = savePayload(*a);

    auto b = makePrefetcher("fdip+fnl-mma");
    loadPayload(*b, image);

    // Both images must now behave identically.
    auto out_a = miss(*a, 1);
    auto out_b = miss(*b, 1);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i].vpn, out_b[i].vpn);
}

TEST(Composite, SnapshotMemberCountMismatchThrows)
{
    auto two = makePrefetcher("fdip+fnl-mma");
    const std::string image = savePayload(*two);

    auto three = makePrefetcher("fdip+fnl-mma+mana");
    EXPECT_THROW(loadPayload(*three, image), SnapshotError);
}

TEST(CompositeDeathTest, FewerThanTwoMembersIsFatal)
{
    EXPECT_DEATH(
        {
            std::vector<std::unique_ptr<TlbPrefetcher>> one;
            one.push_back(std::make_unique<FdipPrefetcher>());
            CompositePrefetcher c(std::move(one));
        },
        ">= 2 members");
}

// ---------------------------------------------------------------
// FNL+MMA plugin invariants
// ---------------------------------------------------------------

TEST(FnlMmaTlb, NextPageDegreeWithTaggedRequests)
{
    FnlMmaTlbPrefetcher pf;
    auto out = miss(pf, 0x200);
    ASSERT_EQ(out.size(), 2u);  // degree 2, MMA cold
    EXPECT_EQ(out[0].vpn, 0x201u);
    EXPECT_EQ(out[1].vpn, 0x202u);
    for (const PrefetchRequest &r : out) {
        EXPECT_EQ(r.tag.producer, PrefetchProducer::Other);
        EXPECT_EQ(r.tag.table, FnlMmaTlbPrefetcher::tagTable);
        EXPECT_EQ(r.tag.sourcePage, 0x200u);
        EXPECT_FALSE(r.spatial);
    }
}

TEST(FnlMmaTlb, MissAheadTablePredictsLookahead)
{
    FnlMmaTlbPrefetcher pf;
    // Repeat a period-5 miss loop: trigger 100 is followed 4 misses
    // later (the lookahead) by 500, every lap. The first lap
    // installs the pair at confidence 0, the second confirms it.
    const Vpn loop[] = {100, 200, 300, 400, 500};
    for (int lap = 0; lap < 3; ++lap)
        for (Vpn v : loop)
            miss(pf, v);
    auto out = miss(pf, 100);
    EXPECT_TRUE(issues(out, 500)) << "MMA lookahead did not fire";
    EXPECT_GT(pf.mmaPredictions(), 0u);
}

TEST(FnlMmaTlb, CreditFiltersForeignTags)
{
    FnlMmaTlbPrefetcher pf;
    PrefetchTag tag;
    tag.producer = PrefetchProducer::Other;
    tag.table = FdipPrefetcher::tagTable;  // someone else's magic
    pf.creditPbHit(tag);
    tag.producer = PrefetchProducer::Irip;
    tag.table = FnlMmaTlbPrefetcher::tagTable;
    pf.creditPbHit(tag);
    EXPECT_EQ(pf.creditedHits(), 0u);

    tag.producer = PrefetchProducer::Other;
    pf.creditPbHit(tag);
    EXPECT_EQ(pf.creditedHits(), 1u);
}

TEST(FnlMmaTlb, StorageBudgetInsideIso)
{
    FnlMmaTlbPrefetcher pf;
    EXPECT_EQ(pf.storageBits(), 512u * (16 + 36 + 2));
    // Must fit Morrigan's ~3.8KB ISO budget.
    EXPECT_LE(pf.storageBits(),
              makePrefetcher("morrigan")->storageBits());
}

TEST(FnlMmaTlb, SnapshotRoundTrip)
{
    FnlMmaTlbPrefetcher a;
    const Vpn loop[] = {100, 200, 300, 400, 500};
    for (int lap = 0; lap < 3; ++lap)
        for (Vpn v : loop)
            miss(a, v);

    const std::string image = savePayload(a);
    FnlMmaTlbPrefetcher b;
    loadPayload(b, image);

    EXPECT_EQ(b.mmaPredictions(), a.mmaPredictions());
    auto out_a = miss(a, 100);
    auto out_b = miss(b, 100);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i].vpn, out_b[i].vpn);
}

TEST(FnlMmaTlb, ContextSwitchForgetsTraining)
{
    FnlMmaTlbPrefetcher pf;
    const Vpn loop[] = {100, 200, 300, 400, 500};
    for (int lap = 0; lap < 3; ++lap)
        for (Vpn v : loop)
            miss(pf, v);
    ASSERT_TRUE(issues(miss(pf, 100), 500));
    pf.onContextSwitch();
    EXPECT_FALSE(issues(miss(pf, 100), 500));
}

// ---------------------------------------------------------------
// MANA plugin invariants
// ---------------------------------------------------------------

TEST(Mana, ReplaysRecordedFootprintAndSuccessorChain)
{
    ManaPrefetcher pf;
    // Region A: trigger 100, touches 101 and 103. Jumping to 200
    // commits A with successor 200; jumping to 300 commits B(200)
    // with successor 300.
    miss(pf, 100);
    miss(pf, 101);
    miss(pf, 103);
    miss(pf, 200);
    miss(pf, 300);
    EXPECT_EQ(pf.recordsCommitted(), 2u);

    // Revisiting 100 replays A's footprint and walks the successor
    // chain replayDepth (2) records ahead: 200 and 300.
    auto out = miss(pf, 400);  // leave region C first
    out = miss(pf, 100);
    EXPECT_TRUE(issues(out, 101));
    EXPECT_TRUE(issues(out, 103));
    EXPECT_TRUE(issues(out, 200));
    EXPECT_TRUE(issues(out, 300));
    EXPECT_FALSE(issues(out, 102));  // never touched
    EXPECT_GT(pf.replays(), 0u);
    for (const PrefetchRequest &r : out)
        EXPECT_EQ(r.tag.table, ManaPrefetcher::tagTable);
}

TEST(Mana, InRegionMissesExtendTheFootprintSilently)
{
    ManaPrefetcher pf;
    miss(pf, 100);
    // Misses inside the open region accumulate without issuing.
    EXPECT_TRUE(miss(pf, 101).empty());
    EXPECT_TRUE(miss(pf, 104).empty());
}

TEST(Mana, HobTableRoundRobinsOnceFull)
{
    ManaParams params;
    params.hobEntries = 2;  // tiny HOB: conflicts come fast
    ManaPrefetcher pf(params);
    // Each committed region records a successor whose high bits
    // claim a HOB slot; distinct high-bit patterns beyond 2 must
    // recycle slots.
    Vpn step = Vpn{1} << 13;  // > successorLowBits (12): new HOB
    for (int i = 0; i < 6; ++i) {
        miss(pf, static_cast<Vpn>(i + 1) * step);
        miss(pf, static_cast<Vpn>(i + 2) * step);
    }
    EXPECT_GT(pf.hobConflicts(), 0u);
}

TEST(Mana, StorageBudgetInsideIso)
{
    ManaPrefetcher pf;
    // 576 records x 43b + 64 HOB entries x 24b.
    EXPECT_EQ(pf.storageBits(), 576u * 43 + 64u * 24);
    EXPECT_LE(pf.storageBits(),
              makePrefetcher("morrigan")->storageBits());
}

TEST(Mana, SnapshotRoundTrip)
{
    ManaPrefetcher a;
    miss(a, 100);
    miss(a, 101);
    miss(a, 200);
    miss(a, 300);

    const std::string image = savePayload(a);
    ManaPrefetcher b;
    loadPayload(b, image);

    EXPECT_EQ(b.recordsCommitted(), a.recordsCommitted());
    EXPECT_EQ(b.hobConflicts(), a.hobConflicts());
    auto out_a = miss(a, 100);
    auto out_b = miss(b, 100);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i].vpn, out_b[i].vpn);
}

TEST(Mana, SnapshotHobSizeMismatchThrows)
{
    ManaPrefetcher a;
    const std::string image = savePayload(a);

    ManaParams small;
    small.hobEntries = 32;
    ManaPrefetcher b(small);
    EXPECT_THROW(loadPayload(b, image), SnapshotError);
}

TEST(ManaDeathTest, RejectsUnsupportedGeometry)
{
    EXPECT_EXIT(
        {
            ManaParams p;
            p.regionPages = 9;  // footprint is 8 bits
            ManaPrefetcher pf(p);
        },
        ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(
        {
            ManaParams p;
            p.hobEntries = 48;  // not a power of two
            ManaPrefetcher pf(p);
        },
        ::testing::ExitedWithCode(1), "");
}

// ---------------------------------------------------------------
// FDIP plugin invariants
// ---------------------------------------------------------------

TEST(Fdip, RunsAheadAlongConfidentChain)
{
    FdipPrefetcher pf;
    // Two laps of 1 -> 2 -> 3 -> 4: lap one installs each edge at
    // confidence 0, lap two confirms them to 1 (the threshold).
    for (int lap = 0; lap < 2; ++lap)
        for (Vpn v : {1, 2, 3, 4})
            miss(pf, v);
    auto out = miss(pf, 1);
    // ftqDepth 3: chases 2, 3, 4.
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].vpn, 2u);
    EXPECT_EQ(out[1].vpn, 3u);
    EXPECT_EQ(out[2].vpn, 4u);
    // Each request is attributed to the edge that produced it.
    EXPECT_EQ(out[0].tag.sourcePage, 1u);
    EXPECT_EQ(out[1].tag.sourcePage, 2u);
    EXPECT_EQ(out[2].tag.sourcePage, 3u);
    for (const PrefetchRequest &r : out)
        EXPECT_EQ(r.tag.table, FdipPrefetcher::tagTable);
}

TEST(Fdip, UnconfirmedEdgesStaySilent)
{
    FdipPrefetcher pf;
    miss(pf, 1);
    miss(pf, 2);  // edge 1->2 at confidence 0, below threshold
    EXPECT_TRUE(miss(pf, 1).empty());
}

TEST(Fdip, SelfLoopsAreNotTrained)
{
    FdipPrefetcher pf;
    for (int i = 0; i < 4; ++i)
        miss(pf, 7);
    EXPECT_TRUE(miss(pf, 7).empty());
    EXPECT_EQ(pf.runaheadPrefetches(), 0u);
}

TEST(Fdip, CreditReinforcesTheProducingEdge)
{
    FdipPrefetcher pf;
    miss(pf, 1);
    miss(pf, 2);  // edge 1->2 at confidence 0
    PrefetchTag tag;
    tag.producer = PrefetchProducer::Other;
    tag.table = FdipPrefetcher::tagTable;
    tag.sourcePage = 1;
    pf.creditPbHit(tag);
    EXPECT_EQ(pf.creditedHits(), 1u);
    // The credited edge is now confident enough to issue.
    EXPECT_TRUE(issues(miss(pf, 1), 2));

    // Foreign producers and tables are ignored.
    tag.producer = PrefetchProducer::Irip;
    pf.creditPbHit(tag);
    tag.producer = PrefetchProducer::Other;
    tag.table = ManaPrefetcher::tagTable;
    pf.creditPbHit(tag);
    EXPECT_EQ(pf.creditedHits(), 1u);
}

TEST(Fdip, PerThreadHistoriesShareTheTable)
{
    FdipPrefetcher pf;
    // Thread 0 trains 1->2 twice; thread 1's interleaved stream
    // must not corrupt thread 0's edge source.
    miss(pf, 1, 0, 0);
    miss(pf, 50, 0, 1);
    miss(pf, 2, 0, 0);
    miss(pf, 60, 0, 1);
    miss(pf, 1, 0, 0);
    miss(pf, 50, 0, 1);
    auto out = miss(pf, 2, 0, 0);
    // Edge 1->2 confirmed; miss at 2 trains 2->... and chases from
    // 2 (edge 2->1 exists at confidence 0 only), so check via 1.
    EXPECT_TRUE(issues(miss(pf, 1, 0, 0), 2));
    (void)out;
}

TEST(Fdip, StorageBudgetInsideIso)
{
    FdipPrefetcher pf;
    EXPECT_EQ(pf.storageBits(), 512u * (16 + 36 + 2));
    EXPECT_LE(pf.storageBits(),
              makePrefetcher("morrigan")->storageBits());
}

TEST(Fdip, SnapshotRoundTrip)
{
    FdipPrefetcher a;
    for (int lap = 0; lap < 2; ++lap)
        for (Vpn v : {1, 2, 3, 4})
            miss(a, v);

    const std::string image = savePayload(a);
    FdipPrefetcher b;
    loadPayload(b, image);

    EXPECT_EQ(b.runaheadPrefetches(), a.runaheadPrefetches());
    auto out_a = miss(a, 1);
    auto out_b = miss(b, 1);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i].vpn, out_b[i].vpn);
}

TEST(Fdip, ContextSwitchForgetsTraining)
{
    FdipPrefetcher pf;
    for (int lap = 0; lap < 2; ++lap)
        for (Vpn v : {1, 2, 3, 4})
            miss(pf, v);
    ASSERT_FALSE(miss(pf, 1).empty());
    pf.onContextSwitch();
    EXPECT_TRUE(miss(pf, 1).empty());
}

// ---------------------------------------------------------------
// PMP plugin invariants
// ---------------------------------------------------------------

namespace
{

/**
 * Evict whatever set-0 accumulation entries @p pf holds by opening
 * four fresh set-0 regions, forcing the LRU footprints to commit
 * into the pattern table. Regions start at @p filler_region (must be
 * a multiple of 16) and stride by 16 so every one maps to set 0 of
 * the 64-entry / 4-way accumulation table.
 */
void
pmpFlushSet0(PmpPrefetcher &pf, Vpn filler_region)
{
    for (Vpn r = filler_region; r < filler_region + 64; r += 16)
        miss(pf, r << 4, /*pc=*/0xdead0);
}

} // namespace

TEST(Pmp, MergedFootprintPredictsOnRetrigger)
{
    PmpPrefetcher pf;
    const Addr pc = 0x1000;
    // Two observation laps of region 0x100 with trigger offset 0 and
    // footprint {0, 1, 3}; each lap's commit (forced by evicting the
    // accumulation entry) adds +2 to the present positions, so after
    // two laps positions 1 and 3 clear the threshold of 4.
    for (int lap = 0; lap < 2; ++lap) {
        EXPECT_TRUE(miss(pf, 0x1000, pc).empty())
            << "predicted before the pattern was trained, lap "
            << lap;
        miss(pf, 0x1001, pc);
        miss(pf, 0x1003, pc);
        pmpFlushSet0(pf, 0x110 + 0x50 * lap);
    }
    EXPECT_EQ(pf.committedPatterns(), 2u + /*filler laps*/ 4u);

    auto out = miss(pf, 0x1000, pc);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(issues(out, 0x1001));
    EXPECT_TRUE(issues(out, 0x1003));
    EXPECT_FALSE(issues(out, 0x1002));
    for (const PrefetchRequest &r : out) {
        EXPECT_TRUE(r.spatial);
        EXPECT_EQ(r.tag.producer, PrefetchProducer::Other);
        EXPECT_EQ(r.tag.table, PmpPrefetcher::tagTable);
    }
}

TEST(Pmp, RotatedPatternWrapsWithinRegion)
{
    PmpPrefetcher pf;
    const Addr pc = 0x2000;
    // Train region 0x200 with trigger offset 14 and footprint
    // {14, 15, 0}: relative positions 0, 1, 2 with the +2 wrapping
    // around the region boundary.
    for (int lap = 0; lap < 2; ++lap) {
        miss(pf, 0x200e, pc);
        miss(pf, 0x200f, pc);
        miss(pf, 0x2000, pc);
        pmpFlushSet0(pf, 0x210 + 0x50 * lap);
    }
    // A *different* region triggered at the same (PC, offset)
    // signature replays the rotated footprint around its own base.
    auto out = miss(pf, 0x300e, pc);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(issues(out, 0x300f));
    EXPECT_TRUE(issues(out, 0x3000));
}

TEST(Pmp, CreditFiltersForeignTags)
{
    PmpPrefetcher pf;
    PrefetchTag tag;
    tag.producer = PrefetchProducer::Other;
    tag.table = FdipPrefetcher::tagTable;  // someone else's magic
    pf.creditPbHit(tag);
    tag.producer = PrefetchProducer::Irip;
    tag.table = PmpPrefetcher::tagTable;
    pf.creditPbHit(tag);
    EXPECT_EQ(pf.creditedHits(), 0u);

    tag.producer = PrefetchProducer::Other;
    pf.creditPbHit(tag);
    EXPECT_EQ(pf.creditedHits(), 1u);
}

TEST(Pmp, StorageBudgetInsideIso)
{
    PmpPrefetcher pf;
    EXPECT_EQ(pf.storageBits(),
              64u * (16 + 16 + 4 + 16) + 352u * (16 + 48));
    EXPECT_LE(pf.storageBits(),
              makePrefetcher("morrigan")->storageBits());
}

TEST(Pmp, SnapshotRoundTrip)
{
    PmpPrefetcher a;
    const Addr pc = 0x1000;
    for (int lap = 0; lap < 2; ++lap) {
        miss(a, 0x1000, pc);
        miss(a, 0x1001, pc);
        miss(a, 0x1003, pc);
        pmpFlushSet0(a, 0x110 + 0x50 * lap);
    }

    const std::string image = savePayload(a);
    PmpPrefetcher b;
    loadPayload(b, image);

    EXPECT_EQ(b.committedPatterns(), a.committedPatterns());
    auto out_a = miss(a, 0x1000, pc);
    auto out_b = miss(b, 0x1000, pc);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i].vpn, out_b[i].vpn);
}

TEST(Pmp, ContextSwitchForgetsTraining)
{
    PmpPrefetcher pf;
    const Addr pc = 0x1000;
    for (int lap = 0; lap < 2; ++lap) {
        miss(pf, 0x1000, pc);
        miss(pf, 0x1001, pc);
        miss(pf, 0x1003, pc);
        pmpFlushSet0(pf, 0x110 + 0x50 * lap);
    }
    ASSERT_FALSE(miss(pf, 0x1000, pc).empty());
    pf.onContextSwitch();
    EXPECT_TRUE(miss(pf, 0x1000, pc).empty());
}

// ---------------------------------------------------------------
// Roster-wide resume: every registered engine (and a composition)
// continues from a restored image exactly as the original does.
// ---------------------------------------------------------------

namespace
{

/**
 * A fixed iSTLB miss stream with the structure the engines learn
 * from: a looping code path with small deltas, detours to random
 * pages, two SMT threads and per-page PCs. A fraction of the issued
 * prefetches is credited back as PB hits.
 */
class MissStream
{
  public:
    explicit MissStream(std::uint64_t seed) : rng_(seed, 0x51) {}

    /** Feed the next miss to @p p and @return what it issued. */
    std::vector<PrefetchRequest>
    step(TlbPrefetcher &p)
    {
        Vpn vpn;
        if (rng_.chance(0.8)) {
            pos_ = (pos_ + 1) % pathLength;
            vpn = 0x40000 + pos_ * 3 + (pos_ % 7 == 0 ? 17 : 0);
        } else {
            vpn = 0x40000 + rng_.below(4 * pathLength);
        }
        const unsigned tid = (count_++ / 64) % 2;
        auto out = miss(p, vpn, 0x400000 + (vpn & 0xff) * 64, tid);
        for (const PrefetchRequest &r : out)
            if (rng_.chance(0.3))
                p.creditPbHit(r.tag);
        return out;
    }

  private:
    static constexpr std::uint64_t pathLength = 300;
    Rng rng_;
    std::uint64_t pos_ = 0;
    std::uint64_t count_ = 0;
};

} // namespace

TEST(PrefetcherRegistry, EveryPluginResumesWarm)
{
    std::vector<std::string> specs = PrefetcherRegistry::global().names();
    ASSERT_EQ(specs.size(), 13u);
    specs.push_back("morrigan-mono+sp");
    constexpr int warm = 20'000, after = 5'000;
    for (const std::string &spec : specs) {
        SCOPED_TRACE(spec);
        auto a = makePrefetcher(spec);
        ASSERT_NE(a, nullptr);
        MissStream stream(0xC0FFEE);
        for (int i = 0; i < warm; ++i)
            stream.step(*a);

        const std::string image = savePayload(*a);
        auto b = makePrefetcher(spec);
        ASSERT_NO_THROW(loadPayload(*b, image));
        EXPECT_EQ(savePayload(*b), image) << "re-saved bytes differ";

        // The restored engine sees a copy of the stream: the same
        // misses and the same credit draws.
        MissStream twin = stream;
        for (int i = 0; i < after; ++i) {
            const auto out_a = stream.step(*a);
            const auto out_b = twin.step(*b);
            ASSERT_EQ(out_a.size(), out_b.size()) << "miss " << i;
            for (std::size_t k = 0; k < out_a.size(); ++k) {
                EXPECT_EQ(out_a[k].vpn, out_b[k].vpn) << "miss " << i;
                EXPECT_EQ(out_a[k].spatial, out_b[k].spatial);
                EXPECT_EQ(out_a[k].tag.producer, out_b[k].tag.producer);
                EXPECT_EQ(out_a[k].tag.table, out_b[k].tag.table);
                EXPECT_EQ(out_a[k].tag.sourcePage,
                          out_b[k].tag.sourcePage);
                EXPECT_EQ(out_a[k].tag.distance, out_b[k].tag.distance);
            }
        }
        EXPECT_EQ(savePayload(*a), savePayload(*b));
    }
}
