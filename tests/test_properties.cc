/**
 * @file
 * Property-based tests: randomized operation sequences checked
 * against global invariants of the core structures.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "common/rng.hh"
#include "core/irip.hh"
#include "core/morrigan.hh"
#include "tlb/prefetch_buffer.hh"
#include "vm/page_table.hh"

using namespace morrigan;

/** Random miss streams never violate IRIP's structural invariants. */
class IripProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(IripProperty, InvariantsHoldUnderRandomStreams)
{
    Rng rng(GetParam());
    Irip irip{IripParams{}};
    std::vector<PrefetchRequest> out;
    std::unordered_set<Vpn> touched;

    for (int i = 0; i < 20000; ++i) {
        Vpn vpn = 0x4000 + rng.below(512);
        touched.insert(vpn);
        out.clear();
        irip.onInstrStlbMiss(vpn, 0, rng.below(2), out);

        // Invariant 1: spatial flag set on at most one request
        // unless the ablation is on.
        unsigned spatial = 0;
        for (const auto &r : out)
            spatial += r.spatial;
        ASSERT_LE(spatial, 1u);

        // Invariant 2: every prediction carries a representable
        // distance and correct source page.
        for (const auto &r : out) {
            ASSERT_EQ(r.tag.sourcePage, vpn);
            ASSERT_LE(std::abs(r.tag.distance),
                      PredictionTable::maxDistance);
            ASSERT_EQ(static_cast<PageDelta>(r.vpn),
                      static_cast<PageDelta>(vpn) + r.tag.distance);
        }
    }

    // Invariant 3: no page resides in two prediction tables.
    for (Vpn v : touched)
        ASSERT_FALSE(irip.entryResidesInMultipleTables(v));

    // Invariant 4: population never exceeds capacity.
    for (std::size_t t = 0; t < irip.numTables(); ++t) {
        ASSERT_LE(irip.table(t).population(),
                  irip.table(t).geometry().entries);
    }

    // Invariant 5: every stored slot has a valid distance and a
    // confidence within the 2-bit range.
    for (std::size_t t = 0; t < irip.numTables(); ++t) {
        irip.table(t).forEach([](const PrtEntry &e) {
            unsigned valid = 0;
            for (const auto &s : e.slots) {
                if (!s.valid)
                    continue;
                ++valid;
                ASSERT_NE(s.distance, 0);
                ASSERT_LE(s.confidence,
                          PredictionTable::confidenceMax);
            }
            ASSERT_GT(e.slots.size(), 0u);
            ASSERT_LE(valid, e.slots.size());
        });
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IripProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u));

/** The PB never exceeds capacity and never loses a consumed entry. */
class PbProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PbProperty, ModelMatchesReferenceSemantics)
{
    Rng rng(GetParam());
    PrefetchBuffer pb(16, 2);
    std::unordered_set<Vpn> resident;

    for (int i = 0; i < 5000; ++i) {
        Vpn vpn = rng.below(64);
        if (rng.chance(0.6)) {
            PbEntry e;
            e.pfn = vpn + 1000;
            bool was_resident = pb.contains(vpn);
            pb.insert(vpn, e);
            ASSERT_TRUE(pb.contains(vpn));
            if (!was_resident)
                resident.insert(vpn);
        } else {
            bool expect_hit = pb.contains(vpn);
            PbLookupResult r = pb.lookupAndConsume(vpn, i);
            ASSERT_EQ(r.hit, expect_hit);
            if (r.hit) {
                ASSERT_EQ(r.entry.pfn, vpn + 1000);
            }
            ASSERT_FALSE(pb.contains(vpn));
            resident.erase(vpn);
        }
        // Capacity invariant: at most 16 resident entries.
        unsigned live = 0;
        for (Vpn v = 0; v < 64; ++v)
            live += pb.contains(v);
        ASSERT_LE(live, 16u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

/** Page table: translations are stable, unique and line-grouped. */
class PageTableProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PageTableProperty, RandomMapWalkConsistency)
{
    Rng rng(GetParam());
    PhysMem phys(1 << 20, GetParam());
    PageTable pt(phys);
    std::unordered_map<Vpn, Pfn> model;

    for (int i = 0; i < 4000; ++i) {
        Vpn vpn = rng.below(1 << 16);
        if (rng.chance(0.5)) {
            WalkPath p = pt.walk(vpn, true);
            ASSERT_TRUE(p.mapped);
            auto it = model.find(vpn);
            if (it != model.end())
                ASSERT_EQ(p.pfn, it->second);  // stable translation
            else
                model[vpn] = p.pfn;
        } else {
            WalkPath p = pt.walk(vpn, false);
            ASSERT_EQ(p.mapped, model.count(vpn) == 1);
        }
    }

    // Uniqueness of data frames across all mapped pages.
    std::unordered_set<Pfn> frames;
    for (const auto &[vpn, pfn] : model)
        ASSERT_TRUE(frames.insert(pfn).second);

    // Line-neighbour closure: neighbours of any mapped page are
    // mapped pages of the same aligned 8-group.
    for (const auto &[vpn, pfn] : model) {
        unsigned count = 0;
        auto n = pt.lineNeighbors(vpn, &count);
        ASSERT_GE(count, 1u);
        for (unsigned k = 0; k < count; ++k) {
            ASSERT_EQ(n[k] & ~Vpn{7}, vpn & ~Vpn{7});
            ASSERT_TRUE(model.count(n[k]) == 1 || n[k] == vpn);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableProperty,
                         ::testing::Values(3u, 7u, 9u));
