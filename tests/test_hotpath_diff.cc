/**
 * @file
 * Differential tests for the hot-path data-structure rewrites.
 *
 * Each suite embeds a straightforward reference implementation with
 * the semantics of the original (pre-rewrite) layout -- AoS cache
 * sets with an explicit valid flag and first-invalid-else-LRU victim
 * choice, the probe-then-insert memory hierarchy over them, AoS
 * associative sets, an unordered_map frequency stack, full-range
 * inverse-CDF Zipf sampling -- and drives the reference and the
 * optimised production structure through identical
 * pseudo-random operation sequences, comparing every observable
 * result. The production structures claim bit-identical behaviour;
 * these tests are the proof obligation for that claim at the unit
 * level (the fuzzer and figure goldens cover it end to end).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "archive_util.hh"
#include "common/assoc_table.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/zipf.hh"
#include "core/frequency_stack.hh"
#include "mem/cache_model.hh"
#include "mem/memory_hierarchy.hh"
#include "vm/page_table.hh"

using namespace morrigan;

namespace
{

// ---------------------------------------------------------------
// Reference cache: array-of-structs ways, explicit valid flag and
// full 64-bit tag, first-invalid way else true-LRU victim (strict <
// keeps the earliest way on ties), exactly the original CacheModel
// semantics: a demand hit clears the way's prefetched mark, a refresh
// by insert() keeps it. save() writes the original snapshot format.
// ---------------------------------------------------------------
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p) : params_(p)
    {
        std::uint32_t lines = p.sizeBytes / 64;
        numSets_ = lines / p.ways;
        sets_.assign(numSets_, std::vector<Way>(p.ways));
    }

    bool
    lookup(Addr line)
    {
        ++accesses_;
        auto &set = setOf(line);
        for (auto &w : set) {
            if (w.valid && w.tag == line) {
                w.lastUse = ++clock_;
                w.prefetched = false;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    bool
    contains(Addr line) const
    {
        const auto &set = setOf(line);
        for (const auto &w : set)
            if (w.valid && w.tag == line)
                return true;
        return false;
    }

    bool
    insert(Addr line, bool is_prefetch = false)
    {
        auto &set = setOf(line);
        for (auto &w : set) {
            if (w.valid && w.tag == line) {
                w.lastUse = ++clock_;
                return false;
            }
        }
        Way *victim = nullptr;
        for (auto &w : set) {
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (!victim || w.lastUse < victim->lastUse)
                victim = &w;
        }
        bool evicted = victim->valid;
        if (evicted)
            ++evictions_;
        if (is_prefetch)
            ++prefetchFills_;
        victim->valid = true;
        victim->tag = line;
        victim->prefetched = is_prefetch;
        victim->lastUse = ++clock_;
        return evicted;
    }

    bool
    invalidate(Addr line)
    {
        auto &set = setOf(line);
        for (auto &w : set) {
            if (w.valid && w.tag == line) {
                w.valid = false;
                w.lastUse = 0;
                return true;
            }
        }
        return false;
    }

    void
    flush()
    {
        for (auto &set : sets_)
            for (auto &w : set)
                w = Way{};
    }

    void
    save(SnapshotWriter &w) const
    {
        w.section("cache");
        w.str(params_.name);
        w.u32(numSets_);
        w.u32(params_.ways);
        w.u64(clock_);
        for (const auto &set : sets_) {
            for (const auto &way : set) {
                w.b(way.valid);
                if (!way.valid)
                    continue;
                w.u64(way.tag);
                w.b(way.prefetched);
                w.u64(way.lastUse);
            }
        }
    }

    const CacheParams &params() const { return params_; }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t prefetchFills() const { return prefetchFills_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Way
    {
        bool valid = false;
        bool prefetched = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    std::vector<Way> &setOf(Addr line)
    {
        return sets_[line & (numSets_ - 1)];
    }
    const std::vector<Way> &setOf(Addr line) const
    {
        return sets_[line & (numSets_ - 1)];
    }

    CacheParams params_;
    std::uint32_t numSets_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t clock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t prefetchFills_ = 0;
    std::uint64_t evictions_ = 0;
};

// Deterministic op mix over a line universe a few times larger than
// the cache so hits, misses, evictions and refreshes all occur.
void
driveCacheOps(CacheModel &opt, RefCache &ref, std::uint64_t seed,
              int ops, bool with_flush = true)
{
    Rng rng(seed, 0x11);
    const Addr universe =
        4 * ref.params().sizeBytes / 64;  // 4x capacity in lines

    for (int i = 0; i < ops; ++i) {
        Addr line = rng.below(static_cast<std::uint32_t>(universe));
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2:
            ASSERT_EQ(opt.lookup(line), ref.lookup(line))
                << "lookup diverged at op " << i;
            break;
          case 3:
          case 4: {
            bool pf = rng.chance(0.3);
            ASSERT_EQ(opt.insert(line, pf), ref.insert(line, pf))
                << "insert diverged at op " << i;
            break;
          }
          case 5:
          case 6:
            ASSERT_EQ(opt.contains(line), ref.contains(line))
                << "contains diverged at op " << i;
            break;
          default:
            if (rng.chance(0.02) && with_flush) {
                opt.flush();
                ref.flush();
            } else {
                ASSERT_EQ(opt.invalidate(line), ref.invalidate(line))
                    << "invalidate diverged at op " << i;
            }
        }
    }
}

void
driveCacheDiff(const CacheParams &params, std::uint64_t seed,
               int ops)
{
    CacheModel opt(params);
    RefCache ref(params);
    driveCacheOps(opt, ref, seed, ops);
    EXPECT_EQ(opt.demandAccesses(), ref.accesses());
    EXPECT_EQ(opt.demandMisses(), ref.misses());
}

std::string
savedBytes(CacheModel &c)
{
    return savePayload(c);
}

std::string
savedBytes(const RefCache &c)
{
    SnapshotWriter w;
    c.save(w);
    return w.payload();
}

/** Offset of the first byte where two snapshot payloads differ, or
 * -1 when they are equal: a short failure message for payloads of
 * many kilobytes. */
std::ptrdiff_t
firstDiff(const std::string &a, const std::string &b)
{
    auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    if (ia == a.end() && ib == b.end())
        return -1;
    return ia - a.begin();
}

// ---------------------------------------------------------------
// Reference associative table: AoS entries per set, identical way
// scan order and first-invalid-else-LRU victim policy.
// ---------------------------------------------------------------
class RefAssoc
{
  public:
    RefAssoc(std::uint32_t entries, std::uint32_t ways)
        : ways_(ways), numSets_(entries / ways),
          sets_(numSets_, std::vector<Entry>(ways))
    {
    }

    std::uint32_t *
    find(std::uint64_t key)
    {
        auto &set = setOf(key);
        for (auto &e : set) {
            if (e.valid && e.key == key) {
                e.lastUse = ++clock_;
                return &e.value;
            }
        }
        return nullptr;
    }

    const std::uint32_t *
    probe(std::uint64_t key) const
    {
        const auto &set = setOf(key);
        for (const auto &e : set)
            if (e.valid && e.key == key)
                return &e.value;
        return nullptr;
    }

    bool
    insert(std::uint64_t key, std::uint32_t value,
           std::uint64_t *evicted_key, std::uint32_t *evicted_value)
    {
        auto &set = setOf(key);
        for (auto &e : set) {
            if (e.valid && e.key == key) {
                e.value = value;
                e.lastUse = ++clock_;
                return false;
            }
        }
        Entry *victim = nullptr;
        for (auto &e : set) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
        bool evicted = victim->valid;
        if (evicted) {
            *evicted_key = victim->key;
            *evicted_value = victim->value;
        }
        victim->valid = true;
        victim->key = key;
        victim->value = value;
        victim->lastUse = ++clock_;
        if (!evicted)
            ++population_;
        return evicted;
    }

    bool
    insertNoEvict(std::uint64_t key, std::uint32_t value)
    {
        auto &set = setOf(key);
        for (auto &e : set) {
            if (e.valid && e.key == key) {
                e.value = value;
                e.lastUse = ++clock_;
                return true;
            }
        }
        for (auto &e : set) {
            if (!e.valid) {
                e.valid = true;
                e.key = key;
                e.value = value;
                e.lastUse = ++clock_;
                ++population_;
                return true;
            }
        }
        return false;
    }

    bool
    erase(std::uint64_t key)
    {
        auto &set = setOf(key);
        for (auto &e : set) {
            if (e.valid && e.key == key) {
                e.valid = false;
                --population_;
                return true;
            }
        }
        return false;
    }

    std::uint32_t population() const { return population_; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t key = 0;
        std::uint32_t value = 0;
        std::uint64_t lastUse = 0;
    };

    std::vector<Entry> &setOf(std::uint64_t key)
    {
        return sets_[static_cast<std::uint32_t>(key) &
                     (numSets_ - 1)];
    }
    const std::vector<Entry> &setOf(std::uint64_t key) const
    {
        return sets_[static_cast<std::uint32_t>(key) &
                     (numSets_ - 1)];
    }

    std::uint32_t ways_;
    std::uint32_t numSets_;
    std::vector<std::vector<Entry>> sets_;
    std::uint64_t clock_ = 0;
    std::uint32_t population_ = 0;
};

void
driveAssocDiff(std::uint32_t entries, std::uint32_t ways,
               std::uint64_t seed, int ops)
{
    SetAssocTable<std::uint64_t, std::uint32_t> opt(entries, ways);
    RefAssoc ref(entries, ways);
    Rng rng(seed, 0x22);
    const std::uint32_t universe = 4 * entries;

    for (int i = 0; i < ops; ++i) {
        std::uint64_t key = rng.below(universe);
        std::uint32_t value = rng.next32();
        switch (rng.below(6)) {
          case 0:
          case 1: {
            std::uint32_t *a = opt.find(key);
            std::uint32_t *b = ref.find(key);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "find diverged at op " << i;
            if (a) {
                ASSERT_EQ(*a, *b);
            }
            break;
          }
          case 2: {
            const auto &copt = opt;
            const std::uint32_t *a = copt.probe(key);
            const std::uint32_t *b = ref.probe(key);
            ASSERT_EQ(a != nullptr, b != nullptr)
                << "probe diverged at op " << i;
            if (a) {
                ASSERT_EQ(*a, *b);
            }
            break;
          }
          case 3: {
            std::uint64_t ek_a = 0, ek_b = 0;
            std::uint32_t ev_a = 0, ev_b = 0;
            bool ea = opt.insert(key, value, &ek_a, &ev_a);
            bool eb = ref.insert(key, value, &ek_b, &ev_b);
            ASSERT_EQ(ea, eb) << "insert diverged at op " << i;
            if (ea) {
                ASSERT_EQ(ek_a, ek_b);
                ASSERT_EQ(ev_a, ev_b);
            }
            break;
          }
          case 4:
            ASSERT_EQ(opt.insertNoEvict(key, value),
                      ref.insertNoEvict(key, value))
                << "insertNoEvict diverged at op " << i;
            break;
          default:
            ASSERT_EQ(opt.erase(key), ref.erase(key))
                << "erase diverged at op " << i;
        }
        ASSERT_EQ(opt.population(), ref.population());
    }
}

} // namespace

TEST(HotpathDiff, CacheModelMatchesAosReference)
{
    // L1-like: 64 sets x 8 ways (one full AVX2 row per set).
    driveCacheDiff(CacheParams{"l1", 32 * 1024, 8, 4, 8}, 1, 200000);
    // LLC-like: 16 ways (two AVX2 rows per set).
    driveCacheDiff(CacheParams{"llc", 256 * 1024, 16, 10, 16}, 2,
                   200000);
    // Ways not a multiple of the SIMD width exercise row padding.
    driveCacheDiff(CacheParams{"odd", 24 * 1024, 6, 4, 8}, 3, 200000);
}

TEST(HotpathDiff, CacheModelSaveMatchesReferenceFormat)
{
    // Warmup images and checkpoints written before the row layout
    // hold the AoS state in this byte format; a driven cache must
    // write the same bytes, and those bytes must restore into a cache
    // that keeps behaving like the reference.
    const CacheParams geometries[] = {
        {"l1", 32 * 1024, 8, 4, 8},
        {"llc", 256 * 1024, 16, 10, 16},
        {"odd", 24 * 1024, 6, 4, 8},
    };
    std::uint64_t seed = 21;
    for (const CacheParams &params : geometries) {
        CacheModel opt(params);
        RefCache ref(params);
        driveCacheOps(opt, ref, seed, 100000, /*with_flush=*/false);
        const std::string bytes = savedBytes(ref);
        ASSERT_EQ(firstDiff(savedBytes(opt), bytes), -1) << params.name;

        CacheModel restored(params);
        loadPayload(restored, bytes);
        EXPECT_EQ(firstDiff(savedBytes(restored), bytes), -1)
            << params.name;
        driveCacheOps(restored, ref, seed + 1, 50000);
        EXPECT_EQ(firstDiff(savedBytes(restored), savedBytes(ref)), -1)
            << params.name;
        ++seed;
    }
}

TEST(HotpathDiff, CacheModelTagEdgeLines)
{
    // Tag lanes store line + 1 with 0 as the empty way, so line 0
    // must not read as empty and the highest legal line (its lane
    // reads all ones) must behave like any other.
    const CacheParams params{"edge", 8 * 64, 2, 3, 4};  // 4 sets x 2
    const Addr top = 0xFFFFFFFEull;
    CacheModel opt(params);
    RefCache ref(params);

    EXPECT_FALSE(opt.contains(0));
    EXPECT_FALSE(opt.contains(top));
    EXPECT_FALSE(opt.invalidate(0));
    EXPECT_EQ(opt.lookup(0), ref.lookup(0));
    EXPECT_EQ(opt.insert(0), ref.insert(0));
    EXPECT_EQ(opt.insert(top, true), ref.insert(top, true));
    EXPECT_TRUE(opt.contains(0));
    EXPECT_TRUE(opt.contains(top));
    EXPECT_FALSE(opt.contains(top - 4));  // same set, never filled
    EXPECT_EQ(opt.lookup(top), ref.lookup(top));
    // Fill both sets past capacity: LRU victims around the edges.
    for (Addr line : {Addr{4}, Addr{8}, top - 4, top, top - 8, Addr{0}})
        EXPECT_EQ(opt.insert(line, line > 8), ref.insert(line, line > 8))
            << std::hex << line;
    for (Addr line : {Addr{0}, Addr{4}, Addr{8}, top - 8, top - 4, top})
        EXPECT_EQ(opt.contains(line), ref.contains(line))
            << std::hex << line;
    EXPECT_EQ(opt.invalidate(0), ref.invalidate(0));
    EXPECT_EQ(opt.invalidate(top), ref.invalidate(top));
    EXPECT_EQ(opt.insert(top, true), ref.insert(top, true));

    const std::string bytes = savedBytes(ref);
    ASSERT_EQ(firstDiff(savedBytes(opt), bytes), -1);
    CacheModel restored(params);
    loadPayload(restored, bytes);
    EXPECT_EQ(firstDiff(savedBytes(restored), bytes), -1);
    EXPECT_TRUE(restored.contains(top));
    EXPECT_FALSE(restored.contains(0));

    // A snapshot line the 32-bit lane cannot hold is refused.
    RefCache wide(params);
    wide.insert(top + 1);
    CacheModel target(params);
    EXPECT_THROW(loadPayload(target, savedBytes(wide)), SnapshotError);
}

TEST(HotpathDiffDeathTest, LineBeyondTagLaneIsFatal)
{
    CacheModel c(CacheParams{"edge", 8 * 64, 2, 3, 4});
    EXPECT_DEATH(c.lookup(0xFFFFFFFFull), "exceeds the 32-bit tag");
}

namespace
{

/** Flattens a stat tree's counters to "<group>.<counter>" keys. */
class CounterMap : public StatVisitor
{
  public:
    void
    groupBegin(const StatGroup &g) override
    {
        path_.push_back(g.name());
    }
    void groupEnd(const StatGroup &) override { path_.pop_back(); }
    void
    visit(const Counter &c) override
    {
        values[path_.back() + "." + c.name()] = c.value();
    }
    void visit(const Histogram &) override {}
    void visit(const Distribution &) override {}

    std::map<std::string, std::uint64_t> values;

  private:
    std::vector<std::string> path_;
};

// ---------------------------------------------------------------
// Reference hierarchy: the original MemoryHierarchy code over
// RefCache -- contains() before every prefetch fill, a separate
// insert() after every demand miss.
// ---------------------------------------------------------------
class RefHierarchy
{
  public:
    explicit RefHierarchy(const MemoryHierarchyParams &p)
        : params_(p), l1i_(p.l1i), l1d_(p.l1d), l2_(p.l2),
          llc_(p.llc), dram_(p.dram, &dramStats_)
    {
    }

    MemAccessResult
    access(Addr paddr, AccessType type)
    {
        return accessThrough(lineOf(paddr),
                             type == AccessType::Instruction ? l1i_
                                                             : l1d_);
    }

    MemAccessResult
    walkerAccess(Addr paddr)
    {
        return accessThrough(lineOf(paddr), l1d_);
    }

    bool
    instructionLineInL1(Addr paddr) const
    {
        return l1i_.contains(lineOf(paddr));
    }

    Cycle
    prefetchInstructionLine(Addr paddr)
    {
        Addr line = lineOf(paddr);
        if (l1i_.contains(line))
            return 0;
        Cycle latency = l2_.params().latency;
        if (!l2_.contains(line)) {
            latency += llc_.params().latency;
            if (!llc_.contains(line)) {
                latency += dram_.access(paddr);
                llc_.insert(line, true);
            }
            l2_.insert(line, true);
        }
        return latency;
    }

    void
    commitInstructionPrefetch(Addr paddr)
    {
        l1i_.insert(lineOf(paddr), true);
    }

    void
    save(SnapshotWriter &w)
    {
        w.section("mem_hierarchy");
        l1i_.save(w);
        l1d_.save(w);
        l2_.save(w);
        llc_.save(w);
        Archive ar(w);
        dram_.visit(ar);
    }

    /** Counter values keyed "<group>.<counter>" like the production
     * stat tree. */
    std::map<std::string, std::uint64_t>
    counters() const
    {
        std::map<std::string, std::uint64_t> out;
        for (const RefCache *c : {&l1i_, &l1d_, &l2_, &llc_}) {
            const std::string &n = c->params().name;
            out[n + ".accesses"] = c->accesses();
            out[n + ".misses"] = c->misses();
            out[n + ".prefetch_fills"] = c->prefetchFills();
            out[n + ".evictions"] = c->evictions();
        }
        CounterMap dram;
        dramStats_.visit(dram);
        out.insert(dram.values.begin(), dram.values.end());
        out["mem.l2_prefetches"] = l2PrefetchIssued_;
        return out;
    }

  private:
    MemAccessResult
    accessThrough(Addr line, RefCache &l1)
    {
        MemAccessResult res;
        res.latency = l1.params().latency;
        if (l1.lookup(line)) {
            res.servedBy = MemLevel::L1;
            return res;
        }
        res.latency += l2_.params().latency;
        if (l2_.lookup(line)) {
            res.servedBy = MemLevel::L2;
            l1.insert(line);
            return res;
        }
        maybeL2Prefetch(line);
        res.latency += llc_.params().latency;
        if (llc_.lookup(line)) {
            res.servedBy = MemLevel::LLC;
            l2_.insert(line);
            l1.insert(line);
            return res;
        }
        res.latency += dram_.access(line << lineShift);
        res.servedBy = MemLevel::Dram;
        llc_.insert(line);
        l2_.insert(line);
        l1.insert(line);
        return res;
    }

    void
    maybeL2Prefetch(Addr missed_line)
    {
        if (!params_.l2Prefetcher)
            return;
        for (std::uint32_t d = 1; d <= params_.l2PrefetchDepth; ++d) {
            Addr line = missed_line + d;
            if (!l2_.contains(line)) {
                l2_.insert(line, true);
                ++l2PrefetchIssued_;
            }
        }
    }

    MemoryHierarchyParams params_;
    RefCache l1i_;
    RefCache l1d_;
    RefCache l2_;
    RefCache llc_;
    StatGroup dramStats_{"ref"};
    DramModel dram_;
    std::uint64_t l2PrefetchIssued_ = 0;
};

// Drives the production hierarchy and the reference through one
// access stream: Zipf-skewed hot lines scattered over a universe 4x
// the LLC, interleaved with sequential streams, on the I-side, the
// D-side and the walker path, plus instruction prefetches that commit
// later. @p base_line offsets every line (to reach the top of the tag
// lane).
void
driveHierarchyDiff(const MemoryHierarchyParams &params,
                   std::uint64_t seed, Addr base_line, int ops)
{
    StatGroup root("root");
    MemoryHierarchy opt(params, &root);
    RefHierarchy ref(params);
    Rng rng(seed, 0x77);
    const Addr universe = 4 * params.llc.sizeBytes / 64;
    ZipfSampler hot(static_cast<std::size_t>(universe), 0.9);
    Addr stream = 0;
    std::deque<Addr> inflight;

    auto nextPaddr = [&]() {
        Addr line;
        if (rng.chance(0.3)) {
            if (rng.chance(0.01))
                stream = rng.below(static_cast<std::uint32_t>(universe));
            line = stream++ % universe;
        } else {
            line = hot.sample(rng) * 2654435761ull % universe;
        }
        return ((base_line + line) << lineShift) | rng.below(64);
    };
    auto checkCounters = [&](int op) {
        CounterMap got;
        root.visit(got);
        ASSERT_EQ(got.values, ref.counters()) << "after op " << op;
    };

    for (int i = 0; i < ops; ++i) {
        const std::uint32_t kind = rng.below(100);
        if (kind < 85) {
            Addr paddr = nextPaddr();
            MemAccessResult a, b;
            if (kind < 40) {
                a = opt.access(paddr, AccessType::Instruction);
                b = ref.access(paddr, AccessType::Instruction);
            } else if (kind < 70) {
                a = opt.access(paddr, AccessType::Data);
                b = ref.access(paddr, AccessType::Data);
            } else {
                a = opt.walkerAccess(paddr);
                b = ref.walkerAccess(paddr);
            }
            ASSERT_EQ(a.latency, b.latency) << "access diverged at op " << i;
            ASSERT_EQ(a.servedBy, b.servedBy)
                << "access diverged at op " << i;
        } else if (kind < 93) {
            Addr paddr = nextPaddr();
            ASSERT_EQ(opt.prefetchInstructionLine(paddr),
                      ref.prefetchInstructionLine(paddr))
                << "prefetch diverged at op " << i;
            inflight.push_back(paddr);
        } else if (kind < 98) {
            if (!inflight.empty()) {
                opt.commitInstructionPrefetch(inflight.front());
                ref.commitInstructionPrefetch(inflight.front());
                inflight.pop_front();
            }
        } else {
            Addr paddr = nextPaddr();
            ASSERT_EQ(opt.instructionLineInL1(paddr),
                      ref.instructionLineInL1(paddr))
                << "L1I probe diverged at op " << i;
        }
        if (i % 50000 == 0)
            checkCounters(i);
    }
    checkCounters(ops);

    // The hierarchy's snapshot is byte-identical to the original
    // format, so images written before the row layout restore.
    SnapshotWriter wr;
    ref.save(wr);
    EXPECT_EQ(firstDiff(savePayload(opt), wr.payload()), -1);
}

} // namespace

TEST(HotpathDiff, MemoryHierarchyMatchesReference)
{
    // Table 1: 8-way L1s and L2 (one AVX2 tag vector per set), a
    // 16-way LLC (two).
    MemoryHierarchyParams table1;
    ASSERT_TRUE(table1.l2Prefetcher);
    driveHierarchyDiff(table1, 1, 0x40000, 400000);

    // Padded rows: 6-way L1s and 12-way L2/LLC leave idle tag lanes
    // in every row. Lines sit at the top of the 32-bit tag lane.
    MemoryHierarchyParams padded;
    padded.l1i = CacheParams{"l1i", 24 * 1024, 6, 4, 8};
    padded.l1d = CacheParams{"l1d", 24 * 1024, 6, 4, 8};
    padded.l2 = CacheParams{"l2", 384 * 1024, 12, 8, 32};
    padded.llc = CacheParams{"llc", 1536 * 1024, 12, 10, 64};
    padded.dram = DramParams{6, 6 * 1024, 36};
    padded.l2PrefetchDepth = 3;
    const Addr universe = 4 * padded.llc.sizeBytes / 64;
    driveHierarchyDiff(padded, 2,
                       0xFFFFFFFEull - (universe - 1) -
                           padded.l2PrefetchDepth,
                       400000);
}

TEST(HotpathDiff, AssocTableMatchesAosReference)
{
    driveAssocDiff(64, 4, 1, 100000);    // iTLB-like
    driveAssocDiff(1536, 12, 2, 100000); // STLB-like
    driveAssocDiff(64, 64, 3, 100000);   // fully associative
}

TEST(HotpathDiff, ZipfGuidedSearchMatchesFullRange)
{
    const std::pair<std::size_t, double> cases[] = {
        {320, 0.98}, {64, 0.9}, {777, 1.21}, {1, 0.5}};
    for (auto [n, theta] : cases) {
        ZipfSampler z(n, theta);
        // Rebuild the CDF exactly as the sampler's constructor does
        // (same expression order, so identical doubles), then answer
        // every draw with the original full-range lower_bound.
        std::vector<double> cdf(n);
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            cdf[i] = acc;
        }
        for (std::size_t i = 0; i < n; ++i)
            cdf[i] /= acc;

        Rng a(7, 0x33), b(7, 0x33);
        for (int i = 0; i < 200000; ++i) {
            std::size_t got = z.sample(a);
            double u = b.uniform();
            auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            std::size_t want = it == cdf.end()
                                   ? n - 1
                                   : static_cast<std::size_t>(
                                         it - cdf.begin());
            ASSERT_EQ(got, want)
                << "guided sample diverged at draw " << i << " (n="
                << n << ", theta=" << theta << ")";
        }
    }
}

TEST(HotpathDiff, FrequencyStackMatchesMapReference)
{
    for (std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{64},
                                   std::uint64_t{8192}}) {
        FrequencyStack opt(interval);
        std::unordered_map<Vpn, std::uint32_t> ref;
        std::uint64_t sinceReset = 0, resets = 0;
        Rng rng(interval + 5, 0x44);

        for (int i = 0; i < 100000; ++i) {
            Vpn vpn = rng.below(512);
            if (rng.chance(0.9)) {
                opt.recordMiss(vpn);
                ++ref[vpn];
                if (interval != 0 && ++sinceReset >= interval) {
                    ref.clear();
                    sinceReset = 0;
                    ++resets;
                }
            } else if (rng.chance(0.02)) {
                opt.clear();
                ref.clear();
                sinceReset = 0;
            } else {
                auto it = ref.find(vpn);
                std::uint32_t want =
                    it == ref.end() ? 0 : it->second;
                ASSERT_EQ(opt.frequency(vpn), want)
                    << "frequency diverged at op " << i;
            }
            ASSERT_EQ(opt.trackedPages(), ref.size());
        }
        EXPECT_EQ(opt.resets(), resets);
    }
}

namespace
{

/** Mirrors mapping creation into plain maps for cross-checking
 * translate(). */
class MirrorObserver : public PageTableObserver
{
  public:
    void onMap4K(Vpn vpn, Pfn pfn) override { map4k[vpn] = pfn; }
    void onMap2M(Vpn base_vpn, Pfn base_pfn) override
    {
        map2m[base_vpn] = base_pfn;
    }

    std::unordered_map<Vpn, Pfn> map4k;
    std::unordered_map<Vpn, Pfn> map2m;
};

} // namespace

TEST(HotpathDiff, PageTableTranslateMatchesMirror)
{
    PhysMem phys{1 << 20, 1};
    PageTable pt{phys};
    MirrorObserver mirror;
    pt.setObserver(&mirror);

    pt.mapRange(0x10000, 700);
    pt.mapLargePage(0x8000000);
    pt.mapLargePage(0x8000000 + pagesPerLargePage);
    Rng rng(9, 0x55);
    for (int i = 0; i < 300; ++i)
        pt.mapPage(0x20000 + rng.below(4096));

    auto check = [&](Vpn vpn) {
        TranslateResult got = pt.translate(vpn);
        auto it4 = mirror.map4k.find(vpn);
        if (it4 != mirror.map4k.end()) {
            EXPECT_TRUE(got.mapped);
            EXPECT_FALSE(got.large);
            EXPECT_EQ(got.pfn, it4->second);
            return;
        }
        auto it2 = mirror.map2m.find(largePageBase(vpn));
        if (it2 != mirror.map2m.end()) {
            EXPECT_TRUE(got.mapped);
            EXPECT_TRUE(got.large);
            EXPECT_EQ(got.pfn,
                      it2->second + (vpn & (pagesPerLargePage - 1)));
            return;
        }
        EXPECT_FALSE(got.mapped);
    };

    for (Vpn vpn = 0x10000 - 8; vpn < 0x10000 + 708; ++vpn)
        check(vpn);
    for (Vpn vpn = 0x8000000 - 8;
         vpn < 0x8000000 + 2 * pagesPerLargePage + 8; ++vpn)
        check(vpn);
    for (int i = 0; i < 5000; ++i)
        check(0x20000 + rng.below(8192));
}
