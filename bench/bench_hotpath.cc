/**
 * @file
 * Hot-path structure microbenchmarks (ROADMAP item 1).
 *
 * Times each structure the hot-loop speed campaign rewrote --
 * SIMD-lane cache tag scans, the Table 1 hierarchy walk, SoA
 * associative-table probes, the flat open-addressing frequency
 * stack, guided Zipf sampling, the flat page-table fast path, and
 * batched workload generation -- in million operations per wall
 * second. Working sets and key streams are sized so the numbers
 * track the structures as the simulator actually drives them
 * (cache-resident tables, skewed keys), not a best-case fit in the
 * host L1.
 *
 * The golden copy in bench/golden/BENCH_Hotpath.json is gated
 * one-sidedly in CI (compare_bench_json.py --min-ratio 0.7) like the
 * throughput grid: only a real regression fails, machine variance is
 * absorbed by the ratio floor.
 */

#include "bench_util.hh"

#include "common/rng.hh"
#include "common/telemetry.hh"
#include "common/zipf.hh"
#include "core/frequency_stack.hh"
#include "mem/cache_model.hh"
#include "mem/memory_hierarchy.hh"
#include "tlb/tlb.hh"
#include "vm/page_table.hh"
#include "workload/server_workload.hh"

using namespace morrigan;
using namespace morrigan::bench;

namespace
{

/** Run @p body(ops) best-of-2 and return Mop/s. The body returns a
 * checksum, which is folded into a volatile sink so the measured
 * loops cannot be optimised away. */
template <typename Body>
double
mops(std::uint64_t ops, Body &&body)
{
    static volatile std::uint64_t sink;
    double best = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        const std::uint64_t t0 = telemetry::nowNs();
        sink = sink + body(ops);
        const std::uint64_t t1 = telemetry::nowNs();
        const double secs = 1e-9 * static_cast<double>(t1 - t0);
        if (secs > 0.0)
            best = std::max(best,
                            static_cast<double>(ops) / secs / 1e6);
    }
    return best;
}

/** L2-like cache (1024 sets x 8 ways) under a Zipf-skewed line
 * stream spanning 4x its capacity: the demand lookup mix
 * accessThrough() produces. */
double
cacheLookupInsert(std::uint64_t ops)
{
    CacheModel cache(CacheParams{"l2", 512 * 1024, 8, 8, 32});
    ZipfSampler zipf(32768, 0.8);
    Rng rng(1, 0x91);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Addr line = 0x100000 + zipf.sample(rng);
        if (cache.lookup(line))
            sum += 1;
        else
            cache.insert(line, (i & 7) == 0);
    }
    return sum;
}

/** Table 1 hierarchy (L1I/L1D, L2 with its stride prefetcher, LLC,
 * DRAM) under Zipf-skewed lines scattered over 4x the LLC, with
 * every fourth reference from a sequential stream, alternating the
 * instruction and data sides: the level walk accessThrough() runs
 * for every simulated fetch and data reference. */
double
memAccessThrough(std::uint64_t ops)
{
    MemoryHierarchyParams params;
    MemoryHierarchy mem(params);
    const Addr universe = 4 * params.llc.sizeBytes / lineBytes;
    ZipfSampler zipf(static_cast<std::size_t>(universe), 0.9);
    Rng rng(6, 0x96);
    Addr stream = 0;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Addr line = (i & 3) == 0
                        ? stream++ % universe
                        : zipf.sample(rng) * 2654435761ull % universe;
        AccessType type =
            (i & 1) ? AccessType::Data : AccessType::Instruction;
        sum += mem.access((0x100000 + line) << lineShift, type).latency;
    }
    return sum;
}

/** STLB-geometry SetAssocTable (128 sets x 12 ways) probe/fill mix. */
double
assocFindInsert(std::uint64_t ops)
{
    SetAssocTable<Vpn, std::uint64_t> table(1536, 12);
    ZipfSampler zipf(6144, 0.8);
    Rng rng(2, 0x92);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Vpn vpn = 0x10000 + zipf.sample(rng);
        if (std::uint64_t *v = table.find(vpn))
            sum += *v;
        else
            table.insert(vpn, i);
    }
    return sum;
}

/** RLFU frequency stack: the recordMiss/frequency mix PRT victim
 * selection generates, with the default phase-reset interval. */
double
freqStackMix(std::uint64_t ops)
{
    FrequencyStack freq(8192);
    ZipfSampler zipf(2048, 0.9);
    Rng rng(3, 0x93);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Vpn vpn = 0x5000 + zipf.sample(rng);
        if ((i & 3) == 0)
            freq.recordMiss(vpn);
        else
            sum += freq.frequency(vpn);
    }
    return sum;
}

/** Guided inverse-CDF Zipf draw at the hot-page population size. */
double
zipfSample(std::uint64_t ops)
{
    ZipfSampler zipf(320, 0.98);
    Rng rng(4, 0x94);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i)
        sum += zipf.sample(rng);
    return sum;
}

/** Flat-map translate() over a mapped 4K range plus a 2MB region,
 * with a miss share -- the mix the prefetch-fill paths issue. */
double
pageTranslate(std::uint64_t ops)
{
    PhysMem phys{1 << 20, 1};
    PageTable pt{phys};
    pt.mapRange(0x10000, 4096);
    for (Vpn v = 0; v < 8; ++v)
        pt.mapLargePage(0x8000000 + v * pagesPerLargePage);
    Rng rng(5, 0x95);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        Vpn vpn;
        switch (rng.below(4)) {
          case 0:
            vpn = 0x8000000 + rng.below(8 * pagesPerLargePage);
            break;
          case 1:
            vpn = 0x20000 + rng.below(4096);  // unmapped
            break;
          default:
            vpn = 0x10000 + rng.below(4096);
        }
        sum += pt.translate(vpn).mapped ? 1 : 0;
    }
    return sum;
}

/** Batched trace generation, records per second. */
double
workloadNextBlock(std::uint64_t ops)
{
    ServerWorkload wl(qmmWorkloadParams(0));
    TraceRecord block[8];
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; i += 8) {
        wl.nextBlock(block, 8);
        sum += block[0].pc;
    }
    return sum;
}

} // namespace

int
main()
{
    BenchScale scale = benchScale(1);
    header("Hotpath",
           "hot-path structure microbenchmarks (M operations/s)",
           scale);

    row("cache-lookup-insert", mops(20'000'000, cacheLookupInsert),
        "Mop/s", "L2-geometry tag scan, Zipf line stream");
    row("mem-access-through", mops(5'000'000, memAccessThrough),
        "Mop/s", "Table 1 hierarchy walk, Zipf + streaming lines");
    row("assoc-find-insert", mops(20'000'000, assocFindInsert),
        "Mop/s", "STLB-geometry SoA probe/fill mix");
    row("freq-stack", mops(20'000'000, freqStackMix), "Mop/s",
        "RLFU flat-hash record/frequency mix");
    row("zipf-sample", mops(20'000'000, zipfSample), "Mop/s",
        "guided inverse-CDF draw, 320 hot pages");
    row("page-translate", mops(20'000'000, pageTranslate), "Mop/s",
        "flat-map 4K/2M translate with miss share");
    row("workload-nextblock", mops(20'000'000, workloadNextBlock),
        "Mop/s", "batched server-workload generation");
    return 0;
}
