/**
 * @file
 * Abstract interface every STLB prefetcher implements.
 *
 * Following the common TLB-prefetching strategy (Section 2.1 /
 * Figure 1), a prefetcher is engaged on every instruction STLB miss
 * -- whether the miss was resolved from the prefetch buffer or via a
 * demand page walk -- and emits zero or more prefetch candidates. The
 * simulator owns the mechanics around the candidates: duplicate
 * filtering against the PB, non-faulting prefetch page walks, PB
 * fills, and the free cache-line-adjacent PTE installation for
 * requests whose @c spatial flag is set.
 */

#ifndef MORRIGAN_CORE_TLB_PREFETCHER_HH
#define MORRIGAN_CORE_TLB_PREFETCHER_HH

#include <cstddef>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"
#include "tlb/prefetch_buffer.hh"

namespace morrigan
{

/** One prefetch candidate produced by a prefetcher. */
struct PrefetchRequest
{
    /** Page whose translation should be prefetched. */
    Vpn vpn = 0;
    /**
     * Exploit page table locality for this request: at the end of its
     * prefetch page walk, the PTEs sharing the target PTE's 64-byte
     * cache line are installed into the PB for free.
     */
    bool spatial = false;
    /** Producer/slot identification for confidence credit. */
    PrefetchTag tag{};
};

/** Interface for instruction STLB prefetchers. */
class TlbPrefetcher
{
  public:
    virtual ~TlbPrefetcher() = default;

    /** Human-readable identifier for reports. */
    virtual const char *name() const = 0;

    /**
     * Engage the prefetcher on an instruction STLB miss.
     *
     * @param vpn The page that missed.
     * @param pc Program counter of the triggering fetch (used by
     * PC-indexed prefetchers such as ASP).
     * @param tid Hardware thread on SMT cores; prefetchers keep
     * per-thread history registers but share table state.
     * @param out Candidates are appended here.
     */
    virtual void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                                 std::vector<PrefetchRequest> &out) = 0;

    /**
     * A prefetch this engine produced provided a PB hit that
     * eliminated a demand page walk; credit the producing slot
     * (IRIP increments the slot's confidence counter).
     */
    virtual void creditPbHit(const PrefetchTag &tag) { (void)tag; }

    /** Flush any per-address-space state (context switch). */
    virtual void onContextSwitch() {}

    /** Hardware storage footprint in bits (ISO-storage studies). */
    virtual std::size_t storageBits() const { return 0; }

    /**
     * Cumulative RLFU frequency-stack resets, for prefetchers built
     * on a frequency stack (IRIP/Morrigan). The interval sampler
     * reports the per-epoch delta, making phase-change adaptation
     * (Figure 14) visible over time; stateless engines return 0.
     */
    virtual std::uint64_t frequencyStackResets() const { return 0; }

    /**
     * Save or restore all mutable prediction state as part of a
     * simulator snapshot. Stateless engines inherit this no-op;
     * engines with tables, history or RNG state override it. The
     * simulator snapshot embeds name() and the restore side verifies
     * it. PrefetcherRegistry.EveryPluginResumesWarm in
     * tests/test_prefetcher_registry.cc checks that every registered
     * engine resumes warm.
     */
    virtual void visit(Archive &ar) { (void)ar; }
};

} // namespace morrigan

#endif // MORRIGAN_CORE_TLB_PREFETCHER_HH
