/**
 * @file
 * PMP-style merged spatial pattern iSTLB prefetcher.
 *
 * The Page Map Prefetcher line of work (Bera et al.'s PMP and its
 * instruction-side descendants) observes that instruction footprints
 * recur at *region* granularity: when fetch first touches a region,
 * the set of pages it will touch inside that region is strongly
 * predicted by which (PC, trigger-offset) pair opened it. This
 * plugin transplants the idea to the iSTLB miss stream:
 *
 *  - Misses are grouped into aligned 16-page regions. The first miss
 *    in a region is its *trigger*; an accumulation table then records
 *    the region's footprint bitmap until the entry is evicted.
 *  - On eviction, the footprint is rotated so the trigger offset is
 *    position zero and *merged* into a pattern table keyed by a hash
 *    of the trigger PC and offset: present positions bump a 3-bit
 *    saturating counter by 2, absent positions decay it by 1.
 *    Merging -- rather than storing last-seen bitmaps -- is what lets
 *    one entry cover the union of slightly-varying footprints.
 *  - On the next trigger with the same signature, every position
 *    whose counter clears a threshold is prefetched (rotated back
 *    around the new trigger offset, wrapping within the region), with
 *    the spatial flag set so the walk also harvests cache-line
 *    adjacent PTEs.
 *
 * PB-hit credit feeds back into the producing position's counter, so
 * noisy positions fade while verified ones persist.
 */

#ifndef MORRIGAN_CORE_PMP_HH
#define MORRIGAN_CORE_PMP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/assoc_table.hh"
#include "core/tlb_prefetcher.hh"

namespace morrigan
{

/** Static configuration of the PMP-style prefetcher. */
struct PmpParams
{
    /** Pages per spatial region; offsets are log2(regionPages) bits. */
    unsigned regionPages = 16;
    /** Pattern counter value required before a position prefetches. */
    std::uint8_t predictThreshold = 4;
    /** Accumulation table geometry (in-flight regions). */
    std::uint32_t accEntries = 64;
    std::uint32_t accWays = 4;
    /**
     * Pattern table geometry. 352 x (16b tag + 16x3b counters) plus
     * the accumulation table's 64 x (16b tag + 16b footprint + 4b
     * trigger offset + 16b PC signature) = 22528 + 3328 = 25856 bits,
     * inside Morrigan's ~3.8KB (30976-bit) budget.
     */
    std::uint32_t patternEntries = 352;
    std::uint32_t patternWays = 11;
};

/** The PMP-style merged spatial pattern plugin. */
class PmpPrefetcher : public TlbPrefetcher
{
  public:
    /** Discriminates this plugin's PB tags for credit routing. */
    static constexpr std::uint8_t tagTable = 0xf4;

    explicit PmpPrefetcher(const PmpParams &params = {});

    const char *name() const override { return "PMP"; }

    void onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                         std::vector<PrefetchRequest> &out) override;

    void creditPbHit(const PrefetchTag &tag) override;

    void onContextSwitch() override;

    std::size_t storageBits() const override;

    std::uint64_t committedPatterns() const { return commits_; }
    std::uint64_t creditedHits() const { return creditedHits_; }

    void visit(Archive &ar) override;

  private:
    /** One region whose footprint is still being observed. */
    struct AccEntry
    {
        std::uint16_t footprint = 0;
        std::uint8_t triggerOffset = 0;
        std::uint16_t pcSig = 0;
    };
    /** One merged footprint: per-position 3-bit confidence. */
    struct PatternEntry
    {
        std::array<std::uint8_t, 16> counter{};
    };

    std::uint16_t pcSignature(Addr pc) const;
    std::uint64_t patternKey(std::uint16_t pc_sig,
                             std::uint8_t trigger_offset) const;
    void commit(const AccEntry &acc);

    PmpParams params_;
    unsigned offsetBits_;
    SetAssocTable<Vpn, AccEntry> acc_;
    SetAssocTable<std::uint64_t, PatternEntry> pattern_;
    std::uint64_t commits_ = 0;
    std::uint64_t creditedHits_ = 0;
};

class PrefetcherRegistry;

/** Register the pmp plugin. */
void registerPmpPrefetcher(PrefetcherRegistry &reg);

} // namespace morrigan

#endif // MORRIGAN_CORE_PMP_HH
