#include "pmp.hh"

#include "common/logging.hh"
#include "core/prefetcher_registry.hh"

namespace morrigan
{

namespace
{

/** Saturating bump of a 3-bit counter. */
inline void
bump3(std::uint8_t &c, int delta)
{
    int v = static_cast<int>(c) + delta;
    c = static_cast<std::uint8_t>(v < 0 ? 0 : (v > 7 ? 7 : v));
}

} // namespace

PmpPrefetcher::PmpPrefetcher(const PmpParams &params)
    : params_(params),
      offsetBits_([&] {
          unsigned bits = 0;
          while ((1u << bits) < params.regionPages)
              ++bits;
          fatal_if((1u << bits) != params.regionPages ||
                       params.regionPages > 16,
                   "PMP region size %u must be a power of two <= 16",
                   params.regionPages);
          return bits;
      }()),
      acc_(params.accEntries, params.accWays),
      pattern_(params.patternEntries, params.patternWays)
{
}

std::uint16_t
PmpPrefetcher::pcSignature(Addr pc) const
{
    // Fold the PC down to 16 bits; instruction PCs vary mostly in
    // their low-order bits, so xor-folding keeps them distinct.
    std::uint64_t v = pc >> 2;
    return static_cast<std::uint16_t>(v ^ (v >> 16) ^ (v >> 32));
}

std::uint64_t
PmpPrefetcher::patternKey(std::uint16_t pc_sig,
                          std::uint8_t trigger_offset) const
{
    return (static_cast<std::uint64_t>(pc_sig) << offsetBits_) |
           trigger_offset;
}

void
PmpPrefetcher::commit(const AccEntry &acc)
{
    // Rotate the observed footprint so the trigger sits at position
    // zero, then merge it into the signature's pattern: +2 for pages
    // the region touched, -1 for pages it did not. The asymmetry
    // biases toward recall -- one quiet traversal should not erase a
    // well-established footprint.
    const unsigned n = params_.regionPages;
    const std::uint64_t key = patternKey(acc.pcSig, acc.triggerOffset);
    PatternEntry *p = pattern_.find(key);
    if (!p) {
        pattern_.insert(key, PatternEntry{});
        p = pattern_.find(key);
    }
    for (unsigned i = 0; i < n; ++i) {
        const unsigned off = (acc.triggerOffset + i) & (n - 1);
        const bool present = (acc.footprint >> off) & 1;
        bump3(p->counter[i], present ? +2 : -1);
    }
    ++commits_;
}

void
PmpPrefetcher::onInstrStlbMiss(Vpn vpn, Addr pc, unsigned tid,
                               std::vector<PrefetchRequest> &out)
{
    (void)tid; // Tables are shared; regions are thread-agnostic.
    const unsigned n = params_.regionPages;
    const Vpn region = vpn >> offsetBits_;
    const std::uint8_t off =
        static_cast<std::uint8_t>(vpn & (n - 1));

    if (AccEntry *e = acc_.find(region)) {
        // The region is already being observed: extend its footprint.
        e->footprint |= static_cast<std::uint16_t>(1u << off);
        return;
    }

    // Trigger access: open an accumulation entry (committing
    // whichever region it displaces) and predict from the merged
    // pattern of this (PC, offset) signature.
    AccEntry fresh;
    fresh.footprint = static_cast<std::uint16_t>(1u << off);
    fresh.triggerOffset = off;
    fresh.pcSig = pcSignature(pc);
    AccEntry evicted;
    if (acc_.insert(region, fresh, nullptr, &evicted))
        commit(evicted);

    const std::uint64_t key = patternKey(fresh.pcSig, off);
    const PatternEntry *p = pattern_.probe(key);
    if (!p)
        return;
    for (unsigned i = 1; i < n; ++i) {
        if (p->counter[i] < params_.predictThreshold)
            continue;
        PrefetchRequest req;
        req.vpn = (region << offsetBits_) |
                  ((off + i) & (n - 1));
        req.spatial = true;
        req.tag.producer = PrefetchProducer::Other;
        req.tag.table = tagTable;
        req.tag.sourcePage = key;
        req.tag.distance = static_cast<PageDelta>(i);
        out.push_back(req);
    }
}

void
PmpPrefetcher::creditPbHit(const PrefetchTag &tag)
{
    if (tag.producer != PrefetchProducer::Other ||
        tag.table != tagTable) {
        return;
    }
    ++creditedHits_;
    // The fetch unit really did reach the predicted position:
    // reinforce it in the producing pattern.
    if (PatternEntry *p = pattern_.probe(tag.sourcePage)) {
        const unsigned i = static_cast<unsigned>(tag.distance);
        if (i < params_.regionPages)
            bump3(p->counter[i], +1);
    }
}

void
PmpPrefetcher::onContextSwitch()
{
    // Footprints and patterns are virtual-address state; a new
    // address space invalidates both.
    acc_.flush();
    pattern_.flush();
}

std::size_t
PmpPrefetcher::storageBits() const
{
    // Accumulation: tag (16b partial) + footprint (16b) + trigger
    // offset (4b) + PC signature (16b). Pattern: tag (16b partial) +
    // 16 x 3b counters.
    return static_cast<std::size_t>(acc_.capacity()) *
               (16 + 16 + 4 + 16) +
           static_cast<std::size_t>(pattern_.capacity()) * (16 + 48);
}

void
PmpPrefetcher::visit(Archive &ar)
{
    ar.section("pmp");
    acc_.visit(ar, [](Archive &a, AccEntry &e) {
        a.u32(e.footprint);
        a.u8(e.triggerOffset);
        a.u32(e.pcSig);
    });
    pattern_.visit(ar, [](Archive &a, PatternEntry &e) {
        for (std::uint8_t &c : e.counter)
            a.u8(c);
    });
    ar.u64(commits_);
    ar.u64(creditedHits_);
}

void
registerPmpPrefetcher(PrefetcherRegistry &reg)
{
    reg.registerPlugin({
        "pmp", "PMP",
        "merged spatial footprints over 16-page regions, keyed by "
        "trigger PC and offset",
        [] { return std::make_unique<PmpPrefetcher>(); },
        /*fuzzable=*/true, /*tournament=*/true});
}

} // namespace morrigan
