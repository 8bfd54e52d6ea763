#include "psc.hh"

namespace morrigan
{

namespace
{

std::uint64_t
pml4Tag(Vpn vpn)
{
    return vpn >> (3 * radixBits);
}

std::uint64_t
pdpTag(Vpn vpn)
{
    return vpn >> (2 * radixBits);
}

std::uint64_t
pdTag(Vpn vpn)
{
    return vpn >> radixBits;
}

} // anonymous namespace

PageStructureCache::PageStructureCache(const PscParams &params,
                                       StatGroup *parent)
    : params_(params),
      pml4_(params.pml4Entries, params.pml4Entries),
      pdp_(params.pdpEntries, params.pdpEntries),
      pd_(params.pdEntries, params.pdWays),
      stats_("psc", parent),
      lookups_(&stats_, "lookups", "PSC lookups"),
      pdHits_(&stats_, "pd_hits", "hits in the PD cache (1 ref left)"),
      pdpHits_(&stats_, "pdp_hits", "hits in the PDP cache"),
      pml4Hits_(&stats_, "pml4_hits", "hits in the PML4 cache"),
      fullMisses_(&stats_, "full_misses", "misses in all PSC levels")
{
}

unsigned
PageStructureCache::lookupRefsNeeded(Vpn vpn)
{
    ++lookups_;
    if (pd_.find(pdTag(vpn))) {
        ++pdHits_;
        return 1;
    }
    if (pdp_.find(pdpTag(vpn))) {
        ++pdpHits_;
        return 2;
    }
    if (pml4_.find(pml4Tag(vpn))) {
        ++pml4Hits_;
        return 3;
    }
    ++fullMisses_;
    return pageTableLevels;
}

unsigned
PageStructureCache::probeRefsNeeded(Vpn vpn) const
{
    if (pd_.probe(pdTag(vpn)))
        return 1;
    if (pdp_.probe(pdpTag(vpn)))
        return 2;
    if (pml4_.probe(pml4Tag(vpn)))
        return 3;
    return pageTableLevels;
}

void
PageStructureCache::fill(Vpn vpn)
{
    pml4_.insert(pml4Tag(vpn), Empty{});
    pdp_.insert(pdpTag(vpn), Empty{});
    pd_.insert(pdTag(vpn), Empty{});
}

void
PageStructureCache::flush()
{
    pml4_.flush();
    pdp_.flush();
    pd_.flush();
}

void
PageStructureCache::visit(Archive &ar)
{
    ar.section("psc");
    auto noValue = [](Archive &, Empty &) {};
    pml4_.visit(ar, noValue);
    pdp_.visit(ar, noValue);
    pd_.visit(ar, noValue);
}

} // namespace morrigan
