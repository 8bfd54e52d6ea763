#include "tlb.hh"

namespace morrigan
{

Tlb::Tlb(const TlbParams &params, StatGroup *parent)
    : params_(params),
      table_(params.entries, params.ways),
      stats_(params.name, parent),
      instrAccesses_(&stats_, "instr_accesses",
                     "instruction-side lookups"),
      instrMisses_(&stats_, "instr_misses", "instruction-side misses"),
      dataAccesses_(&stats_, "data_accesses", "data-side lookups"),
      dataMisses_(&stats_, "data_misses", "data-side misses"),
      fills_(&stats_, "fills", "translations installed"),
      crossEvictions_(&stats_, "cross_evictions",
                      "evictions across the i/d boundary")
{
}

bool
Tlb::contains(Vpn vpn) const
{
    return table_.probe(vpn) != nullptr;
}

const TlbEntry *
Tlb::probeEntry(Vpn vpn) const
{
    return table_.probe(vpn);
}

void
Tlb::fill(Vpn vpn, Pfn pfn, AccessType type)
{
    ++fills_;
    TlbEntry victim;
    Vpn victim_vpn = 0;
    bool evicted = table_.insert(vpn, TlbEntry{pfn, type},
                                 &victim_vpn, &victim);
    if (evicted && victim.filledBy != type)
        ++crossEvictions_;
}

void
Tlb::fillLarge(Vpn vpn, Pfn base_pfn, AccessType type)
{
    ++fills_;
    everLarge_ = true;
    TlbEntry victim;
    Vpn victim_vpn = 0;
    TlbEntry entry{base_pfn, type, true};
    bool evicted =
        table_.insert(largeKey(vpn), entry, &victim_vpn, &victim);
    if (evicted && victim.filledBy != type)
        ++crossEvictions_;
}

bool
Tlb::invalidate(Vpn vpn)
{
    return table_.erase(vpn);
}

void
Tlb::flush()
{
    table_.flush();
}

void
Tlb::visit(Archive &ar)
{
    ar.section("tlb");
    ar.expect(params_.name, "TLB");
    table_.visit(ar, [this](Archive &a, TlbEntry &e) {
        a.u64(e.pfn);
        a.u8(e.filledBy);
        a.b(e.large);
        if (e.large)
            everLarge_ = true;
    });
}

} // namespace morrigan
