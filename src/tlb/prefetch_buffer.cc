#include "prefetch_buffer.hh"

#include "check/invariants.hh"

namespace morrigan
{

PrefetchBuffer::PrefetchBuffer(std::uint32_t entries, Cycle latency,
                               StatGroup *parent)
    : table_(entries, entries),  // fully associative
      latency_(latency),
      stats_("pb", parent),
      lookups_(&stats_, "lookups", "demand lookups"),
      hits_(&stats_, "hits", "demand hits (walk avoided)"),
      misses_(&stats_, "misses", "demand misses (walk required)"),
      pendingHits_(&stats_, "pending_hits",
                   "hits on in-flight prefetches"),
      inserts_(&stats_, "inserts", "prefetched PTEs installed"),
      duplicateInserts_(&stats_, "duplicate_inserts",
                        "inserts dropped as duplicates"),
      uselessEvictions_(&stats_, "useless_evictions",
                        "entries evicted without providing a hit")
{
}

PbLookupResult
PrefetchBuffer::lookupAndConsume(Vpn vpn, Cycle now)
{
    ++lookups_;
    PbLookupResult res;
    PbEntry *entry = table_.probe(vpn);
    if (!entry) {
        ++misses_;
        return res;
    }
    res.hit = true;
    res.pending = entry->readyAt > now;
    res.entry = *entry;
    res.entry.usedOnce = true;
    if (res.pending)
        ++pendingHits_;
    ++hits_;
    ++hitsByProducer_[static_cast<unsigned>(entry->tag.producer)];
    if (obs_)
        obs_->pbEvent(res.pending ? PbObserver::Event::HitPending
                                  : PbObserver::Event::HitReady,
                      *entry, now);
    // The translation moves to the STLB; free the PB slot.
    table_.erase(vpn);
    return res;
}

bool
PrefetchBuffer::contains(Vpn vpn) const
{
    return table_.probe(vpn) != nullptr;
}

const PbEntry *
PrefetchBuffer::peek(Vpn vpn) const
{
    return table_.probe(vpn);
}

bool
PrefetchBuffer::insert(Vpn vpn, const PbEntry &entry,
                       Vpn *evicted_unused)
{
    if (table_.probe(vpn)) {
        ++duplicateInserts_;
        if (obs_)
            obs_->pbEvent(PbObserver::Event::DuplicateInsert, entry, 0);
        return false;
    }
    ++inserts_;
    if (obs_)
        obs_->pbEvent(PbObserver::Event::Installed, entry, 0);
    PbEntry victim;
    Vpn victim_vpn = 0;
    bool evicted = table_.insert(vpn, entry, &victim_vpn, &victim);
    MORRIGAN_CHECK_INVARIANT(1, population() <= capacity(),
                             "prefetch buffer population %u exceeds "
                             "capacity %u after insert of vpn %#llx",
                             population(), capacity(),
                             static_cast<unsigned long long>(vpn));
    if (evicted && !victim.usedOnce) {
        ++uselessEvictions_;
        if (obs_)
            obs_->pbEvent(PbObserver::Event::EvictedUnused, victim, 0);
        if (evicted_unused)
            *evicted_unused = victim_vpn;
        return true;
    }
    return false;
}

void
PrefetchBuffer::insertOpportunistic(Vpn vpn, const PbEntry &entry)
{
    if (table_.probe(vpn)) {
        ++duplicateInserts_;
        if (obs_)
            obs_->pbEvent(PbObserver::Event::DuplicateInsert, entry, 0);
        return;
    }
    if (table_.insertNoEvict(vpn, entry)) {
        ++inserts_;
        MORRIGAN_CHECK_INVARIANT(1, population() <= capacity(),
                                 "prefetch buffer population %u "
                                 "exceeds capacity %u after "
                                 "opportunistic insert of vpn %#llx",
                                 population(), capacity(),
                                 static_cast<unsigned long long>(vpn));
        if (obs_)
            obs_->pbEvent(PbObserver::Event::Installed, entry, 0);
    } else if (obs_) {
        obs_->pbEvent(PbObserver::Event::RejectedNoSlot, entry, 0);
    }
}

void
PrefetchBuffer::flush()
{
    if (obs_) {
        table_.forEach([&](Vpn, const PbEntry &e) {
            obs_->pbEvent(PbObserver::Event::Flushed, e, 0);
        });
    }
    table_.flush();
}

void
PrefetchBuffer::visit(Archive &ar)
{
    ar.section("pb");
    table_.visit(ar, [](Archive &a, PbEntry &e) {
        a.u64(e.pfn);
        a.u64(e.readyAt);
        a.u8(e.tag.producer);
        a.u8(e.tag.table);
        a.u64(e.tag.sourcePage);
        a.i64(e.tag.distance);
        a.b(e.usedOnce);
        a.u64(e.insertSeq);
        a.u64(e.traceId);
    });
    for (std::uint64_t &h : hitsByProducer_)
        ar.u64(h);
}

} // namespace morrigan
