#include "page_table.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace morrigan
{

PageTable::PageTable(PhysMem &phys, StatGroup *parent,
                     unsigned levels, PageTableFormat format)
    : phys_(phys),
      levels_(levels),
      format_(format),
      stats_("page_table", parent),
      mappedPages_(&stats_, "mapped_pages", "4KB pages mapped"),
      tableFrames_(&stats_, "table_frames",
                   "physical frames used by table nodes")
{
    fatal_if(levels_ < 2 || levels_ > maxPageTableLevels,
             "unsupported page table depth %u", levels_);
    arena_.reserve(64);
    arena_.emplace_back();
    arena_[0].frame = phys_.allocFrame();
    ++tableFrames_;
    if (format_ == PageTableFormat::Hashed) {
        // One bucket (64 bytes) per aligned 8-page group; size the
        // array generously (2^20 buckets = 8M pages coverage) and
        // back it with contiguous physical frames.
        buckets_.assign(1u << 20, ~Vpn{0});
        std::uint64_t frames =
            buckets_.size() * lineBytes / pageBytes;
        hashBase_ = phys_.allocFrame();
        for (std::uint64_t i = 1; i < frames; ++i)
            phys_.allocFrame();
        tableFrames_ += frames;
    }
}

std::int32_t
PageTable::newNode()
{
    arena_.emplace_back();
    arena_.back().frame = phys_.allocFrame();
    ++tableFrames_;
    return static_cast<std::int32_t>(arena_.size() - 1);
}

std::int32_t
PageTable::ensureChild(std::int32_t ni, std::uint32_t idx)
{
    std::int32_t c = arena_[ni].child[idx];
    if (c == noNode) {
        c = newNode();  // may reallocate the arena
        arena_[ni].child[idx] = c;
    }
    return c;
}

std::uint64_t
PageTable::findBucket(Vpn group, bool allocate, unsigned *probes)
{
    std::uint64_t mask = buckets_.size() - 1;
    // Multiplicative hash of the group number.
    std::uint64_t h = (group * 0x9e3779b97f4a7c15ULL) & mask;
    unsigned n = 0;
    for (;;) {
        ++n;
        if (buckets_[h] == group) {
            *probes = n;
            return h;
        }
        if (buckets_[h] == ~Vpn{0}) {
            if (!allocate) {
                *probes = n;
                return buckets_.size();
            }
            buckets_[h] = group;
            *probes = n;
            return h;
        }
        h = (h + 1) & mask;  // linear probing
        panic_if(n > 64, "hashed page table overfull");
    }
}

WalkPath
PageTable::walkHashed(Vpn vpn, bool allocate)
{
    WalkPath path;
    Vpn group = vpn >> 3;
    const Pfn *leaf = map4k_.find(vpn);
    bool mapped = leaf != nullptr;
    if (!mapped && allocate) {
        Pfn pfn = phys_.allocFrame();
        map4k_.insert(vpn, pfn);
        leaf = map4k_.find(vpn);
        ++mappedPages_;
        mapped = true;
        if (observer_)
            observer_->onMap4K(vpn, pfn);
    }

    unsigned probes = 0;
    std::uint64_t bucket = findBucket(group, mapped, &probes);
    hashProbes_ += probes;
    // One memory reference per probed bucket, all within the flat
    // hashed array.
    path.levels = probes;
    std::uint64_t mask = buckets_.size() - 1;
    std::uint64_t h = (group * 0x9e3779b97f4a7c15ULL) & mask;
    for (unsigned p = 0; p < probes && p < maxPageTableLevels; ++p) {
        path.entryAddr[p] = (hashBase_ << pageShift) + h * lineBytes +
                            (vpn & 7) * pteBytes;
        h = (h + 1) & mask;
    }
    if (path.levels > maxPageTableLevels)
        path.levels = maxPageTableLevels;
    (void)bucket;

    if (mapped) {
        path.mapped = true;
        path.pfn = *leaf;
    }
    return path;
}

void
PageTable::mapRange(Vpn start, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        mapPage(start + i);
}

bool
PageTable::mapPage(Vpn vpn)
{
    if (format_ == PageTableFormat::Hashed) {
        if (map4k_.find(vpn))
            return false;
        Pfn pfn = phys_.allocFrame();
        map4k_.insert(vpn, pfn);
        ++mappedPages_;
        unsigned probes = 0;
        findBucket(vpn >> 3, true, &probes);
        if (observer_)
            observer_->onMap4K(vpn, pfn);
        return true;
    }
    std::int32_t ni = 0;
    // Descend through the interior levels, creating nodes.
    for (unsigned depth = 0; depth < levels_ - 1; ++depth) {
        unsigned level = levels_ - 1 - depth;
        auto idx = static_cast<std::uint32_t>(radixIndex(vpn, level));
        ni = ensureChild(ni, idx);
    }
    auto leaf_idx = static_cast<std::uint32_t>(radixIndex(vpn, 0));
    if (arena_[ni].hasLeaf(leaf_idx))
        return false;
    Pfn pfn = phys_.allocFrame();
    arena_[ni].setLeaf(leaf_idx, pfn);
    map4k_.insert(vpn, pfn);
    ++mappedPages_;
    if (observer_)
        observer_->onMap4K(vpn, pfn);
    return true;
}

bool
PageTable::mapLargePage(Vpn vpn)
{
    fatal_if(format_ == PageTableFormat::Hashed,
             "large pages unsupported in the hashed format");
    Vpn base = largePageBase(vpn);
    std::int32_t ni = 0;
    // Descend to the PD level (stop one interior level early).
    for (unsigned depth = 0; depth + 2 < levels_; ++depth) {
        unsigned level = levels_ - 1 - depth;
        auto idx = static_cast<std::uint32_t>(radixIndex(base, level));
        ni = ensureChild(ni, idx);
    }
    auto pd_idx = static_cast<std::uint32_t>(radixIndex(base, 1));
    panic_if(arena_[ni].child[pd_idx] != noNode,
             "2MB mapping over existing 4KB mappings");
    if (arena_[ni].hasLargeLeaf(pd_idx))
        return false;
    // Allocate a contiguous 2MB frame group.
    Pfn first = phys_.allocFrame();
    for (unsigned i = 1; i < pagesPerLargePage; ++i)
        phys_.allocFrame();
    arena_[ni].setLargeLeaf(pd_idx, first);
    map2m_.insert(base, first);
    anyLarge_ = true;
    mappedPages_ += pagesPerLargePage;
    if (observer_)
        observer_->onMap2M(base, first);
    return true;
}

void
PageTable::mapLargeRange(Vpn start, std::uint64_t count_4k)
{
    for (Vpn v = largePageBase(start);
         v < start + count_4k;
         v += pagesPerLargePage) {
        mapLargePage(v);
    }
}

bool
PageTable::isMapped(Vpn vpn) const
{
    return translate(vpn).mapped;
}

const PageTable::Node *
PageTable::findLeafNode(Vpn vpn) const
{
    std::int32_t ni = 0;
    for (unsigned depth = 0; depth < levels_ - 1; ++depth) {
        unsigned level = levels_ - 1 - depth;
        auto idx = static_cast<std::uint32_t>(radixIndex(vpn, level));
        ni = arena_[ni].child[idx];
        if (ni == noNode)
            return nullptr;
    }
    return &arena_[ni];
}

WalkPath
PageTable::walk(Vpn vpn, bool allocate)
{
    if (format_ == PageTableFormat::Hashed)
        return walkHashed(vpn, allocate);
    if (allocate && !isMapped(vpn))
        mapPage(vpn);

    WalkPath path;
    path.levels = levels_;
    std::int32_t ni = 0;
    for (unsigned depth = 0; depth < levels_; ++depth) {
        unsigned level = levels_ - 1 - depth;
        auto idx = static_cast<std::uint32_t>(radixIndex(vpn, level));
        const Node &n = arena_[ni];
        path.entryAddr[depth] =
            (n.frame << pageShift) + idx * pteBytes;
        if (depth == levels_ - 1) {
            if (n.hasLeaf(idx)) {
                path.pfn = n.leaf[idx];
                path.mapped = true;
            }
            break;
        }
        if (level == 1) {
            // A PD entry can be a 2MB leaf (Section 4.3).
            if (n.hasLargeLeaf(idx)) {
                path.pfn = n.largeLeaf[idx] +
                           (vpn & (pagesPerLargePage - 1));
                path.mapped = true;
                path.large = true;
                path.levels = depth + 1;  // walk ends at the PD
                break;
            }
        }
        ni = n.child[idx];
        if (ni == noNode) {
            // Walk terminates early: the interior entry is absent.
            // Entry addresses below this level stay zero and
            // path.mapped stays false.
            break;
        }
    }
    return path;
}

std::array<Vpn, ptesPerLine>
PageTable::lineNeighbors(Vpn vpn, unsigned *count) const
{
    std::array<Vpn, ptesPerLine> out{};
    unsigned n = 0;
    if (format_ == PageTableFormat::Hashed) {
        // Clustered hashing keeps an aligned 8-page group in one
        // bucket line, so the locality property is identical.
        Vpn group_base = vpn & ~static_cast<Vpn>(ptesPerLine - 1);
        for (unsigned i = 0; i < ptesPerLine; ++i) {
            Vpn cand = group_base + i;
            if (map4k_.find(cand))
                out[n++] = cand;
        }
        *count = n;
        return out;
    }
    // The leaf PTE of vpn sits at byte (vpn & 511) * 8 of its PT
    // frame; the 8 PTEs in its 64-byte line cover the aligned group
    // of 8 virtually contiguous pages.
    Vpn group_base = vpn & ~static_cast<Vpn>(ptesPerLine - 1);
    const Node *leaf_node = findLeafNode(vpn);
    if (leaf_node) {
        for (unsigned i = 0; i < ptesPerLine; ++i) {
            Vpn cand = group_base + i;
            auto idx = static_cast<std::uint32_t>(radixIndex(cand, 0));
            if (leaf_node->hasLeaf(idx))
                out[n++] = cand;
        }
    }
    *count = n;
    return out;
}

void
PageTable::visitNode(Archive &ar, std::int32_t ni, Vpn prefix)
{
    // Leaves, then large leaves, then children -- each a count and
    // (index, value) pairs in ascending index order, byte-identical
    // to the sorted-map emission of the unordered_map-based layout.
    // The arena may reallocate while children are loaded, so
    // arena_[ni] is re-resolved after every recursive call.
    const bool loading = !ar.saving();
    if (loading)
        arena_[ni] = Node{};
    ar.u64(arena_[ni].frame);
    auto sparse = [&](auto present, auto each) {
        std::uint64_t n = 0;
        for (std::uint32_t i = 0; !loading && i < radixFanout; ++i)
            n += present(i);
        ar.u64(n);
        std::uint32_t idx = 0;
        for (std::uint64_t k = 0; k < n; ++k, ++idx) {
            while (!loading && !present(idx))
                ++idx;
            ar.u32(idx);
            if (idx >= radixFanout)
                throw SnapshotError("page table index out of range");
            each(idx);
        }
    };
    sparse([&](std::uint32_t i) { return arena_[ni].hasLeaf(i); },
           [&](std::uint32_t idx) {
               Pfn pfn = arena_[ni].leaf[idx];
               ar.u64(pfn);
               if (!loading)
                   return;
               arena_[ni].setLeaf(idx, pfn);
               // Only PT-level nodes carry 4KB leaves, so the
               // accumulated prefix is the full VPN head.
               map4k_.insert((prefix << radixBits) | idx, pfn);
           });
    sparse([&](std::uint32_t i) { return arena_[ni].hasLargeLeaf(i); },
           [&](std::uint32_t idx) {
               Pfn pfn = arena_[ni].largeLeaf[idx];
               ar.u64(pfn);
               if (!loading)
                   return;
               arena_[ni].setLargeLeaf(idx, pfn);
               map2m_.insert(((prefix << radixBits) | idx) << radixBits,
                             pfn);
               anyLarge_ = true;
           });
    sparse([&](std::uint32_t i) { return arena_[ni].child[i] != noNode; },
           [&](std::uint32_t idx) {
               if (loading) {
                   arena_.emplace_back();
                   arena_[ni].child[idx] =
                       static_cast<std::int32_t>(arena_.size() - 1);
               }
               visitNode(ar, arena_[ni].child[idx],
                         (prefix << radixBits) | idx);
           });
}

void
PageTable::visit(Archive &ar)
{
    ar.section("page_table");
    ar.expect(static_cast<std::uint8_t>(format_), "page table format");
    ar.expect(static_cast<std::uint32_t>(levels_), "page table levels");
    const bool loading = !ar.saving();
    if (loading) {
        map4k_.clear(64);
        map2m_.clear(64);
        anyLarge_ = false;
    }
    if (format_ == PageTableFormat::Radix) {
        if (loading)
            arena_.resize(1);
        visitNode(ar, 0, 0);
    } else {
        ar.u64(hashBase_);
        ar.expect(buckets_.size(), "hashed page table size");
        for (Vpn &b : buckets_)
            ar.u64(b);
        // Sorted by VPN so the image is independent of map layout.
        std::vector<std::pair<Vpn, Pfn>> leaves;
        if (!loading) {
            leaves.reserve(map4k_.size());
            map4k_.forEach([&leaves](Vpn vpn, Pfn pfn) {
                leaves.emplace_back(vpn, pfn);
            });
            std::sort(leaves.begin(), leaves.end());
        }
        leaves.resize(ar.count(leaves.size()));
        for (auto &[vpn, pfn] : leaves) {
            ar.u64(vpn);
            ar.u64(pfn);
            if (loading)
                map4k_.insert(vpn, pfn);
        }
    }
    ar.u64(hashProbes_);
}

} // namespace morrigan
