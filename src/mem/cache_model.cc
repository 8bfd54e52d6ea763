#include "cache_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace morrigan
{

namespace
{

bool
isPowerOfTwo(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

CacheModel::CacheModel(const CacheParams &params, StatGroup *parent)
    : params_(params),
      stats_(params.name, parent),
      accesses_(&stats_, "accesses", "demand lookups"),
      misses_(&stats_, "misses", "demand lookup misses"),
      prefetchFills_(&stats_, "prefetch_fills", "lines filled by prefetch"),
      evictions_(&stats_, "evictions", "valid lines evicted")
{
    fatal_if(params_.ways == 0, "%s: zero ways", params_.name.c_str());
    std::uint32_t lines =
        params_.sizeBytes / static_cast<std::uint32_t>(lineBytes);
    fatal_if(lines == 0 || lines % params_.ways != 0,
             "%s: size %u not divisible into %u ways",
             params_.name.c_str(), params_.sizeBytes, params_.ways);
    numSets_ = lines / params_.ways;
    fatal_if(!isPowerOfTwo(numSets_),
             "%s: set count %u is not a power of two",
             params_.name.c_str(), numSets_);
    tagStride_ =
        (params_.ways + tagLanes - 1) / tagLanes * tagLanes;
    rowWords_ = tagStride_ + 2 * params_.ways;
    rows_.assign(std::size_t{numSets_} * rowWords_, 0);
}

bool
CacheModel::invalidate(Addr line)
{
    std::uint32_t *row = rowOf(line);
    int w = findWay(row, checkedTag(line));
    if (w < 0)
        return false;
    row[w] = 0;
    setRec(row, w, 0);
    return true;
}

void
CacheModel::flush()
{
    std::fill(rows_.begin(), rows_.end(), 0);
}

void
CacheModel::visit(Archive &ar)
{
    ar.section("cache");
    ar.expect(params_.name, "cache name");
    ar.expect(numSets_, "cache sets");
    ar.expect(params_.ways, "cache ways");
    ar.u64(useClock_);
    // Line addresses, not lane tags, in set-major way-minor order:
    // the format of the original nested layout, byte for byte.
    const bool loading = !ar.saving();
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint32_t *row = rowOf(set);
        for (std::uint32_t way = 0; way < params_.ways; ++way) {
            const int w = static_cast<int>(way);
            bool valid = row[way] != 0;
            ar.b(valid);
            if (!valid) {
                if (loading) {
                    row[way] = 0;
                    setRec(row, w, 0);
                }
                continue;
            }
            std::uint64_t line = row[way] - 1;
            std::uint64_t r = rec(row, w);
            bool pf = (r & 1) != 0;
            std::uint64_t use = r >> 1;
            ar.u64(line);
            ar.b(pf);
            ar.u64(use);
            if (!loading)
                continue;
            if (line >= lineLimit)
                throw SnapshotError(
                    "cache '" + params_.name +
                    "': snapshot line exceeds the 32-bit tag lane");
            row[way] = static_cast<std::uint32_t>(line) + 1;
            setRec(row, w, (use << 1) | (pf ? 1 : 0));
        }
    }
}

} // namespace morrigan
