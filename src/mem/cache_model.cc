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
CacheModel::save(SnapshotWriter &w) const
{
    w.section("cache");
    w.str(params_.name);
    w.u32(numSets_);
    w.u32(params_.ways);
    w.u64(useClock_);
    // Line addresses, not lane tags, in set-major way-minor order:
    // the format of the original nested layout, byte for byte.
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        const std::uint32_t *row = rowOf(set);
        for (std::uint32_t way = 0; way < params_.ways; ++way) {
            bool valid = row[way] != 0;
            w.b(valid);
            if (!valid)
                continue;
            std::uint64_t r = rec(row, static_cast<int>(way));
            w.u64(row[way] - 1);
            w.b((r & 1) != 0);
            w.u64(r >> 1);
        }
    }
}

void
CacheModel::restore(SnapshotReader &r)
{
    r.section("cache");
    std::string name = r.str();
    if (name != params_.name || r.u32() != numSets_ ||
        r.u32() != params_.ways)
        throw SnapshotError("cache '" + params_.name +
                            "': snapshot geometry mismatch ('" + name +
                            "')");
    useClock_ = r.u64();
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint32_t *row = rowOf(set);
        for (std::uint32_t way = 0; way < params_.ways; ++way) {
            const int w = static_cast<int>(way);
            if (!r.b()) {
                row[way] = 0;
                setRec(row, w, 0);
                continue;
            }
            std::uint64_t line = r.u64();
            if (line >= lineLimit)
                throw SnapshotError(
                    "cache '" + params_.name +
                    "': snapshot line exceeds the 32-bit tag lane");
            row[way] = static_cast<std::uint32_t>(line) + 1;
            bool pf = r.b();
            setRec(row, w, (r.u64() << 1) | (pf ? 1 : 0));
        }
    }
}

} // namespace morrigan
