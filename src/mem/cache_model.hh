/**
 * @file
 * Tag-only set-associative cache model.
 *
 * The reproduction needs hit/miss behaviour and per-level service
 * latencies, not data movement, so the cache stores tags only. LRU
 * replacement, true-LRU via a per-set sequence counter. MSHR capacity
 * is recorded for configuration fidelity (Table 1) and exposed to the
 * timing model, which uses it to bound the data-side overlap window.
 *
 * Hot-path layout: every set is one contiguous row of a single flat
 * array. The row opens with the set's 32-bit tag lanes, padded to the
 * SIMD width, and continues with one 64-bit recency word per way. A
 * probe, its LRU update and a victim choice therefore touch one span
 * of two or three host cache lines instead of two rows in two
 * distant arrays, and most references walk two or three levels.
 *
 * A tag lane stores line + 1, so 0 means an empty way: construction
 * and flush() are one zero fill, and padding lanes (also 0) can never
 * match. The model is physically addressed and physical memory tops
 * out well below 2^32 lines, so the encoding fits 32 bits
 * (checkedTag enforces it). A whole set is one or two vector compares
 * under AVX2 and a short scalar scan otherwise.
 *
 * Recency words pack (lastUse << 1) | prefetched: clock values are
 * unique, so comparing packed words orders ways exactly like
 * comparing lastUse, and an empty way's 0 always loses -- victim
 * selection is a single min-scan that lands on the first empty way
 * when one exists and on the true LRU way otherwise, exactly the
 * first-invalid-else-LRU policy. The words sit at 8-byte-aligned
 * offsets of the 32-bit array and are read and written through
 * memcpy, which compiles to plain loads and stores without
 * type-punning.
 */

#ifndef MORRIGAN_MEM_CACHE_MODEL_HH
#define MORRIGAN_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace morrigan
{

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    Cycle latency = 4;          //!< Hit latency contribution.
    std::uint32_t mshrs = 8;    //!< Miss status holding registers.
};

/**
 * A set-associative, LRU, tag-only cache.
 *
 * Lines are identified by line address (byte address >> lineShift).
 */
class CacheModel
{
  public:
    CacheModel(const CacheParams &params, StatGroup *parent = nullptr);

    /**
     * Demand lookup. Updates LRU on hit and counts stats. Does NOT
     * install on miss; callers install explicitly once the fill
     * returns, which lets prefetch fills be distinguished.
     *
     * Defined inline: this and insert() run a couple of times per
     * simulated instruction, and inlining the short lane scan into
     * the hierarchy's traversal loop is worth real wall clock.
     *
     * @param line Line address.
     * @return true on hit.
     */
    bool
    lookup(Addr line)
    {
        ++accesses_;
        std::uint32_t *row = rowOf(line);
        int w = findWay(row, checkedTag(line));
        if (w >= 0) {
            setRec(row, w, ++useClock_ << 1);
            return true;
        }
        ++misses_;
        return false;
    }

    /** Probe without LRU update or stats side effects. */
    bool
    contains(Addr line) const
    {
        return findWay(rowOf(line), checkedTag(line)) >= 0;
    }

    /**
     * Install a line, evicting the LRU way if the set is full.
     *
     * @param line Line address.
     * @param is_prefetch Fill caused by a prefetch rather than demand.
     * @return true if a valid line was evicted.
     */
    bool
    insert(Addr line, bool is_prefetch = false)
    {
        std::uint32_t *row = rowOf(line);
        std::uint32_t tag = checkedTag(line);

        // Refresh in place if already resident (e.g. racing fills),
        // keeping the way's prefetched bit, as before.
        int hit = findWay(row, tag);
        if (hit >= 0) {
            setRec(row, hit, (++useClock_ << 1) | (rec(row, hit) & 1));
            return false;
        }

        // Min-recency victim scan (padding lanes are excluded: they
        // would otherwise masquerade as empty ways).
        int victim = 0;
        std::uint64_t bestUse = rec(row, 0);
        for (int w = 1; w < static_cast<int>(params_.ways); ++w) {
            std::uint64_t r = rec(row, w);
            if (r < bestUse) {
                victim = w;
                bestUse = r;
            }
        }

        bool evicted = row[victim] != 0;
        if (evicted)
            ++evictions_;
        if (is_prefetch)
            ++prefetchFills_;

        row[victim] = tag;
        setRec(row, victim, (++useClock_ << 1) | (is_prefetch ? 1 : 0));
        return evicted;
    }

    /**
     * Hint the host to pull this line's set row into its own cache.
     * No architectural effect; callers issue it for the levels a
     * traversal is about to scan so the row fetches overlap instead
     * of serialising one level at a time.
     */
    void
    prefetchSet(Addr line) const
    {
        const char *row = reinterpret_cast<const char *>(rowOf(line));
        const std::uint32_t bytes = rowWords_ * 4;
        for (std::uint32_t off = 0; off < bytes; off += 64)
            __builtin_prefetch(row + off);
        // Rows need not start on a host line boundary, so the last
        // byte can sit one line further on.
        __builtin_prefetch(row + bytes - 1);
    }

    /** Drop a line if present. @return true if it was present. */
    bool invalidate(Addr line);

    /** Drop every line. */
    void flush();

    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return numSets_; }

    void visit(Archive &ar);

    std::uint64_t demandAccesses() const { return accesses_.value(); }
    std::uint64_t demandMisses() const { return misses_.value(); }

  private:
    /** Tag-lane padding so a row's tags are whole SIMD vectors. */
    static constexpr std::uint32_t tagLanes = 8;

    /** First line address whose tag, line + 1, overflows the 32-bit
     * lane. */
    static constexpr Addr lineLimit = ~std::uint32_t{0};

    /** First word of the row of the set holding @p line. */
    std::size_t
    rowStart(Addr line) const
    {
        return std::size_t{static_cast<std::uint32_t>(line) &
                           (numSets_ - 1)} *
               rowWords_;
    }
    std::uint32_t *rowOf(Addr line) { return rows_.data() + rowStart(line); }
    const std::uint32_t *
    rowOf(Addr line) const
    {
        return rows_.data() + rowStart(line);
    }

    /** Encode a line address as its tag lane, line + 1, rejecting
     * lines the 32-bit lane cannot represent (impossible for
     * physical lines; the check is one never-taken branch). */
    static std::uint32_t
    checkedTag(Addr line)
    {
        fatal_if(line >= lineLimit,
                 "cache line address 0x%llx exceeds the 32-bit tag "
                 "lane",
                 static_cast<unsigned long long>(line));
        return static_cast<std::uint32_t>(line) + 1;
    }

    /** Recency word of way @p w in @p row. */
    std::uint64_t
    rec(const std::uint32_t *row, int w) const
    {
        std::uint64_t v = 0;
        std::memcpy(&v, row + tagStride_ + 2 * w, sizeof v);
        return v;
    }
    void
    setRec(std::uint32_t *row, int w, std::uint64_t v)
    {
        std::memcpy(row + tagStride_ + 2 * w, &v, sizeof v);
    }

    /** Way holding @p tag in @p row, or -1. At most one way can
     * match: insert() refreshes instead of duplicating. */
    int
    findWay(const std::uint32_t *row, std::uint32_t tag) const
    {
#if defined(__AVX2__)
        const __m256i needle =
            _mm256_set1_epi32(static_cast<int>(tag));
        for (std::uint32_t w = 0; w < tagStride_; w += tagLanes) {
            __m256i lanes = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + w));
            int m = _mm256_movemask_epi8(
                _mm256_cmpeq_epi32(lanes, needle));
            if (m)
                return static_cast<int>(w) +
                       (__builtin_ctz(static_cast<unsigned>(m)) >> 2);
        }
        return -1;
#else
        for (std::uint32_t w = 0; w < params_.ways; ++w)
            if (row[w] == tag)
                return static_cast<int>(w);
        return -1;
#endif
    }

    CacheParams params_;
    std::uint32_t numSets_;
    /** Tag lanes per row: ways rounded up to the SIMD width. */
    std::uint32_t tagStride_;
    /** 32-bit words per row: tagStride_ tag lanes, then two per
     * way for the recency words. */
    std::uint32_t rowWords_;
    /** numSets_ rows, set-major. Tag lanes hold line + 1 (0: empty
     * way; padding lanes stay 0 forever); recency words hold
     * (lastUse << 1) | prefetched (0: empty way). */
    std::vector<std::uint32_t> rows_;
    std::uint64_t useClock_ = 0;

    StatGroup stats_;
    Counter accesses_;
    Counter misses_;
    Counter prefetchFills_;
    Counter evictions_;
};

} // namespace morrigan

#endif // MORRIGAN_MEM_CACHE_MODEL_HH
