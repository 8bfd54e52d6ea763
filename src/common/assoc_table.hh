/**
 * @file
 * Generic set-associative lookup table with true-LRU replacement.
 *
 * Shared by the TLBs, the prefetch buffer, and the page structure
 * caches. The key is hashed to a set by its low-order bits, matching
 * hardware index functions for page-grained keys.
 *
 * Storage is struct-of-arrays: contiguous key / valid / lastUse /
 * payload lanes indexed by (set * ways + way). A lookup touches only
 * the key and valid lanes -- one short contiguous slice per probe --
 * instead of striding through full Entry records, and the LRU victim
 * scan reduces over the contiguous lastUse slice. Semantics (way
 * scan order, victim choice, LRU updates, snapshot byte order) are
 * identical to the original array-of-structs layout; the
 * differential tests in tests/test_hotpath_diff.cc drive both
 * layouts through identical op sequences to prove it.
 */

#ifndef MORRIGAN_COMMON_ASSOC_TABLE_HH
#define MORRIGAN_COMMON_ASSOC_TABLE_HH

#include <cstdint>
#include <vector>

#include "logging.hh"
#include "snapshot.hh"

namespace morrigan
{

/**
 * A set-associative table mapping KeyT to ValueT.
 *
 * @tparam KeyT Unsigned integral key (e.g. a Vpn).
 * @tparam ValueT Arbitrary copyable payload.
 */
template <typename KeyT, typename ValueT>
class SetAssocTable
{
  public:
    /**
     * @param entries Total entry capacity.
     * @param ways Associativity; entries/ways must be a power of two
     * (use ways == entries for a fully associative table).
     */
    SetAssocTable(std::uint32_t entries, std::uint32_t ways)
        : ways_(ways)
    {
        fatal_if(ways == 0 || entries == 0 || entries % ways != 0,
                 "bad table geometry: %u entries, %u ways",
                 entries, ways);
        numSets_ = entries / ways;
        fatal_if((numSets_ & (numSets_ - 1)) != 0,
                 "set count %u is not a power of two", numSets_);
        setMask_ = numSets_ - 1;
        keys_.assign(entries, KeyT{});
        values_.assign(entries, ValueT{});
        valid_.assign(entries, 0);
        lastUse_.assign(entries, 0);
    }

    /** Look up a key, updating LRU. @return payload or nullptr. */
    ValueT *
    find(KeyT key)
    {
        const std::uint32_t base = baseOf(key);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint32_t i = base + w;
            if (valid_[i] && keys_[i] == key) {
                lastUse_[i] = ++useClock_;
                return &values_[i];
            }
        }
        return nullptr;
    }

    /** Look up without touching LRU state. */
    const ValueT *
    probe(KeyT key) const
    {
        const std::uint32_t base = baseOf(key);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint32_t i = base + w;
            if (valid_[i] && keys_[i] == key)
                return &values_[i];
        }
        return nullptr;
    }

    /** Mutable probe without touching LRU state. */
    ValueT *
    probe(KeyT key)
    {
        const std::uint32_t base = baseOf(key);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint32_t i = base + w;
            if (valid_[i] && keys_[i] == key)
                return &values_[i];
        }
        return nullptr;
    }

    /**
     * Insert (or overwrite) a key, evicting the set's LRU entry when
     * full.
     *
     * @param key Key to install.
     * @param value Payload.
     * @param evicted_key Set to the victim's key if one was evicted.
     * @param evicted_value Set to the victim's payload if evicted.
     * @return true if a valid entry was evicted.
     */
    bool
    insert(KeyT key, ValueT value, KeyT *evicted_key = nullptr,
           ValueT *evicted_value = nullptr)
    {
        return insertImpl(key, std::move(value), false, evicted_key,
                          evicted_value);
    }

    /**
     * Insert only if a free way is available in the key's set; never
     * evicts. @return true if the value was installed.
     */
    bool
    insertNoEvict(KeyT key, ValueT value)
    {
        bool installed = true;
        insertImpl(key, std::move(value), true, nullptr, nullptr,
                   &installed);
        return installed;
    }

  private:
    bool
    insertImpl(KeyT key, ValueT value, bool no_evict,
               KeyT *evicted_key, ValueT *evicted_value,
               bool *installed = nullptr)
    {
        const std::uint32_t base = baseOf(key);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint32_t i = base + w;
            if (valid_[i] && keys_[i] == key) {
                values_[i] = std::move(value);
                lastUse_[i] = ++useClock_;
                return false;
            }
        }
        // Victim: first invalid way, else the minimum-lastUse way
        // (first one wins ties via the strict < comparison).
        std::uint32_t victim = base;
        bool have_victim = false;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint32_t i = base + w;
            if (!valid_[i]) {
                victim = i;
                have_victim = true;
                break;
            }
            if (!have_victim || lastUse_[i] < lastUse_[victim]) {
                victim = i;
                have_victim = true;
            }
        }
        if (no_evict && valid_[victim]) {
            if (installed)
                *installed = false;
            return false;
        }
        const bool evicted = valid_[victim] != 0;
        if (evicted && evicted_key)
            *evicted_key = keys_[victim];
        if (evicted && evicted_value)
            *evicted_value = values_[victim];
        keys_[victim] = key;
        values_[victim] = std::move(value);
        valid_[victim] = 1;
        lastUse_[victim] = ++useClock_;
        if (!evicted)
            ++population_;
        return evicted;
    }

  public:

    /** Remove a key. @return true if it was present. */
    bool
    erase(KeyT key)
    {
        const std::uint32_t base = baseOf(key);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint32_t i = base + w;
            if (valid_[i] && keys_[i] == key) {
                valid_[i] = 0;
                --population_;
                return true;
            }
        }
        return false;
    }

    /** Remove every entry. */
    void
    flush()
    {
        std::fill(valid_.begin(), valid_.end(),
                  static_cast<std::uint8_t>(0));
        population_ = 0;
    }

    /** Apply @p fn to every valid (key, value) pair. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::uint32_t n = numSets_ * ways_;
        for (std::uint32_t i = 0; i < n; ++i)
            if (valid_[i])
                fn(keys_[i], values_[i]);
    }

    std::uint32_t capacity() const { return numSets_ * ways_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t population() const { return population_; }

    /**
     * Save or restore the table in storage order (set-major,
     * way-minor): geometry, LRU clock, and for each way its valid
     * flag plus -- when valid -- key, lastUse and the payload via
     * @p value. Invalid ways carry no payload; loading resets them,
     * which is behaviorally identical (their contents are never read).
     *
     * @param value Callable (Archive&, ValueT&).
     * @throws SnapshotError on a geometry mismatch.
     */
    template <typename VisitV>
    void
    visit(Archive &ar, VisitV &&value)
    {
        ar.section("assoc_table");
        ar.expect(ways_, "assoc table ways");
        ar.expect(numSets_, "assoc table sets");
        ar.u64(useClock_);
        const bool loading = !ar.saving();
        if (loading)
            population_ = 0;
        const std::uint32_t n = numSets_ * ways_;
        for (std::uint32_t i = 0; i < n; ++i) {
            ar.b(valid_[i]);
            if (!valid_[i]) {
                if (loading) {
                    keys_[i] = KeyT{};
                    values_[i] = ValueT{};
                    lastUse_[i] = 0;
                }
                continue;
            }
            ar.u64(keys_[i]);
            ar.u64(lastUse_[i]);
            value(ar, values_[i]);
            if (loading)
                ++population_;
        }
    }

  private:
    std::uint32_t
    baseOf(KeyT key) const
    {
        return (static_cast<std::uint32_t>(key) & setMask_) * ways_;
    }

    std::uint32_t ways_;
    std::uint32_t numSets_;
    std::uint32_t setMask_;
    std::vector<KeyT> keys_;
    std::vector<ValueT> values_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
    std::uint32_t population_ = 0;
};

} // namespace morrigan

#endif // MORRIGAN_COMMON_ASSOC_TABLE_HH
