/**
 * @file
 * Instruction-cache prefetcher interface (Sections 3.5 / 6.5).
 *
 * The baseline system uses a next-line I-cache prefetcher that stays
 * within the current page; modern contest-grade prefetchers cross
 * page boundaries, which makes them implicit iTLB prefetchers with
 * poor timeliness (Finding 5). Prefetchers emit virtual line
 * addresses; the simulator resolves translations (charging prefetch
 * page walks for beyond-page-boundary targets when translation cost
 * is modelled) and schedules the line fills.
 */

#ifndef MORRIGAN_ICACHE_ICACHE_PREFETCHER_HH
#define MORRIGAN_ICACHE_ICACHE_PREFETCHER_HH

#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"

namespace morrigan
{

/** Interface for instruction cache prefetchers. */
class ICachePrefetcher
{
  public:
    virtual ~ICachePrefetcher() = default;

    virtual const char *name() const = 0;

    /**
     * Observe one instruction fetch.
     *
     * @param pc Virtual fetch address.
     * @param l1i_miss Whether the fetch missed in the L1I.
     * @param out Virtual addresses of lines to prefetch.
     */
    virtual void onFetch(Addr pc, bool l1i_miss,
                         std::vector<Addr> &out) = 0;

    /** Whether emitted targets may leave the current page. */
    virtual bool crossesPageBoundaries() const = 0;

    /**
     * Checkpoint support. The default serializes nothing, which is
     * correct for stateless prefetchers (next-line); stateful engines
     * override it.
     */
    virtual void visit(Archive &ar) { (void)ar; }
};

/**
 * The baseline next-line prefetcher of Table 1: prefetches the
 * following line(s) but never crosses a page boundary.
 */
class NextLinePrefetcher : public ICachePrefetcher
{
  public:
    explicit NextLinePrefetcher(unsigned degree = 1)
        : degree_(degree)
    {
    }

    const char *name() const override { return "next-line"; }

    void
    onFetch(Addr pc, bool l1i_miss, std::vector<Addr> &out) override
    {
        (void)l1i_miss;  // runs ahead of the fetch stream always
        for (unsigned d = 1; d <= degree_; ++d) {
            Addr target = (lineOf(pc) + d) << lineShift;
            if (pageOf(target) != pageOf(pc))
                break;  // never cross the page boundary
            out.push_back(target);
        }
    }

    bool crossesPageBoundaries() const override { return false; }

  private:
    unsigned degree_;
};

} // namespace morrigan

#endif // MORRIGAN_ICACHE_ICACHE_PREFETCHER_HH
