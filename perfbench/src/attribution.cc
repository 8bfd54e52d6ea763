#include "attribution.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "core/prefetcher_registry.hh"
#include "mem/memory_hierarchy.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "vm/walker.hh"

namespace perfbench
{

using namespace morrigan;

namespace
{

/** Flattens the stats tree into "group.path.counter" -> value. */
class CounterCollector : public StatVisitor
{
  public:
    std::map<std::string, std::uint64_t> values;

    void groupBegin(const StatGroup &g) override { prefix_ = g.path(); }
    void groupEnd(const StatGroup &) override {}
    void visit(const morrigan::Counter &c) override
    {
        values[prefix_ + "." + c.name()] = c.value();
    }
    void visit(const Histogram &) override {}
    void visit(const Distribution &) override {}

    double get(const std::string &name) const
    {
        auto it = values.find(name);
        return it == values.end() ? 0.0
                                  : static_cast<double>(it->second);
    }

  private:
    std::string prefix_;
};

/** Map the workload's regions the way the simulator premaps them. */
void
premap(PageTable &pt, const ServerWorkload &wl)
{
    for (const auto &[base, count] : wl.mappedRegions())
        pt.mapRange(base, count);
    for (const auto &[base, count] : wl.largeMappedRegions())
        pt.mapLargeRange(base, count);
}

/**
 * The per-instruction operations Simulator::run issues for thread 0:
 * one instruction-side lookup + access per new fetch line, one
 * data-side lookup + access per data-carrying instruction.
 */
struct OpStream
{
    std::vector<Addr> va;
    std::vector<Addr> pa;
    std::vector<std::uint8_t> flags;  // isData | large << 1
    static constexpr std::uint8_t data = 1, large = 2;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
spanSelf(const std::map<std::string, SpanLog::Totals> &t,
         const char *name)
{
    auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.selfS;
}

} // anonymous namespace

void
attribute(const ExperimentJob &job, const std::string &work_dir,
          Ledger &ledger, Report &rep)
{
    Scope top("attribution");
    const SimConfig &cfg = job.cfg;
    const std::string key = jobKey(job);

    // --- the representative run: exact counts + wall time. It also
    // publishes its warmup image (a snapshot at the warmup ->
    // measurement boundary) for the round trip below. ---
    const std::string snap = work_dir + "/attribution.snap";
    telemetry::reset();
    Assembly a;
    assemble(job, a);
    a.sim->setWarmupImagePath(snap);
    SimResult r;
    double sim_wall = 0.0;
    {
        Scope s("sim.run");
        Clock::time_point t0 = Clock::now();
        r = a.sim->run();
        sim_wall = secondsSince(t0);
    }
    ledger.settle(key, r, false);
    telemetry::Report tr = telemetry::snapshot();
    CounterCollector stats;
    a.sim->rootStats().visit(stats);
    a = Assembly{};

    // --- snapshot round trip: restore the warmup image into a fresh
    // simulator, which then simulates the whole measured phase; its
    // result must reproduce the uninterrupted run bit for bit. Saving
    // is timed on the restored state, which is the warmup image's. ---
    double save_s = 0.0, restore_s = 0.0;
    const double snap_bytes =
        static_cast<double>(std::filesystem::file_size(snap));
    {
        Assembly b;
        assemble(job, b);
        {
            Scope s("snapshot.restore");
            Clock::time_point t0 = Clock::now();
            b.sim->restoreCheckpoint(snap);
            restore_s = secondsSince(t0);
        }
        {
            Scope s("snapshot.save");
            Clock::time_point t0 = Clock::now();
            b.sim->saveCheckpoint(snap);
            save_s = secondsSince(t0);
        }
        ledger.settle(key, b.sim->run(), false);
    }
    std::filesystem::remove(snap);
    // The warmup image's save ran inside the timed run().
    sim_wall -= save_s;

    // --- workload: regenerate the job's own instruction stream ---
    const std::uint64_t total = jobInstructions(job);
    OpStream ops;
    {
        ServerWorkload wl(job.workload);
        constexpr unsigned block = 8, chunk = 8192 * block;
        std::vector<TraceRecord> buf(chunk);
        Addr last_line = ~Addr{0};
        for (std::uint64_t done = 0; done < total; done += chunk) {
            unsigned n = static_cast<unsigned>(
                std::min<std::uint64_t>(chunk, total - done));
            {
                Scope s("replay.workload");
                for (unsigned i = 0; i < n; i += block)
                    wl.nextBlock(&buf[i], block);
            }
            Scope s("replay.decode");
            for (unsigned i = 0; i < n; ++i) {
                const TraceRecord &rec = buf[i];
                if (lineOf(rec.pc) != last_line) {
                    last_line = lineOf(rec.pc);
                    ops.va.push_back(rec.pc);
                    ops.flags.push_back(0);
                }
                if (rec.hasData) {
                    ops.va.push_back(rec.dataAddr);
                    ops.flags.push_back(OpStream::data);
                }
            }
        }
    }
    const std::size_t n_ops = ops.va.size();

    // Physical addresses from a fresh page table mapped like the
    // simulator's (premapped regions, allocate-on-demand otherwise).
    {
        Scope s("replay.translate");
        ServerWorkload wl(job.workload);
        PhysMem phys(1ULL << 22, 1);
        PageTable pt(phys, nullptr, cfg.pageTableDepth,
                     cfg.pageTableFormat);
        premap(pt, wl);
        ops.pa.resize(n_ops);
        for (std::size_t i = 0; i < n_ops; ++i) {
            Vpn vpn = pageOf(ops.va[i]);
            TranslateResult t = pt.translate(vpn);
            if (!t.mapped) {
                WalkPath p = pt.walk(vpn, true);
                t.pfn = p.pfn;
                t.large = p.large;
            }
            if (t.large)
                ops.flags[i] |= OpStream::large;
            ops.pa[i] = (t.pfn << pageShift) + pageOffset(ops.va[i]);
        }
    }

    auto type_of = [&](std::size_t i) {
        return (ops.flags[i] & OpStream::data) ? AccessType::Data
                                               : AccessType::Instruction;
    };

    // --- tlb: every lookup, with a fill on a full miss ---
    std::vector<std::uint32_t> misses;
    {
        TlbHierarchy tlbs(cfg.tlb);
        Scope s("replay.tlb");
        for (std::size_t i = 0; i < n_ops; ++i) {
            Vpn vpn = pageOf(ops.va[i]);
            AccessType type = type_of(i);
            if (tlbs.lookup(vpn, type).level != TlbHitLevel::Miss)
                continue;
            bool large = ops.flags[i] & OpStream::large;
            Pfn pfn = pageOf(ops.pa[i]);
            tlbs.fill(vpn, large ? pfn - (vpn & 511) : pfn, type, large);
            misses.push_back(static_cast<std::uint32_t>(i));
        }
    }

    // --- mem: every demand access ---
    Cycle mem_sink = 0;
    {
        MemoryHierarchy mem(cfg.mem);
        Scope s("replay.mem");
        for (std::size_t i = 0; i < n_ops; ++i)
            mem_sink += mem.access(ops.pa[i], type_of(i)).latency;
    }

    // --- vm: one demand walk per full TLB miss ---
    {
        ServerWorkload wl(job.workload);
        PhysMem phys(1ULL << 22, 1);
        PageTable pt(phys, nullptr, cfg.pageTableDepth,
                     cfg.pageTableFormat);
        premap(pt, wl);
        MemoryHierarchy mem(cfg.mem);
        PageTableWalker walker(cfg.walker, pt, mem);
        Cycle now = 0;
        Scope s("replay.vm");
        for (std::uint32_t i : misses) {
            WalkResult w =
                walker.walk(pageOf(ops.va[i]), WalkKind::Demand, now, true);
            now = std::max(now, w.completeCycle) + 1;
        }
    }

    // --- core: the prefetcher on every instruction-side miss ---
    std::uint64_t instr_misses = 0;
    {
        std::unique_ptr<TlbPrefetcher> pf =
            job.prefetcherFactory ? job.prefetcherFactory()
                                  : makePrefetcher(job.kind);
        std::vector<PrefetchRequest> reqs;
        Scope s("replay.core");
        for (std::uint32_t i : misses) {
            if (type_of(i) != AccessType::Instruction)
                continue;
            ++instr_misses;
            if (!pf)
                continue;
            reqs.clear();
            pf->onInstrStlbMiss(pageOf(ops.va[i]), ops.va[i], 0, reqs);
        }
    }

    auto t = spans().totals();
    double wl_s = spanSelf(t, "replay.workload");
    double tlb_s = spanSelf(t, "replay.tlb");
    double mem_s = spanSelf(t, "replay.mem");
    double vm_s = spanSelf(t, "replay.vm");
    double core_s = spanSelf(t, "replay.core");
    double instrs = static_cast<double>(total);
    double walks = static_cast<double>(r.demandWalks + r.prefetchWalks);
    double measured = static_cast<double>(r.instructions);
    auto ms = [&](telemetry::Phase p, bool self) {
        const telemetry::PhaseStat &st = tr.phase(p);
        return static_cast<double>(self ? st.selfNs : st.totalNs) * 1e-6;
    };

    double wl_share = wl_s / sim_wall;
    double mem_share = mem_s / sim_wall;
    double tlb_share = tlb_s / sim_wall;

    rep.add("workload.ns_per_instr", wl_s * 1e9 / instrs);
    rep.add("workload.share", wl_share);
    rep.add("mem.ns_per_access", ratio(mem_s * 1e9, double(n_ops)));
    rep.add("mem.share", mem_share);
    rep.add("mem.l1i_mpki", r.l1iMpki);
    rep.add("mem.l1d_mpki",
            ratio(stats.get("sim.mem.l1d.misses") * 1000.0, measured));
    rep.add("mem.l2_mpki",
            ratio(stats.get("sim.mem.l2.misses") * 1000.0, measured));
    rep.add("tlb.ns_per_lookup", ratio(tlb_s * 1e9, double(n_ops)));
    rep.add("tlb.share", tlb_share);
    rep.add("tlb.itlb_mpki", r.itlbMpki);
    rep.add("tlb.istlb_mpki", r.istlbMpki);
    rep.add("tlb.dstlb_mpki", r.dstlbMpki);
    rep.add("tlb.pb_hits", static_cast<double>(r.pbHits));
    rep.add("tlb.pb_hit_ratio",
            ratio(stats.get("sim.pb.hits"), stats.get("sim.pb.inserts")));
    rep.add("vm.ns_per_walk",
            ratio(vm_s * 1e9, static_cast<double>(misses.size())));
    rep.add("vm.walk_ms",
            ms(telemetry::Phase::DemandWalk, false) +
                ms(telemetry::Phase::DataWalk, false) +
                ms(telemetry::Phase::PrefetchWalk, false));
    rep.add("vm.walks", walks);
    rep.add("vm.refs_per_walk",
            ratio(static_cast<double>(r.demandWalkRefs +
                                      r.prefetchWalkRefs),
                  walks));
    rep.add("core.ns_per_miss",
            ratio(core_s * 1e9, static_cast<double>(instr_misses)));
    rep.add("core.engage_ms", ms(telemetry::Phase::PrefetcherEngage, true));
    rep.add("core.prefetch_walks", static_cast<double>(r.prefetchWalks));
    rep.add("core.accuracy",
            ratio(static_cast<double>(r.pbHits),
                  static_cast<double>(r.prefetchWalks)));
    rep.add("core.coverage", r.coverage);
    rep.add("icache.prefetches", static_cast<double>(r.icachePrefetches));
    rep.add("sim.unattributed_share",
            1.0 - wl_share - mem_share - tlb_share);
    rep.add("sim.snapshot_save_ms", save_s * 1e3);
    rep.add("sim.snapshot_restore_ms", restore_s * 1e3);
    rep.add("sim.snapshot_bytes", snap_bytes);

    rep.notes.push_back(csprintf(
        "attribution %s: sim %.3f s, %zu replayed ops (mean memory "
        "latency %.1f cycles), %zu full TLB misses",
        job.workload.name.c_str(), sim_wall, n_ops,
        ratio(static_cast<double>(mem_sink), static_cast<double>(n_ops)),
        misses.size()));
}

} // namespace perfbench
