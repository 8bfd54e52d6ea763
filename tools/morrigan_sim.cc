/**
 * @file
 * Command-line simulator driver.
 *
 * The ChampSim-style front end for the library: pick a workload, a
 * prefetcher and any configuration overrides, run, and get the full
 * result record (optionally with the component statistics tree and
 * the miss-stream characterisation).
 *
 * Examples:
 *   morrigan_sim --workload qmm_07 --prefetcher morrigan
 *   morrigan_sim --workload java:cassandra --prefetcher mp \
 *                --instructions 10000000
 *   morrigan_sim --workload qmm_00 --smt-with qmm_01 \
 *                --prefetcher morrigan --smt-scaled
 *   morrigan_sim --workload qmm_03 --prefetcher morrigan \
 *                --pt-depth 5 --stats --miss-stream
 */

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "common/snapshot.hh"

#include "check/invariants.hh"
#include "common/build_info.hh"
#include "common/fault_fs.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "core/morrigan.hh"
#include "core/prefetcher_registry.hh"
#include "sim/experiment.hh"
#include "sim/run_pool.hh"
#include "sim/simulator.hh"
#include "workload/workload_factory.hh"

using namespace morrigan;

namespace
{

void
usage()
{
    std::printf(
        "morrigan_sim -- instruction TLB prefetching simulator\n"
        "\n"
        "  --workload NAME       qmm_NN, spec_NN, or java:NAME\n"
        "  --smt-with NAME       colocate a second workload (SMT)\n"
        "  --prefetcher SPEC     none, a registered prefetcher, or\n"
        "                        a 'a+b' hybrid composition\n"
        "  --smt-scaled          double Morrigan's tables (SMT)\n"
        "  --warmup N            warmup instructions "
        "(default 1000000)\n"
        "  --instructions N      measured instructions "
        "(default 4000000)\n"
        "  --pt-depth N          page table depth 4|5\n"
        "  --asap                enable ASAP walk acceleration\n"
        "  --perfect-istlb       idealised instruction STLB\n"
        "  --p2tlb               prefetch into the STLB (no PB)\n"
        "  --icache NAME         none|next-line|fnl-mma\n"
        "  --no-icache-xlat      free translations for I-cache "
        "prefetches\n"
        "  --prefetch-on-hits    engage prefetcher on STLB hits too\n"
        "  --ctx-switch N        context switch every N "
        "instructions\n"
        "  --pb-entries N        prefetch buffer capacity\n"
        "  --check               cross-check every demand "
        "translation against the golden reference model "
        "(MORRIGAN_CHECK=1 does the same)\n"
        "  --check-level N       check level 1|2 (2 adds heavyweight "
        "structural invariants; implies --check)\n"
        "  --inject N            corrupt every Nth instruction "
        "demand walk (checker validation)\n"
        "  --stats               dump the component statistics tree\n"
        "  --stats-json FILE     write the versioned JSON stats "
        "document\n"
        "  --trace FILE          JSONL prefetch lifecycle event log\n"
        "  --interval N          sample metrics every N measured "
        "instructions\n"
        "  --interval-out FILE   stream interval epochs to FILE\n"
        "  --interval-csv        CSV instead of JSONL for "
        "--interval-out\n"
        "  --miss-stream         print the miss-stream "
        "characterisation\n"
        "  --baseline            also run the no-prefetch baseline "
        "and report speedup\n"
        "  --jobs N              parallel worker count (default: "
        "MORRIGAN_JOBS, then hardware)\n"
        "  --sweep               run the whole QMM suite (baseline "
        "+ prefetcher) and report speedups\n"
        "  --isolate             sandbox every batch job in its own "
        "process (contains crashes/OOM; MORRIGAN_ISOLATE=1)\n"
        "  --job-timeout SECS    per-job watchdog deadline under "
        "--isolate (default derived from the instruction budget; "
        "ignored with a warning without --isolate; "
        "MORRIGAN_JOB_TIMEOUT)\n"
        "  --retries N           retry failed jobs (and timed-out "
        "ones under --isolate) up to N times with backoff "
        "(default 1; MORRIGAN_JOB_RETRIES)\n"
        "  --journal FILE        append per-job outcomes to FILE "
        "and resume completed jobs from it (MORRIGAN_JOURNAL)\n"
        "  --checkpoint FILE     autosave a snapshot to FILE and, "
        "when FILE already holds a valid snapshot, resume the run "
        "from it (single-run mode)\n"
        "  --checkpoint-every N  snapshot autosave interval in "
        "instructions (default 1000000; MORRIGAN_CHECKPOINT_EVERY)\n"
        "  --checkpoint-dir DIR  batch mode: per-job checkpoints in "
        "DIR so killed/timed-out jobs resume on retry "
        "(MORRIGAN_CHECKPOINT_DIR)\n"
        "  --warmup-cache DIR    reuse warmed-up snapshots keyed by "
        "(workload, prefetcher, system) across batch jobs "
        "(MORRIGAN_WARMUP_CACHE)\n"
        "  --telemetry           collect self-profiling phase "
        "timers/counters; adds a telemetry section (with "
        "instrs_per_sec) to --stats-json\n"
        "  --trace-events FILE   record every span and export Chrome "
        "trace-event JSON to FILE at exit (chrome://tracing, "
        "Perfetto); implies --telemetry\n"
        "  --progress MS         periodic campaign progress line on "
        "stderr, at most every MS ms (batch modes; "
        "MORRIGAN_PROGRESS_MS)\n"
        "  --version             print build identity (git SHA, "
        "compiler, flags) and exit\n"
        "\n"
        "registered prefetchers (compose with '+'):\n");
    for (const PrefetcherPlugin &p :
         PrefetcherRegistry::global().plugins()) {
        std::printf("  %-14s %-18s %s\n", p.name.c_str(),
                    p.displayName.c_str(), p.description.c_str());
    }
}

/**
 * Validated numeric option parsing: fatal()s on junk, trailing
 * garbage, or out-of-range values instead of silently using 0 the
 * way bare atoi would.
 */
std::uint64_t
parseU64(const std::string &flag, const char *s,
         std::uint64_t min_value, std::uint64_t max_value)
{
    if (!s || *s == '\0' || *s == '-')
        fatal("%s: '%s' is not a non-negative integer",
              flag.c_str(), s ? s : "");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0')
        fatal("%s: trailing junk in '%s'", flag.c_str(), s);
    if (errno == ERANGE || v < min_value || v > max_value)
        fatal("%s: %s out of range [%llu, %llu]", flag.c_str(), s,
              static_cast<unsigned long long>(min_value),
              static_cast<unsigned long long>(max_value));
    return v;
}

void
printResult(const SimResult &r)
{
    std::printf("workload            %s\n", r.workload.c_str());
    std::printf("prefetcher          %s\n", r.prefetcher.c_str());
    std::printf("instructions        %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("cycles              %.0f\n", r.cycles);
    std::printf("IPC                 %.4f\n", r.ipc);
    std::printf("L1I MPKI            %.2f\n", r.l1iMpki);
    std::printf("I-TLB MPKI          %.2f\n", r.itlbMpki);
    std::printf("iSTLB MPKI          %.2f\n", r.istlbMpki);
    std::printf("dSTLB MPKI          %.2f\n", r.dstlbMpki);
    std::printf("iSTLB cycle share   %.1f%%\n",
                r.istlbCycleFraction * 100.0);
    std::printf("PB hits             %llu (IRIP %llu / SDP %llu / "
                "I$ %llu)\n",
                static_cast<unsigned long long>(r.pbHits),
                static_cast<unsigned long long>(r.pbHitsIrip),
                static_cast<unsigned long long>(r.pbHitsSdp),
                static_cast<unsigned long long>(r.pbHitsICache));
    std::printf("miss coverage       %.1f%%\n", r.coverage * 100.0);
    std::printf("demand walks        %llu (instr %llu)\n",
                static_cast<unsigned long long>(r.demandWalks),
                static_cast<unsigned long long>(r.demandWalksInstr));
    std::printf("demand walk refs    %llu (instr %llu)\n",
                static_cast<unsigned long long>(r.demandWalkRefs),
                static_cast<unsigned long long>(
                    r.demandWalkRefsInstr));
    std::printf("prefetch walks      %llu (refs %llu)\n",
                static_cast<unsigned long long>(r.prefetchWalks),
                static_cast<unsigned long long>(r.prefetchWalkRefs));
    std::printf("walk latency        instr %.0f / data %.0f "
                "cycles\n",
                r.meanDemandWalkLatencyInstr,
                r.meanDemandWalkLatencyData);
    if (r.contextSwitches > 0)
        std::printf("context switches    %llu\n",
                    static_cast<unsigned long long>(
                        r.contextSwitches));
}

/** Key run-level results as a JSON object. */
void
writeResultJson(std::ostream &os, const SimResult &r)
{
    json::Writer w(os);
    w.beginObject();
    w.kv("instructions", r.instructions);
    w.kv("cycles", r.cycles);
    w.kv("ipc", r.ipc);
    w.kv("l1i_mpki", r.l1iMpki);
    w.kv("itlb_mpki", r.itlbMpki);
    w.kv("istlb_mpki", r.istlbMpki);
    w.kv("dstlb_mpki", r.dstlbMpki);
    w.kv("istlb_misses", r.istlbMisses);
    w.kv("pb_hits", r.pbHits);
    w.kv("pb_hits_irip", r.pbHitsIrip);
    w.kv("pb_hits_sdp", r.pbHitsSdp);
    w.kv("pb_hits_icache", r.pbHitsICache);
    w.kv("coverage", r.coverage);
    w.kv("istlb_cycle_fraction", r.istlbCycleFraction);
    w.kv("demand_walks", r.demandWalks);
    w.kv("demand_walks_instr", r.demandWalksInstr);
    w.kv("demand_walk_refs", r.demandWalkRefs);
    w.kv("prefetch_walks", r.prefetchWalks);
    w.kv("prefetch_walk_refs", r.prefetchWalkRefs);
    w.kv("mean_demand_walk_latency_instr",
         r.meanDemandWalkLatencyInstr);
    w.kv("context_switches", r.contextSwitches);
    w.endObject();
}

/**
 * The full --stats-json document: schema header, run identity, key
 * results, the whole StatGroup tree, and -- when enabled -- the
 * prefetch lifecycle summary and the interval epoch ring.
 */
void
writeStatsJsonDocument(std::ostream &os, Simulator &sim,
                       const SimResult &r, double run_seconds)
{
    json::Writer w(os);
    w.beginObject();
    w.kv("schema", "morrigan-stats");
    w.kv("version", json::statsSchemaVersion);
    // Deterministic per binary, so safe in byte-compared documents.
    w.key("build_info").rawValue([](std::ostream &o) {
        json::Writer bw(o);
        writeBuildInfoJson(bw);
    });
    w.kv("workload", r.workload);
    w.kv("prefetcher", r.prefetcher);
    w.key("result").rawValue(
        [&](std::ostream &o) { writeResultJson(o, r); });
    w.key("stats").rawValue(
        [&](std::ostream &o) { sim.rootStats().writeJson(o); });
    if (sim.tracer())
        w.key("trace_summary").rawValue([&](std::ostream &o) {
            sim.tracer()->writeSummaryJson(o);
        });
    if (sim.intervalSampler())
        w.key("intervals").rawValue([&](std::ostream &o) {
            sim.intervalSampler()->writeRingJson(o);
        });
    // Wall-clock figures are nondeterministic, so this section only
    // appears when the user armed --telemetry: byte-comparing
    // documents (the CI resume-identity check) stays valid by
    // default.
    if (telemetry::enabled())
        w.key("telemetry").rawValue([&](std::ostream &o) {
            json::Writer tw(o);
            tw.beginObject();
            tw.kv("run_seconds", run_seconds);
            tw.kv("instrs_per_sec",
                  run_seconds > 0.0
                      ? static_cast<double>(r.instructions) /
                            run_seconds
                      : 0.0);
            tw.key("report").rawValue([](std::ostream &ro) {
                json::Writer rw(ro);
                telemetry::writeReportJson(rw,
                                           telemetry::snapshot());
            });
            tw.endObject();
        });
    // Batch jobs (--baseline) that failed permanently: degraded
    // campaigns must say what is missing.
    if (FailureManifest::global().size() > 0)
        w.key("failures").rawValue([&](std::ostream &o) {
            FailureManifest::global().writeJson(o);
        });
    w.endObject();
    os << '\n';
}

/** Export the span buffer as Chrome trace-event JSON (all exits). */
void
exportTraceEvents(const std::string &path)
{
    if (path.empty())
        return;
    std::string err;
    if (!telemetry::writeChromeTrace(path, &err))
        warn("cannot write --trace-events file: %s", err.c_str());
    else
        std::fprintf(stderr,
                     "trace events written to %s (load in "
                     "chrome://tracing or Perfetto)\n",
                     path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Die on a MORRIGAN_FAULT_FS typo before any work happens, not
    // at the first journal/snapshot write (or never).
    faultfs::initFromEnv();
    std::string workload_name = "qmm_00";
    std::string smt_name;
    std::string prefetcher_name = "morrigan";
    std::string icache_name = "next-line";
    SimConfig cfg;
    cfg.warmupInstructions = 1'000'000;
    cfg.simInstructions = 4'000'000;
    bool smt_scaled = false;
    bool dump_stats = false;
    bool miss_stream = false;
    bool with_baseline = false;
    bool sweep = false;
    std::string stats_json_path;
    std::string trace_path;
    std::string interval_out_path;
    std::uint64_t interval = 0;
    bool interval_csv = false;
    std::string checkpoint_path;
    bool telemetry_on = false;
    std::string trace_events_path;
    std::uint64_t checkpoint_every = 1'000'000;
    if (const char *e = std::getenv("MORRIGAN_CHECKPOINT_EVERY"))
        checkpoint_every = parseU64("MORRIGAN_CHECKPOINT_EVERY", e, 1,
                                    std::uint64_t{1} << 40);
    // Campaign resilience policy: env defaults, overridden by the
    // flags below, installed process-wide for every batch.
    SupervisorOptions sup = Supervisor::defaultOptions();

    // MORRIGAN_CHECK=1 is the environment spelling of --check. The
    // env is resolved here, at the CLI boundary, so SimConfig (and
    // with it every experiment cache key) stays a pure function of
    // the flags.
    int check_level = 0;
    if (const char *e = std::getenv("MORRIGAN_CHECK"))
        if (*e != '\0' && std::string(e) != "0")
            check_level = 1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--version") {
            std::printf("%s\n", buildInfoLine().c_str());
            return 0;
        } else if (arg == "--telemetry") {
            telemetry_on = true;
        } else if (arg == "--trace-events") {
            trace_events_path = next();
            telemetry_on = true;
        } else if (arg == "--progress") {
            sup.progressEveryMs =
                parseU64(arg, next(), 1, 3'600'000);
        } else if (arg == "--workload") {
            workload_name = next();
        } else if (arg == "--smt-with") {
            smt_name = next();
        } else if (arg == "--prefetcher") {
            prefetcher_name = next();
        } else if (arg == "--smt-scaled") {
            smt_scaled = true;
        } else if (arg == "--warmup") {
            cfg.warmupInstructions =
                parseU64(arg, next(), 0, std::uint64_t{1} << 40);
        } else if (arg == "--instructions") {
            cfg.simInstructions =
                parseU64(arg, next(), 1, std::uint64_t{1} << 40);
        } else if (arg == "--pt-depth") {
            cfg.pageTableDepth =
                static_cast<unsigned>(parseU64(arg, next(), 4, 5));
        } else if (arg == "--asap") {
            cfg.walker.asap = true;
        } else if (arg == "--perfect-istlb") {
            cfg.perfectIstlb = true;
        } else if (arg == "--p2tlb") {
            cfg.prefetchIntoStlb = true;
        } else if (arg == "--icache") {
            icache_name = next();
        } else if (arg == "--no-icache-xlat") {
            cfg.icacheTranslationCost = false;
        } else if (arg == "--prefetch-on-hits") {
            cfg.prefetchOnStlbHits = true;
        } else if (arg == "--ctx-switch") {
            cfg.contextSwitchInterval =
                parseU64(arg, next(), 0, std::uint64_t{1} << 40);
        } else if (arg == "--pb-entries") {
            cfg.pbEntries = static_cast<std::uint32_t>(
                parseU64(arg, next(), 1, 1u << 20));
        } else if (arg == "--check") {
            check_level = std::max(check_level, 1);
        } else if (arg == "--check-level") {
            check_level = static_cast<int>(
                parseU64(arg, next(), 1, 2));
        } else if (arg == "--inject") {
            cfg.injectWalkerBugPeriod =
                parseU64(arg, next(), 1, std::uint64_t{1} << 40);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--interval") {
            interval =
                parseU64(arg, next(), 1, std::uint64_t{1} << 40);
        } else if (arg == "--interval-out") {
            interval_out_path = next();
        } else if (arg == "--interval-csv") {
            interval_csv = true;
        } else if (arg == "--miss-stream") {
            miss_stream = true;
            cfg.collectMissStream = true;
        } else if (arg == "--baseline") {
            with_baseline = true;
        } else if (arg == "--jobs") {
            setDefaultJobs(parseJobsValue("--jobs", next()));
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--isolate") {
            sup.isolate = true;
        } else if (arg == "--job-timeout") {
            sup.jobTimeoutMs =
                parseU64(arg, next(), 1, 86'400) * 1000;
        } else if (arg == "--retries") {
            sup.maxAttempts = 1 + static_cast<unsigned>(
                                      parseU64(arg, next(), 0, 100));
        } else if (arg == "--journal") {
            sup.journalPath = next();
        } else if (arg == "--checkpoint") {
            checkpoint_path = next();
        } else if (arg == "--checkpoint-every") {
            checkpoint_every =
                parseU64(arg, next(), 1, std::uint64_t{1} << 40);
        } else if (arg == "--checkpoint-dir") {
            sup.checkpointDir = next();
        } else if (arg == "--warmup-cache") {
            setWarmupImageDir(next());
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

    sup.checkpointEveryInstructions = checkpoint_every;
    Supervisor::setDefaultOptions(sup);

    if (telemetry_on)
        telemetry::setEnabled(true);
    if (!trace_events_path.empty())
        telemetry::setTracing(true);

    cfg.checkLevel = check_level;
    if (check_level > 0) {
        // Arm the structural invariant hooks to the same level
        // unless the user pinned MORRIGAN_CHECK_LEVEL themselves.
        // The env is read lazily on first use, which is after this.
        setenv("MORRIGAN_CHECK_LEVEL",
               std::to_string(check_level).c_str(),
               /*overwrite=*/0);
    }

    if (icache_name == "none")
        cfg.icachePref = ICachePrefKind::None;
    else if (icache_name == "next-line")
        cfg.icachePref = ICachePrefKind::NextLine;
    else if (icache_name == "fnl-mma")
        cfg.icachePref = ICachePrefKind::FnlMma;
    else {
        std::fprintf(stderr, "unknown I-cache prefetcher %s\n",
                     icache_name.c_str());
        return 1;
    }

    // --sweep: the whole QMM suite, baseline + chosen prefetcher,
    // as one parallel batch through the shared pool and result
    // cache. Per-run observability flags don't apply here.
    if (sweep) {
        std::string spec_err = checkPrefetcherSpec(prefetcher_name);
        if (!spec_err.empty()) {
            std::fprintf(stderr, "%s\n", spec_err.c_str());
            return 1;
        }
        const std::string &kind = prefetcher_name;
        SimConfig sweep_cfg = cfg;
        sweep_cfg.collectMissStream = false;

        std::vector<ExperimentJob> jobs;
        for (unsigned i = 0; i < numQmmWorkloads; ++i)
            jobs.push_back(ExperimentJob::of(
                sweep_cfg, "none",
                qmmWorkloadParams(i)));
        for (unsigned i = 0; i < numQmmWorkloads; ++i) {
            if (kind == "morrigan" && smt_scaled) {
                ExperimentJob job = ExperimentJob::with(
                    sweep_cfg,
                    [] {
                        return std::make_unique<MorriganPrefetcher>(
                            MorriganParams{}.smtScaled());
                    },
                    qmmWorkloadParams(i));
                // Factory jobs are uncacheable; give them a stable
                // tag so --journal can resume them too.
                job.journalTag = csprintf(
                    "sweep:smt-scaled:%s:warmup=%llu:instr=%llu",
                    qmmWorkloadParams(i).name.c_str(),
                    static_cast<unsigned long long>(
                        sweep_cfg.warmupInstructions),
                    static_cast<unsigned long long>(
                        sweep_cfg.simInstructions));
                jobs.push_back(std::move(job));
            } else {
                jobs.push_back(ExperimentJob::of(
                    sweep_cfg, kind, qmmWorkloadParams(i)));
            }
        }
        std::vector<RunOutcome> outcomes = runBatchOutcomes(jobs);
        std::vector<SimResult> base, opt;
        for (unsigned i = 0; i < numQmmWorkloads; ++i)
            base.push_back(outcomes[i].output.result);
        for (unsigned i = 0; i < numQmmWorkloads; ++i)
            opt.push_back(
                outcomes[numQmmWorkloads + i].output.result);

        std::printf("-- QMM suite sweep: %s vs baseline "
                    "(%u workloads, %u jobs) --\n",
                    prefetcher_name.c_str(), numQmmWorkloads,
                    defaultJobs());
        std::printf("%-10s %10s %10s %9s\n", "workload", "base IPC",
                    "opt IPC", "speedup");
        unsigned failed_rows = 0;
        for (unsigned i = 0; i < numQmmWorkloads; ++i) {
            const RunOutcome &bo = outcomes[i];
            const RunOutcome &oo = outcomes[numQmmWorkloads + i];
            if (!bo.ok() || !oo.ok()) {
                ++failed_rows;
                std::printf("%-10s %10s %10s %9s  (%s)\n",
                            qmmWorkloadParams(i).name.c_str(), "-",
                            "-", "-",
                            runStatusName(!bo.ok() ? bo.status
                                                   : oo.status));
                continue;
            }
            std::printf("%-10s %10.4f %10.4f %8.2f%%\n",
                        base[i].workload.c_str(), base[i].ipc,
                        opt[i].ipc, speedupPct(base[i], opt[i]));
        }
        const double geomean_pct = geomeanSpeedupPct(base, opt);
        std::printf("geomean speedup     %.2f%%\n", geomean_pct);

        // Degraded-mode report: every permanently failed job, with
        // its repro, on stderr; machine-readable in --stats-json.
        const auto failures = FailureManifest::global().entries();
        if (!failures.empty()) {
            std::fprintf(stderr,
                         "%zu job(s) failed permanently:\n",
                         failures.size());
            for (const auto &f : failures)
                std::fprintf(stderr, "  [%s] %s: %s\n    repro: %s\n",
                             runStatusName(f.failure.status),
                             f.label.c_str(),
                             f.failure.what.c_str(),
                             f.failure.repro.c_str());
        }
        if (!stats_json_path.empty()) {
            std::ofstream ofs(stats_json_path);
            if (!ofs)
                fatal("cannot open --stats-json file '%s'",
                      stats_json_path.c_str());
            json::Writer w(ofs);
            w.beginObject();
            w.kv("schema", "morrigan-stats");
            w.kv("version", json::statsSchemaVersion);
            w.key("build_info").rawValue([](std::ostream &o) {
                json::Writer bw(o);
                writeBuildInfoJson(bw);
            });
            w.kv("mode", "sweep");
            w.kv("prefetcher", prefetcher_name);
            w.key("rows").beginArray();
            for (unsigned i = 0; i < numQmmWorkloads; ++i) {
                const RunOutcome &bo = outcomes[i];
                const RunOutcome &oo =
                    outcomes[numQmmWorkloads + i];
                w.beginObject();
                w.kv("workload", qmmWorkloadParams(i).name);
                w.kv("ok", bo.ok() && oo.ok());
                if (bo.ok() && oo.ok()) {
                    w.kv("base_ipc", base[i].ipc);
                    w.kv("opt_ipc", opt[i].ipc);
                    w.kv("speedup_pct",
                         speedupPct(base[i], opt[i]));
                }
                w.endObject();
            }
            w.endArray();
            w.kv("geomean_speedup_pct", geomean_pct);
            if (telemetry::enabled())
                w.key("telemetry").rawValue([](std::ostream &o) {
                    json::Writer tw(o);
                    telemetry::writeReportJson(
                        tw, telemetry::snapshot());
                });
            if (FailureManifest::global().size() > 0)
                w.key("failures").rawValue([&](std::ostream &o) {
                    FailureManifest::global().writeJson(o);
                });
            w.endObject();
            ofs << '\n';
        }

        exportTraceEvents(trace_events_path);

        if (check_level > 0) {
            std::uint64_t checked = 0, mismatched = 0;
            for (const RunOutcome &o : outcomes) {
                if (!o.ok())
                    continue;
                const SimResult &sr = o.output.result;
                checked += sr.checkedTranslations;
                mismatched += sr.checkMismatches;
                if (!sr.checkReport.empty())
                    std::fprintf(stderr, "[%s] %s",
                                 sr.workload.c_str(),
                                 sr.checkReport.c_str());
            }
            std::printf("diff-check          %llu translations, "
                        "%llu mismatches\n",
                        static_cast<unsigned long long>(checked),
                        static_cast<unsigned long long>(mismatched));
            if (mismatched > 0 ||
                morrigan::check::invariantViolations() > 0)
                return 1;
        }
        return failed_rows > 0 ? 2 : 0;
    }

    auto wl = parseWorkloadName(workload_name);
    if (!wl) {
        std::fprintf(stderr, "unknown workload %s\n",
                     workload_name.c_str());
        return 1;
    }

    // Construct the prefetcher: Morrigan variants honour
    // --smt-scaled; everything else comes from the registry.
    std::unique_ptr<TlbPrefetcher> prefetcher;
    std::string spec_err = checkPrefetcherSpec(prefetcher_name);
    if (!spec_err.empty()) {
        std::fprintf(stderr, "%s\n", spec_err.c_str());
        return 1;
    }
    const std::string &kind = prefetcher_name;
    if (kind == "morrigan" && smt_scaled)
        prefetcher = std::make_unique<MorriganPrefetcher>(
            MorriganParams{}.smtScaled());
    else
        prefetcher = makePrefetcher(kind);

    ServerWorkload trace(*wl);
    Simulator sim(cfg);
    sim.attachWorkload(&trace, 0);

    std::unique_ptr<ServerWorkload> smt_trace;
    if (!smt_name.empty()) {
        auto wl2 = parseWorkloadName(smt_name);
        if (!wl2) {
            std::fprintf(stderr, "unknown workload %s\n",
                         smt_name.c_str());
            return 1;
        }
        smt_trace = std::make_unique<ServerWorkload>(*wl2);
        sim.attachWorkload(smt_trace.get(), 1);
    }
    if (prefetcher)
        sim.attachPrefetcher(prefetcher.get());

    // Observability wiring: lifecycle tracing, interval sampling and
    // the JSON stats document are all opt-in and independent, except
    // that --interval implies the tracer (for per-component counts).
    std::ofstream trace_ofs;
    if (!trace_path.empty()) {
        trace_ofs.open(trace_path);
        if (!trace_ofs)
            fatal("cannot open --trace file '%s'",
                  trace_path.c_str());
        sim.enableTracer(&trace_ofs);
    } else if (!stats_json_path.empty() || interval > 0) {
        sim.enableTracer();
    }
    std::ofstream interval_ofs;
    if (interval > 0) {
        IntervalSampler &sampler = sim.enableIntervalSampler(interval);
        if (!interval_out_path.empty()) {
            interval_ofs.open(interval_out_path);
            if (!interval_ofs)
                fatal("cannot open --interval-out file '%s'",
                      interval_out_path.c_str());
            sampler.setSink(&interval_ofs,
                            interval_csv ? IntervalFormat::Csv
                                         : IntervalFormat::Jsonl);
        }
    } else if (!interval_out_path.empty() || interval_csv) {
        fatal("--interval-out/--interval-csv require --interval N");
    }

    // Checkpoint/resume (single-run mode): a valid snapshot at the
    // given path means a previous invocation of this command was
    // interrupted -- resume it; a corrupt, stale or mismatched one
    // is discarded and the run starts over. Either way the run
    // autosaves so the *next* interruption also resumes. The final
    // result is bit-identical to an uninterrupted run.
    if (!checkpoint_path.empty()) {
        if (::access(checkpoint_path.c_str(), F_OK) == 0) {
            try {
                sim.restoreCheckpoint(checkpoint_path);
                std::fprintf(
                    stderr,
                    "resuming from checkpoint %s (%llu / %llu "
                    "instructions)\n",
                    checkpoint_path.c_str(),
                    static_cast<unsigned long long>(
                        sim.progressInstructions()),
                    static_cast<unsigned long long>(
                        sim.totalInstructions()));
            } catch (const SnapshotError &e) {
                warn("discarding checkpoint %s: %s",
                     checkpoint_path.c_str(), e.what());
            }
        }
        sim.setCheckpointing(checkpoint_path, checkpoint_every);
    }

    const std::uint64_t run_begin_ns = telemetry::nowNs();
    SimResult r = sim.run();
    const double run_seconds =
        1e-9 *
        static_cast<double>(telemetry::nowNs() - run_begin_ns);
    printResult(r);
    if (telemetry_on && run_seconds > 0.0)
        std::printf("sim throughput      %.2fM instr/s "
                    "(%.2fs wall)\n",
                    static_cast<double>(r.instructions) /
                        run_seconds / 1e6,
                    run_seconds);

    // The run finished; the checkpoint would only make a rerun of
    // this command replay the tail of *this* run instead of
    // simulating afresh.
    if (!checkpoint_path.empty())
        ::unlink(checkpoint_path.c_str());

    if (!stats_json_path.empty()) {
        std::ofstream ofs(stats_json_path);
        if (!ofs)
            fatal("cannot open --stats-json file '%s'",
                  stats_json_path.c_str());
        writeStatsJsonDocument(ofs, sim, r, run_seconds);
    }

    if (with_baseline) {
        // The baseline is a cacheable job: route it through the
        // pool so repeated invocations (and MORRIGAN_RESULT_CACHE
        // campaigns) reuse it rather than re-simulating.
        SimConfig base_cfg = cfg;
        base_cfg.collectMissStream = false;
        ExperimentJob job =
            smt_name.empty()
                ? ExperimentJob::of(base_cfg, "none",
                                    *wl)
                : ExperimentJob::smtPair(base_cfg,
                                         "none", *wl,
                                         *parseWorkloadName(smt_name));
        SimResult b = runBatch({job}).front();
        std::printf("baseline IPC        %.4f\n", b.ipc);
        std::printf("speedup             %.2f%%\n",
                    speedupPct(b, r));
    }

    if (miss_stream) {
        const MissStreamStats &ms = sim.missStream();
        std::printf("\n-- iSTLB miss stream --\n");
        std::printf("misses              %llu (%zu distinct pages)\n",
                    static_cast<unsigned long long>(
                        ms.totalMisses()),
                    ms.distinctPages());
        std::printf("pages for 90%%       %zu\n",
                    ms.pagesCoveringFraction(0.9));
        std::printf("delta CDF @10       %.1f%%\n",
                    100.0 * ms.deltaCdfAt(10));
        std::printf("top successor prob  %.2f\n",
                    ms.successorProbability(0));
    }

    if (dump_stats) {
        std::printf("\n-- component statistics --\n");
        sim.rootStats().dump(std::cout);
    }

    exportTraceEvents(trace_events_path);

    if (cfg.checkLevel > 0) {
        std::printf("diff-check          %llu translations, "
                    "%llu mismatches\n",
                    static_cast<unsigned long long>(
                        r.checkedTranslations),
                    static_cast<unsigned long long>(
                        r.checkMismatches));
        if (!r.checkReport.empty())
            std::fprintf(stderr, "%s", r.checkReport.c_str());
        std::uint64_t structural =
            morrigan::check::invariantViolations();
        if (structural > 0)
            std::fprintf(stderr,
                         "%llu structural invariant violation(s)\n",
                         static_cast<unsigned long long>(structural));
        if (r.checkMismatches > 0 || structural > 0)
            return 1;
    }
    return 0;
}
