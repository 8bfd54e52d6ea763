/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload server|data|campaign|fuzz --seed N
 *             --seconds S --trace 0|1 --work-dir DIR [--quick]
 *
 * Untraced runs print the end-to-end metrics, traced runs the
 * per-layer metrics (perfbench/README.md). The last stdout line is
 * the result object {"correct", "attempted", "failed", "metrics"};
 * the line before it carries the run's result digest.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <unistd.h>

#include "bench.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec endToEndMetrics[] = {
    {"minstr_per_s", "Minstr/s"},
    {"jobs_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Every per-layer metric. A workload leaves unset the metrics of
 * layers it does not exercise; they print as 0 (README.md lists which
 * workload moves which metric). */
const MetricSpec perLayerMetrics[] = {
    {"workload.ns_per_instr", "ns"},
    {"workload.share", "ratio"},
    {"mem.ns_per_access", "ns"},
    {"mem.share", "ratio"},
    {"mem.l1i_mpki", "MPKI"},
    {"mem.l1d_mpki", "MPKI"},
    {"mem.l2_mpki", "MPKI"},
    {"tlb.ns_per_lookup", "ns"},
    {"tlb.share", "ratio"},
    {"tlb.itlb_mpki", "MPKI"},
    {"tlb.istlb_mpki", "MPKI"},
    {"tlb.dstlb_mpki", "MPKI"},
    {"tlb.pb_hits", "count"},
    {"tlb.pb_hit_ratio", "ratio"},
    {"vm.ns_per_walk", "ns"},
    {"vm.walk_ms", "ms"},
    {"vm.walks", "count"},
    {"vm.refs_per_walk", "refs"},
    {"core.ns_per_miss", "ns"},
    {"core.engage_ms", "ms"},
    {"core.prefetch_walks", "count"},
    {"core.accuracy", "ratio"},
    {"core.coverage", "ratio"},
    {"icache.prefetches", "count"},
    {"sim.unattributed_share", "ratio"},
    {"sim.pool.job_s_p50", "s"},
    {"sim.pool.job_s_p90", "s"},
    {"sim.pool.job_samples", "count"},
    {"sim.pool.busy_share", "ratio"},
    {"sim.store.answer_ms", "ms"},
    {"sim.cache.lookup_ms", "ms"},
    {"sim.cache.insert_ms", "ms"},
    {"sim.journal.append_ms", "ms"},
    {"sim.cache.hits", "count"},
    {"sim.cache.misses", "count"},
    {"sim.snapshot_save_ms", "ms"},
    {"sim.snapshot_restore_ms", "ms"},
    {"sim.snapshot_bytes", "bytes"},
    {"check.overhead", "ratio"},
    {"check.mismatches", "count"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "server|data|campaign|fuzz --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--quick]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *s)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usage(std::string("bad value for ") + flag + ": " + s);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--quick") {
            a.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned("--seed", v);
            have_seed = true;
        } else if (flag == "--seconds") {
            std::uint64_t s = parseUnsigned("--seconds", v);
            if (s == 0 || s > 3600)
                usage("--seconds must be 1..3600");
            a.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (flag == "--trace") {
            std::uint64_t t = parseUnsigned("--trace", v);
            if (t > 1)
                usage("--trace must be 0 or 1");
            a.trace = t == 1;
            have_trace = true;
        } else if (flag == "--work-dir") {
            a.workDir = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    static const std::set<std::string> names = {"server", "data",
                                                "campaign", "fuzz"};
    if (!names.count(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (!have_seed || !have_seconds || !have_trace || a.workDir.empty())
        usage("--seed, --seconds, --trace and --work-dir are required");
    return a;
}

/** Cold-state hygiene: no simulator environment knob (result cache,
 * journal, warmup images, worker count...) leaks into the run. */
void
scrubEnvironment(const std::string &work_dir)
{
    std::vector<std::string> drop;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "MORRIGAN_", 9) == 0)
            drop.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const std::string &k : drop)
        unsetenv(k.c_str());
    // Fuzz invariant M5 writes its snapshots under the temp dir.
    setenv("TMPDIR", work_dir.c_str(), 1);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::filesystem::create_directories(args.workDir);
    scrubEnvironment(args.workDir);

    Ledger ledger;
    Report rep;
    try {
        if (args.workload == "server")
            runServer(args, ledger, rep);
        else if (args.workload == "data")
            runData(args, ledger, rep);
        else if (args.workload == "campaign")
            runCampaign(args, ledger, rep);
        else
            runFuzz(args, ledger, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    for (const std::string &n : rep.notes)
        std::printf("%s\n", n.c_str());
    if (args.trace) {
        for (const auto &[name, t] : spans().totals())
            std::printf("span %-22s self %10.3f ms  total %10.3f ms  "
                        "count %llu\n",
                        name.c_str(), t.selfS * 1e3, t.totalS * 1e3,
                        static_cast<unsigned long long>(t.count));
    }
    for (const std::string &f : ledger.failures())
        std::printf("failed: %s\n", f.c_str());
    std::printf("digest %s %016llx\n", args.workload.c_str(),
                static_cast<unsigned long long>(ledger.digest()));

    std::string out = "\"metrics\": {";
    bool first = true;
    bool finite = true;
    auto emit = [&](const MetricSpec &spec) {
        auto it = rep.metrics.find(spec.name);
        double v = it == rep.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            finite = false;
            v = 0.0;
        }
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", spec.name, v, spec.unit);
        out += buf;
        first = false;
    };
    if (args.trace)
        for (const MetricSpec &s : perLayerMetrics)
            emit(s);
    else
        for (const MetricSpec &s : endToEndMetrics)
            emit(s);
    if (!finite)
        ledger.fail("a metric was not finite");
    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                  ledger.failed() == 0 ? "true" : "false",
                  static_cast<unsigned long long>(ledger.attempted()),
                  static_cast<unsigned long long>(ledger.failed()));
    std::printf("%s%s}}\n", head, out.c_str());
    std::fflush(stdout);
    return 0;
}
