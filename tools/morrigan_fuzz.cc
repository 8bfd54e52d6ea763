/**
 * @file
 * Deterministic config/workload fuzz campaign driver.
 *
 * Samples random-but-valid simulator configurations from seeded
 * RNG streams, runs each seed's simulation family through the
 * worker pool under the differential checker, evaluates the
 * metamorphic invariants (see check/fuzz.hh), and exits non-zero if
 * any seed fails. The campaign is fully reproducible: rerunning
 * with the same --seed-base/--seeds/--instructions/--warmup
 * replays exactly the same simulations.
 *
 * Examples:
 *   morrigan-fuzz --seeds 25 --instructions 200000 --check
 *   morrigan-fuzz --seeds 1 --seed-base 17 --check-level 2
 *   morrigan-fuzz --seeds 5 --inject 50      # validate the checker
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "check/fuzz.hh"
#include "check/invariants.hh"
#include "common/logging.hh"
#include "sim/run_pool.hh"

using namespace morrigan;

namespace
{

void
usage()
{
    std::printf(
        "morrigan-fuzz -- differential config/workload fuzzer\n"
        "\n"
        "  --seeds N           seeds to fuzz (default 25)\n"
        "  --seed-base N       first seed (default 1)\n"
        "  --instructions N    measured instructions per run "
        "(default 200000)\n"
        "  --warmup N          warmup instructions per run "
        "(default 50000)\n"
        "  --check             differential checking (always on; "
        "accepted for symmetry with morrigan-sim)\n"
        "  --check-level N     check level 1|2 (default 1; 2 adds "
        "heavyweight structural invariants)\n"
        "  --inject N          corrupt every Nth instruction demand "
        "walk of each base run; seeds then PASS only when the "
        "checker catches the corruption\n"
        "  --artifact-dir DIR  write failing-seed repro artifacts "
        "into DIR\n"
        "  --jobs N            parallel worker count (default: "
        "MORRIGAN_JOBS, then hardware)\n"
        "  --isolate           sandbox every run in its own process; "
        "crashing/hanging seeds are quarantined, not fatal "
        "(MORRIGAN_ISOLATE=1)\n"
        "  --job-timeout SECS  per-run watchdog deadline under "
        "--isolate (default: derived from the instruction budget; "
        "ignored with a warning without --isolate)\n"
        "  --journal FILE      campaign journal (JSONL); rerunning "
        "with the same parameters resumes completed runs\n"
        "  --no-m5             skip the checkpoint/restore "
        "bit-identity invariant (M5), saving one extra run per "
        "seed\n"
        "  --no-m6             skip the telemetry on/off "
        "bit-identity invariant (M6), saving two extra runs per "
        "seed\n");
}

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

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzOptions opt;

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
        } else if (arg == "--seeds") {
            opt.seeds = parseU64(arg, next(), 1, 1u << 20);
        } else if (arg == "--seed-base") {
            opt.seedBase =
                parseU64(arg, next(), 0, std::uint64_t{1} << 62);
        } else if (arg == "--instructions") {
            opt.instructions =
                parseU64(arg, next(), 1, std::uint64_t{1} << 32);
        } else if (arg == "--warmup") {
            opt.warmupInstructions =
                parseU64(arg, next(), 0, std::uint64_t{1} << 32);
        } else if (arg == "--check") {
            opt.checkLevel = std::max(opt.checkLevel, 1);
        } else if (arg == "--check-level") {
            opt.checkLevel =
                static_cast<int>(parseU64(arg, next(), 1, 2));
        } else if (arg == "--inject") {
            opt.injectPeriod =
                parseU64(arg, next(), 1, std::uint64_t{1} << 40);
        } else if (arg == "--artifact-dir") {
            opt.artifactDir = next();
        } else if (arg == "--jobs") {
            setDefaultJobs(parseJobsValue("--jobs", next()));
        } else if (arg == "--isolate") {
            opt.isolate = true;
        } else if (arg == "--job-timeout") {
            opt.jobTimeoutMs =
                parseU64(arg, next(), 1, 86'400) * 1000;
        } else if (arg == "--journal") {
            opt.journalPath = next();
        } else if (arg == "--no-m5") {
            opt.checkpointInvariant = false;
        } else if (arg == "--no-m6") {
            opt.telemetryInvariant = false;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

    // Arm the structural invariant hooks at the requested level
    // (unless the user pinned MORRIGAN_CHECK_LEVEL themselves); the
    // env is read lazily on first use, which is after this point.
    setenv("MORRIGAN_CHECK_LEVEL",
           std::to_string(std::max(1, opt.checkLevel)).c_str(),
           /*overwrite=*/0);

    check::FuzzCampaignOutcome out =
        check::runCampaign(opt, &std::cout);
    return out.passed() ? 0 : 1;
}
