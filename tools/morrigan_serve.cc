/**
 * @file
 * Campaign service daemon (see src/service/campaign_service.hh and
 * DESIGN.md §16).
 *
 * Runs in the foreground; background it with your supervisor of
 * choice. SIGTERM/SIGINT drain gracefully: in-flight jobs finish and
 * are journaled, queued work settles as canceled, new submissions
 * get a retriable `busy`, and the process exits 0.
 *
 * Example:
 *   morrigan-serve --socket /tmp/morrigan.sock \
 *       --journal campaign.journal --checkpoint-dir ckpt --isolate
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/build_info.hh"
#include "common/fault_fs.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "service/campaign_service.hh"
#include "sim/run_pool.hh"

using namespace morrigan;

namespace
{

CampaignService *activeService = nullptr;

void
onSignal(int)
{
    if (activeService)
        activeService->requestDrain();
}

void
usage()
{
    std::printf(
        "morrigan-serve -- campaign service daemon\n"
        "\n"
        "  --socket PATH         Unix socket to listen on "
        "(required)\n"
        "  --journal FILE        fsync'd campaign journal; makes "
        "resubmission idempotent and restarts lossless\n"
        "  --checkpoint-dir DIR  per-job snapshot checkpoints, so "
        "killed jobs resume mid-run\n"
        "  --checkpoint-every N  autosave interval in instructions "
        "(default 1000000)\n"
        "  --isolate             sandbox every job in its own "
        "process\n"
        "  --jobs N              parallel worker count per campaign\n"
        "  --job-timeout SECS    per-job watchdog deadline under "
        "--isolate (default derived from the instruction budget; "
        "ignored with a warning without --isolate)\n"
        "  --retries N           per-job retries with backoff "
        "(default 1)\n"
        "  --max-queue N         queued campaigns before submit "
        "returns busy (default 4)\n"
        "  --spool DIR           interval-epoch spool directory "
        "(default <socket>.spool)\n"
        "  --progress MS         campaign progress lines on stderr\n"
        "  --telemetry           collect self-profiling counters\n"
        "  --version             print build identity and exit\n");
}

std::uint64_t
parseU64(const char *flag, const char *s, std::uint64_t min_value,
         std::uint64_t max_value)
{
    if (!s || *s == '\0' || *s == '-')
        fatal("%s: '%s' is not a non-negative integer", flag,
              s ? s : "");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0')
        fatal("%s: trailing junk in '%s'", flag, s);
    if (errno == ERANGE || v < min_value || v > max_value)
        fatal("%s: %s out of range [%llu, %llu]", flag, s,
              static_cast<unsigned long long>(min_value),
              static_cast<unsigned long long>(max_value));
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    // Die on a MORRIGAN_FAULT_FS typo before accepting any work,
    // not at the first journal append.
    faultfs::initFromEnv();
    ServiceOptions opt;
    opt.supervisor = Supervisor::defaultOptions();
    bool telemetry_on = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--version") {
            std::printf("%s\n", buildInfoLine().c_str());
            return 0;
        } else if (arg == "--socket") {
            opt.socketPath = next();
        } else if (arg == "--journal") {
            opt.supervisor.journalPath = next();
        } else if (arg == "--checkpoint-dir") {
            opt.supervisor.checkpointDir = next();
        } else if (arg == "--checkpoint-every") {
            opt.supervisor.checkpointEveryInstructions = parseU64(
                "--checkpoint-every", next(), 1,
                std::uint64_t{1} << 40);
        } else if (arg == "--isolate") {
            opt.supervisor.isolate = true;
        } else if (arg == "--jobs") {
            opt.supervisor.jobs =
                parseJobsValue("--jobs", next());
        } else if (arg == "--job-timeout") {
            opt.supervisor.jobTimeoutMs =
                parseU64("--job-timeout", next(), 1, 86'400) * 1000;
        } else if (arg == "--retries") {
            opt.supervisor.maxAttempts =
                1 + static_cast<unsigned>(
                        parseU64("--retries", next(), 0, 100));
        } else if (arg == "--max-queue") {
            opt.maxQueue = static_cast<std::size_t>(
                parseU64("--max-queue", next(), 1, 1024));
        } else if (arg == "--spool") {
            opt.spoolDir = next();
        } else if (arg == "--progress") {
            opt.supervisor.progressEveryMs =
                parseU64("--progress", next(), 1, 3'600'000);
        } else if (arg == "--telemetry") {
            telemetry_on = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }
    if (opt.socketPath.empty()) {
        std::fprintf(stderr, "--socket is required\n");
        usage();
        return 1;
    }
    if (telemetry_on)
        telemetry::setEnabled(true);

    CampaignService service(opt);
    if (!service.start())
        return 1;

    activeService = &service;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    // A client vanishing mid-write must be an EPIPE, not a fatal
    // signal.
    ::signal(SIGPIPE, SIG_IGN);

    std::fprintf(stderr, "morrigan-serve: listening on %s\n",
                 opt.socketPath.c_str());
    int rc = service.serve();
    std::fprintf(stderr, "morrigan-serve: drained, exiting\n");
    return rc;
}
