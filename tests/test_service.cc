/**
 * @file
 * Campaign-service integration tests, driving the real morrigan-serve
 * and morrigan-submit binaries (paths injected by CMake): protocol
 * smoke, idempotent resubmission, crash-safe restart after SIGKILL of
 * the daemon and of a sandboxed worker (both bit-identical to an
 * uninterrupted run), graceful SIGTERM drain, and BUSY admission
 * backpressure.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.hh"

using namespace morrigan;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::size_t
lineCount(const std::string &path)
{
    std::ifstream f(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(f, line))
        ++n;
    return n;
}

void
msleep(unsigned ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

using Clock = std::chrono::steady_clock;

/** Deadline for waiting on a campaign that repeats a reference
 * campaign whose wall time was @p reference: three times that, and
 * at least 10 s, so the wait scales with sanitizer and host
 * slowdown instead of being a fixed poll budget. */
Clock::time_point
deadlineAfter(Clock::duration reference)
{
    return Clock::now() +
           std::max<Clock::duration>(3 * reference,
                                     std::chrono::seconds(10));
}

/** Fork/exec a binary; returns the child pid (argv NULL-terminated
 * internally), with stderr appended to @p log. */
pid_t
spawn(const std::vector<std::string> &argv, const std::string &log)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    int fd = ::open(log.c_str(),
                    O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
        ::dup2(fd, 2);
        ::close(fd);
    }
    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    _exit(127);
}

int
waitExit(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

/** Direct pids of @p pid (the daemon's sandboxed workers). The
 * fork happens on the daemon's campaign thread, so scan every tid's
 * children file, not just the main thread's. */
std::vector<pid_t>
childrenOf(pid_t pid)
{
    std::vector<pid_t> kids;
    std::ostringstream cmd;
    cmd << "cat /proc/" << pid << "/task/*/children 2>/dev/null";
    FILE *p = ::popen(cmd.str().c_str(), "r");
    if (!p)
        return kids;
    pid_t k;
    while (std::fscanf(p, "%d", &k) == 1)
        kids.push_back(k);
    ::pclose(p);
    return kids;
}

/** One running morrigan-serve instance on a private temp dir. */
class Daemon
{
  public:
    explicit Daemon(const std::string &stem,
                    std::vector<std::string> extra = {})
        : dir_(testing::TempDir() + stem)
    {
        // A stale journal from a previous run would replay jobs
        // instantly and break every timing assumption.
        ::system(("rm -rf '" + dir_ + "' && mkdir -p '" + dir_ +
                  "/ckpt'")
                     .c_str());
        start(std::move(extra));
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            waitExit(pid_);
        }
    }

    void
    start(std::vector<std::string> extra = {})
    {
        std::vector<std::string> argv = {
            MORRIGAN_SERVE_BIN,       "--socket", socket(),
            "--journal",              journal(),  "--checkpoint-dir",
            dir_ + "/ckpt",           "--isolate"};
        for (std::string &e : extra)
            argv.push_back(std::move(e));
        pid_ = spawn(argv, dir_ + "/serve.log");
        ASSERT_GT(pid_, 0);
        waitListening();
    }

    /** SIGKILL; the Supervisor's workers may briefly outlive us. */
    void
    killHard()
    {
        ::kill(pid_, SIGKILL);
        waitExit(pid_);
        pid_ = -1;
    }

    /** SIGTERM and reap; returns the wait() status. */
    int
    drainAndWait()
    {
        ::kill(pid_, SIGTERM);
        int status = waitExit(pid_);
        pid_ = -1;
        return status;
    }

    pid_t pid() const { return pid_; }
    const std::string &dir() const { return dir_; }
    std::string socket() const { return dir_ + "/m.sock"; }
    std::string journal() const { return dir_ + "/j.jsonl"; }

  private:
    void
    waitListening()
    {
        for (int i = 0; i < 200; ++i) {
            int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            ASSERT_GE(fd, 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::snprintf(addr.sun_path, sizeof(addr.sun_path),
                          "%s", socket().c_str());
            int rc = ::connect(
                fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr));
            ::close(fd);
            if (rc == 0)
                return;
            msleep(25);
        }
        FAIL() << "daemon never started listening on " << socket();
    }

    std::string dir_;
    pid_t pid_ = -1;
};

/** Minimal blocking line-oriented protocol client. */
class RawClient
{
  public:
    explicit RawClient(const std::string &socket_path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      socket_path.c_str());
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~RawClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return fd_ >= 0; }

    void
    send(const std::string &line)
    {
        std::string framed = line + "\n";
        ASSERT_EQ(::write(fd_, framed.data(), framed.size()),
                  static_cast<ssize_t>(framed.size()));
    }

    /** Next protocol line, or empty on timeout/EOF. */
    std::string
    readLine(int timeout_ms = 10'000)
    {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
        for (;;) {
            std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            auto left =
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            if (left <= 0)
                return "";
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, static_cast<int>(left)) <= 0)
                return "";
            char tmp[4096];
            ssize_t n = ::read(fd_, tmp, sizeof(tmp));
            if (n <= 0)
                return "";
            buf_.append(tmp, static_cast<std::size_t>(n));
        }
    }

    /** Read lines until one has "event": @p event (or timeout). */
    json::Value
    readUntil(const std::string &event, int timeout_ms = 60'000)
    {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
        while (std::chrono::steady_clock::now() < deadline) {
            std::string line = readLine(2'000);
            if (line.empty())
                continue;
            json::Value doc;
            if (!json::Reader(line).parse(doc))
                continue;
            std::string ev;
            if (json::getString(doc, "event", ev) && ev == event)
                return doc;
        }
        return json::Value{};
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** A jobs file of @p n qmm jobs sized to take a noticeable time. */
std::string
writeBatch(const std::string &path, unsigned n,
           std::uint64_t instructions, bool with_interval = false)
{
    std::ofstream f(path);
    for (unsigned i = 0; i < n; ++i) {
        f << "{\"workload\":\"qmm_0" << (i % 8)
          << "\",\"prefetcher\":"
          << (i % 2 ? "\"morrigan\"" : "\"none\"")
          << ",\"warmup\":20000,\"instructions\":" << instructions;
        if (with_interval && i == 0)
            f << ",\"interval\":" << instructions / 2;
        f << "}\n";
    }
    return path;
}

std::vector<std::string>
submitArgv(const Daemon &d, const std::string &jobs,
           const std::string &out)
{
    return {MORRIGAN_SUBMIT_BIN, "--socket",      d.socket(),
            "--jobs-file",       jobs,            "--out",
            out,                 "--retry-ms",    "200",
            "--max-retries",     "300"};
}

} // namespace

TEST(Service, PingAndStatusSpeakProtocolV1)
{
    Daemon d("svc-ping");
    RawClient c(d.socket());
    ASSERT_TRUE(c.connected());

    c.send("{\"cmd\":\"ping\"}");
    json::Value pong = c.readUntil("pong", 5'000);
    std::uint64_t proto = 0;
    EXPECT_TRUE(json::getU64(pong, "protocol", proto));
    EXPECT_EQ(proto, 1u);

    c.send("{\"cmd\":\"status\"}");
    json::Value st = c.readUntil("status", 5'000);
    std::uint64_t depth = 99;
    EXPECT_TRUE(json::getU64(st, "queue_depth", depth));
    EXPECT_EQ(depth, 0u);

    c.send("not json at all");
    json::Value err = c.readUntil("error", 5'000);
    std::string msg;
    EXPECT_TRUE(json::getString(err, "message", msg));
    EXPECT_EQ(d.drainAndWait(), 0);
}

TEST(Service, ResubmissionIsIdempotentAndByteIdentical)
{
    Daemon d("svc-idem");
    const std::string jobs =
        writeBatch(d.dir() + "/batch.jsonl", 2, 60'000,
                   /*with_interval=*/true);

    const std::string out1 = d.dir() + "/r1.jsonl";
    const std::string out2 = d.dir() + "/r2.jsonl";
    const std::string iv1 = d.dir() + "/iv1.jsonl";
    const std::string iv2 = d.dir() + "/iv2.jsonl";

    auto argv1 = submitArgv(d, jobs, out1);
    argv1.push_back("--interval-out");
    argv1.push_back(iv1);
    int rc1 = waitExit(spawn(argv1, d.dir() + "/client1.log"));
    ASSERT_TRUE(WIFEXITED(rc1) && WEXITSTATUS(rc1) == 0)
        << readFile(d.dir() + "/client1.log");

    auto argv2 = submitArgv(d, jobs, out2);
    argv2.push_back("--interval-out");
    argv2.push_back(iv2);
    int rc2 = waitExit(spawn(argv2, d.dir() + "/client2.log"));
    ASSERT_TRUE(WIFEXITED(rc2) && WEXITSTATUS(rc2) == 0)
        << readFile(d.dir() + "/client2.log");

    const std::string r1 = readFile(out1);
    ASSERT_FALSE(r1.empty());
    EXPECT_EQ(r1, readFile(out2))
        << "resubmission was not byte-identical";
    EXPECT_EQ(lineCount(out1), 2u);

    // Interval epochs stream on the executing run; the journal
    // replay re-serves results without re-simulating, so it has no
    // epochs to stream.
    EXPECT_GT(lineCount(iv1), 0u);
    EXPECT_EQ(lineCount(iv2), 0u);

    // Idempotency really came from the journal, not re-execution.
    EXPECT_EQ(lineCount(d.journal()), 2u);
    EXPECT_EQ(d.drainAndWait(), 0);
}

TEST(Service, DaemonSigkillRestartResumesBitIdentical)
{
    // Reference: uninterrupted campaign on a private daemon.
    Daemon ref("svc-crash-ref");
    const std::string jobs =
        writeBatch(ref.dir() + "/batch.jsonl", 4, 12'000'000);
    const std::string ref_out = ref.dir() + "/ref.jsonl";
    const Clock::time_point ref_start = Clock::now();
    int rc = waitExit(spawn(submitArgv(ref, jobs, ref_out),
                            ref.dir() + "/client.log"));
    const Clock::duration ref_wall = Clock::now() - ref_start;
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << readFile(ref.dir() + "/client.log");
    ref.drainAndWait();

    // Crash campaign: SIGKILL the daemon once the journal shows the
    // campaign is genuinely mid-flight (>= 1 of 4 jobs committed),
    // restart on the same journal/checkpoint dir, and let the
    // client's retry loop resubmit.
    Daemon d("svc-crash");
    const std::string out = d.dir() + "/crash.jsonl";
    pid_t client = spawn(submitArgv(d, jobs, out),
                         d.dir() + "/client.log");

    bool killed_midflight = false;
    for (const auto until = deadlineAfter(ref_wall);
         Clock::now() < until;) {
        if (lineCount(d.journal()) >= 1) {
            killed_midflight = lineCount(d.journal()) < 4;
            d.killHard();
            break;
        }
        msleep(5);
    }
    ASSERT_GT(lineCount(d.journal()), 0u)
        << "campaign never started";
    EXPECT_TRUE(killed_midflight)
        << "campaign finished before the SIGKILL; grow the batch";

    d.start();
    rc = waitExit(client);
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << readFile(d.dir() + "/client.log");

    const std::string crash_rows = readFile(out);
    ASSERT_FALSE(crash_rows.empty());
    EXPECT_EQ(readFile(ref_out), crash_rows)
        << "restarted campaign diverged from uninterrupted run";
    EXPECT_EQ(d.drainAndWait(), 0);
}

TEST(Service, WorkerSigkillMidJobRetriesBitIdentical)
{
    Daemon ref("svc-wkill-ref");
    const std::string jobs =
        writeBatch(ref.dir() + "/batch.jsonl", 2, 12'000'000);
    const std::string ref_out = ref.dir() + "/ref.jsonl";
    const Clock::time_point ref_start = Clock::now();
    int rc = waitExit(spawn(submitArgv(ref, jobs, ref_out),
                            ref.dir() + "/client.log"));
    const Clock::duration ref_wall = Clock::now() - ref_start;
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << readFile(ref.dir() + "/client.log");
    ref.drainAndWait();

    // SIGKILL the first sandboxed worker the daemon forks; the
    // supervisor classifies the death, retries the job, and the
    // campaign still converges to identical bytes.
    Daemon d("svc-wkill");
    const std::string out = d.dir() + "/rows.jsonl";
    pid_t client = spawn(submitArgv(d, jobs, out),
                         d.dir() + "/client.log");

    pid_t victim = -1;
    for (const auto until = deadlineAfter(ref_wall);
         victim < 0 && Clock::now() < until;) {
        for (pid_t kid : childrenOf(d.pid()))
            victim = kid;
        if (victim < 0)
            msleep(5);
    }
    ASSERT_GT(victim, 0) << "no sandboxed worker ever appeared";
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    rc = waitExit(client);
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << readFile(d.dir() + "/client.log");
    EXPECT_EQ(readFile(ref_out), readFile(out))
        << "worker SIGKILL retry diverged";
    EXPECT_EQ(d.drainAndWait(), 0);
}

TEST(Service, SigtermDrainIsGracefulAndRetriable)
{
    // Reference bytes from an uninterrupted campaign.
    Daemon ref("svc-drain-ref");
    const std::string jobs =
        writeBatch(ref.dir() + "/batch.jsonl", 3, 2'000'000);
    const std::string ref_out = ref.dir() + "/ref.jsonl";
    const Clock::time_point ref_start = Clock::now();
    int rc = waitExit(spawn(submitArgv(ref, jobs, ref_out),
                            ref.dir() + "/client.log"));
    const Clock::duration ref_wall = Clock::now() - ref_start;
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << readFile(ref.dir() + "/client.log");
    ref.drainAndWait();

    Daemon d("svc-drain");
    const std::string out = d.dir() + "/rows.jsonl";
    pid_t client = spawn(submitArgv(d, jobs, out),
                         d.dir() + "/client.log");

    // Wait until the campaign is genuinely in flight, then request
    // the drain.
    for (const auto until = deadlineAfter(ref_wall);
         lineCount(d.journal()) < 1 && Clock::now() < until;)
        msleep(5);
    ASSERT_GE(lineCount(d.journal()), 1u);
    ASSERT_EQ(::kill(d.pid(), SIGTERM), 0);

    // A submission arriving during the drain gets a retriable busy,
    // not a hang and not a dropped connection.
    RawClient late(d.socket());
    if (late.connected()) {
        late.send("{\"cmd\":\"submit\",\"id\":\"late\",\"jobs\":"
                  "[{\"workload\":\"qmm_00\",\"warmup\":20000,"
                  "\"instructions\":60000}]}");
        json::Value busy = late.readUntil("busy", 10'000);
        if (!busy.object.empty()) {
            bool retriable = false, draining = false;
            EXPECT_TRUE(
                json::getBool(busy, "retriable", retriable));
            EXPECT_TRUE(retriable);
            EXPECT_TRUE(json::getBool(busy, "draining", draining));
            EXPECT_TRUE(draining);
        }
    }
    // (If the daemon already closed its socket the late client
    // simply fails to connect -- also a clean rejection.)

    // Graceful exit: the in-flight job finished and was journaled,
    // the not-yet-started jobs were canceled (not run, not lost),
    // and the exit status is 0.
    int status = waitExit(d.pid());
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    const std::size_t flushed = lineCount(d.journal());
    EXPECT_GE(flushed, 1u) << "drain lost the finished jobs";

    // The cancellation is retriable: restart, and the client's own
    // resubmission completes the batch -- journaled jobs replay,
    // only the canceled tail executes, and the result bytes match
    // the uninterrupted run.
    d.start();
    rc = waitExit(client);
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << readFile(d.dir() + "/client.log");
    EXPECT_EQ(readFile(ref_out), readFile(out))
        << "drain + resume diverged from uninterrupted run";
    EXPECT_EQ(lineCount(d.journal()), 3u);
    EXPECT_EQ(d.drainAndWait(), 0);
}

TEST(Service, BusyBackpressureWhenQueueIsFull)
{
    Daemon d("svc-busy", {"--max-queue", "1"});
    RawClient c(d.socket());
    ASSERT_TRUE(c.connected());

    const char *campaign =
        "{\"cmd\":\"submit\",\"id\":\"c%d\",\"jobs\":"
        "[{\"workload\":\"qmm_0%d\",\"warmup\":20000,"
        "\"instructions\":30000000}]}";
    char line[256];

    // c1 must be genuinely running (not queued) before c2/c3 are
    // sent, so sequence on the status counters rather than sleeping.
    std::snprintf(line, sizeof(line), campaign, 1, 1);
    c.send(line);
    ASSERT_FALSE(c.readUntil("accepted", 5'000).object.empty());
    bool running = false;
    std::uint64_t depth = 99;
    for (int i = 0; i < 400 && !(running && depth == 0); ++i) {
        msleep(10);
        c.send("{\"cmd\":\"status\"}");
        json::Value st = c.readUntil("status", 5'000);
        json::getBool(st, "campaign_running", running);
        json::getU64(st, "queue_depth", depth);
    }
    ASSERT_TRUE(running && depth == 0)
        << "c1 never reached the worker";

    // c2 occupies the single queue slot; c3 must bounce.
    std::snprintf(line, sizeof(line), campaign, 2, 2);
    c.send(line);
    ASSERT_FALSE(c.readUntil("accepted", 5'000).object.empty());
    std::snprintf(line, sizeof(line), campaign, 3, 3);
    c.send(line);
    json::Value busy = c.readUntil("busy", 5'000);
    ASSERT_FALSE(busy.object.empty()) << "no busy event arrived";
    bool retriable = false;
    EXPECT_TRUE(json::getBool(busy, "retriable", retriable));
    EXPECT_TRUE(retriable);
    depth = 0;
    EXPECT_TRUE(json::getU64(busy, "queue_depth", depth));
    EXPECT_EQ(depth, 1u);

    // The rejection is visible in the service counters.
    c.send("{\"cmd\":\"status\"}");
    json::Value st = c.readUntil("status", 5'000);
    std::uint64_t rejections = 0;
    EXPECT_TRUE(json::getU64(st, "busy_rejections", rejections));
    EXPECT_GE(rejections, 1u);

    // Drain rather than wait out the long campaigns: the in-flight
    // job settles, the queued campaign cancels, exit stays 0.
    EXPECT_EQ(d.drainAndWait(), 0);
}
