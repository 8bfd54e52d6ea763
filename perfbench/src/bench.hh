/**
 * @file
 * Shared pieces of the repository benchmark: arguments, the metric
 * report, the correctness ledger, the benchmark's own span log, and
 * the per-job assembly that mirrors how a campaign sets up one
 * simulation through the simulator's public API.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tlb_prefetcher.hh"
#include "sim/run_pool.hh"
#include "sim/simulator.hh"
#include "workload/server_workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Arithmetic mean of @p v (0 when empty). */
double mean(const std::vector<double> &v);

/** Quantile @p q in [0,1] of @p v by linear interpolation. */
double quantile(std::vector<double> v, double q);

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /** Fresh scratch directory inside the checkout (journals,
     * result-cache files, snapshots). */
    std::string workDir;
    /** Short simulations and small job sets (smoke test only). */
    bool quick = false;
};

/** Worker threads for pooled workloads: min(usable CPUs, 4). */
unsigned workerCount();

/** splitmix64: derives generator seeds from the benchmark seed. */
std::uint64_t mixSeed(std::uint64_t x);

/** Everything one run prints. Metric units live with the metric
 * lists in main.cc. */
struct Report
{
    std::map<std::string, double> metrics;
    /** Informational lines printed before the result line. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value)
    {
        metrics[name] = value;
    }
};

/**
 * Correctness ledger. Every settled simulation is an attempted
 * operation; it fails when it did not produce a result, when its
 * result differs from the first result of the same job (determinism
 * break), or when the differential checker reported a mismatch.
 * The run digest is an FNV-1a hash over each job's first result as
 * serialized by writeSimResultJson, in job-key order.
 */
class Ledger
{
  public:
    /**
     * Record a produced result for job @p key. Jobs that only a traced
     * run executes pass @p digested = false: they are checked against
     * earlier results of the same key all the same, but a key first
     * settled that way stays out of the digest, so traced and
     * untraced runs of one seed print the same digest.
     */
    void settle(const std::string &key, const morrigan::SimResult &r,
                bool digested = true);

    /** Record an attempted operation that failed. */
    void fail(const std::string &why);

    /** Record an attempted operation that succeeded without a
     * simulation result of its own (e.g. a fuzz seed's invariants). */
    void pass() { ++attempted_; }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t digest() const;
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    struct Entry
    {
        std::uint64_t digest;
        bool digested;
    };
    std::map<std::string, Entry> results_;
    std::vector<std::string> failures_;
};

/**
 * The benchmark's own spans: name, start, end and parent, kept in
 * memory until the run ends. Spans are opened and closed on the
 * calling thread only, so they nest strictly. Disabled, open() and
 * close() cost one branch.
 */
class SpanLog
{
  public:
    struct Totals
    {
        double selfS = 0.0;  //!< span time minus child-span time
        double totalS = 0.0;
        std::uint64_t count = 0;
    };

    void setEnabled(bool on) { on_ = on; }

    /** Open a span; returns its id (or -1 when disabled). */
    std::int64_t open(const char *name);
    void close(std::int64_t id);

    /** Per-name totals over every closed span. */
    std::map<std::string, Totals> totals() const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t startNs;
        std::uint64_t endNs;
        std::int64_t parent;
    };

    bool on_ = false;
    std::vector<Span> spans_;
    std::int64_t current_ = -1;
};

/** The process's span log (benchmark spans only). */
SpanLog &spans();

/** RAII span on spans(). */
class Scope
{
  public:
    explicit Scope(const char *name) : id_(spans().open(name)) {}
    ~Scope() { spans().close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::int64_t id_;
};

/**
 * One simulation assembled through the public API exactly as a
 * campaign worker assembles it: workload generator(s), registry
 * prefetcher (or the job's factory), Simulator, attachments.
 */
struct Assembly
{
    std::unique_ptr<morrigan::TlbPrefetcher> prefetcher;
    std::unique_ptr<morrigan::ServerWorkload> trace;
    std::unique_ptr<morrigan::ServerWorkload> smtTrace;
    std::unique_ptr<morrigan::Simulator> sim;
};

/** Build @p job; returns the set-up seconds (the per-job set-up
 * time metric). */
double assemble(const morrigan::ExperimentJob &job, Assembly &out);

/** Instructions one run of @p job executes, warmup included. */
std::uint64_t jobInstructions(const morrigan::ExperimentJob &job);

/** Stable identity of @p job for the ledger. */
std::string jobKey(const morrigan::ExperimentJob &job);

/** Peak resident set of this process in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
