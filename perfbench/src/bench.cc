#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/telemetry.hh"
#include "core/prefetcher_registry.hh"
#include "sim/result_cache.hh"

namespace perfbench
{

using namespace morrigan;

namespace
{

/** 64-bit FNV-1a. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // anonymous namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

unsigned
workerCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned cpus = 1;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        cpus = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::min(cpus, 4u);
}

std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
Ledger::settle(const std::string &key, const SimResult &r,
               bool digested)
{
    std::ostringstream os;
    writeSimResultJson(os, r);
    std::uint64_t d = fnv1a(os.str());
    auto [it, fresh] = results_.emplace(key, Entry{d, digested});
    if (!fresh && it->second.digest != d)
        return fail("determinism break: " + key);
    if (r.checkMismatches != 0)
        return fail("checker mismatch: " + key);
    ++attempted_;
}

void
Ledger::fail(const std::string &why)
{
    ++attempted_;
    ++failed_;
    failures_.push_back(why);
}

std::uint64_t
Ledger::digest() const
{
    std::uint64_t h = fnv1a("");
    for (const auto &[key, e] : results_) {
        if (!e.digested)
            continue;
        h = fnv1a(key, h);
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(e.digest));
        h = fnv1a(hex, h);
    }
    return h;
}

std::int64_t
SpanLog::open(const char *name)
{
    if (!on_)
        return -1;
    spans_.push_back({name, telemetry::nowNs(), 0, current_});
    current_ = static_cast<std::int64_t>(spans_.size() - 1);
    return current_;
}

void
SpanLog::close(std::int64_t id)
{
    if (id < 0)
        return;
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endNs = telemetry::nowNs();
    current_ = s.parent;
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::vector<std::uint64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0 && s.endNs != 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs == 0)
            continue;
        Totals &t = out[s.name];
        double total = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        t.totalS += total;
        t.selfS += total - static_cast<double>(childNs[i]) * 1e-9;
        ++t.count;
    }
    return out;
}

SpanLog &
spans()
{
    static SpanLog log;
    return log;
}

double
assemble(const ExperimentJob &job, Assembly &a)
{
    Scope span("setup");
    Clock::time_point t0 = Clock::now();
    a.prefetcher = job.prefetcherFactory ? job.prefetcherFactory()
                                         : makePrefetcher(job.kind);
    a.trace = std::make_unique<ServerWorkload>(job.workload);
    a.sim = std::make_unique<Simulator>(job.cfg);
    a.sim->attachWorkload(a.trace.get(), 0);
    if (job.smt) {
        a.smtTrace = std::make_unique<ServerWorkload>(job.smtWorkload);
        a.sim->attachWorkload(a.smtTrace.get(), 1);
    }
    if (a.prefetcher)
        a.sim->attachPrefetcher(a.prefetcher.get());
    return secondsSince(t0);
}

std::uint64_t
jobInstructions(const ExperimentJob &job)
{
    return job.cfg.warmupInstructions + job.cfg.simInstructions;
}

std::string
jobKey(const ExperimentJob &job)
{
    return experimentKey(job.cfg, job.kind, job.workload,
                         job.smt ? &job.smtWorkload : nullptr);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

} // namespace perfbench
