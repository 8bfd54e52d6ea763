/**
 * @file
 * Shared scaffolding for the per-figure benchmark harnesses.
 *
 * Every bench binary regenerates one table or figure of the paper:
 * it runs the relevant simulations over the QMM-like suite and prints
 * the same rows/series the paper reports, annotated with the paper's
 * published value where one exists. Default runs use the fast scale
 * (subset of workloads, shorter windows); MORRIGAN_FULL=1 selects the
 * whole 45-workload suite with longer windows.
 */

#ifndef MORRIGAN_BENCH_BENCH_UTIL_HH
#define MORRIGAN_BENCH_BENCH_UTIL_HH

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/build_info.hh"
#include "common/json.hh"
#include "sim/experiment.hh"
#include "workload/workload_factory.hh"

namespace morrigan::bench
{

/**
 * Machine-readable mirror of a bench binary's printed output.
 *
 * When MORRIGAN_BENCH_JSON names a directory, every header()/row()
 * call is also recorded here and written as BENCH_<figure>.json, so
 * figure data can be collected by scripts without scraping stdout.
 * Disabled (and free) otherwise.
 *
 * Durability: the artifact is rewritten (atomically, tmp + rename)
 * after every recorded row and from the destructor -- a campaign
 * killed mid-figure (any signal, SIGKILL included) leaves the rows
 * it completed on disk instead of nothing, with no signal handlers
 * involved (nothing here is async-signal-safe, so none is installed;
 * a termination signal costs at most the row currently in flight).
 * Only the process that created the artifact writes it (sandboxed
 * --isolate children inherit the singleton but are pid-guarded
 * out). When the campaign supervisor recorded permanent job
 * failures, the artifact carries them in a "failures" manifest
 * alongside the degraded rows.
 */
class BenchArtifact
{
  public:
    static BenchArtifact &
    instance()
    {
        static BenchArtifact a;
        return a;
    }

    void
    beginSection(const char *figure, const char *description,
                 const BenchScale &scale)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        sections_.push_back({figure, description, scale, {}});
        flushLocked();
    }

    void
    addRow(const std::string &label, double measured,
           const char *unit, const char *paper_note)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        if (sections_.empty())
            return;
        sections_.back().rows.push_back(
            {label, measured, unit, paper_note});
        flushLocked();
    }

    /** Serialize the artifact now (atomic tmp + rename). */
    void
    flush()
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        flushLocked();
    }

    ~BenchArtifact() { flush(); }

  private:
    struct Row
    {
        std::string label;
        double measured;
        std::string unit;
        std::string paperNote;
    };
    struct Section
    {
        std::string figure;
        std::string description;
        BenchScale scale;
        std::vector<Row> rows;
    };

    BenchArtifact()
    {
        if (const char *d = std::getenv("MORRIGAN_BENCH_JSON")) {
            dir_ = d;
            enabled_ = !dir_.empty();
        }
        if (enabled_)
            ownerPid_ = ::getpid();
    }

    /** Caller holds mutex_. Rewrites the artifact atomically; no-op
     * in forked children (sandboxed jobs must not clobber the
     * parent's file) and before the first section. */
    void
    flushLocked()
    {
        if (sections_.empty() || ::getpid() != ownerPid_)
            return;
        std::string path = dir_ + "/BENCH_" +
                           sanitize(sections_.front().figure) +
                           ".json";
        std::string tmp = path + ".tmp." + std::to_string(ownerPid_);
        {
            std::ofstream ofs(tmp);
            if (!ofs)
                return;
            json::Writer w(ofs);
            w.beginObject();
            w.kv("schema", "morrigan-bench");
            w.kv("version", json::benchSchemaVersion);
            w.key("build_info").rawValue([](std::ostream &ro) {
                json::Writer bw(ro);
                writeBuildInfoJson(bw);
            });
            w.key("sections").beginArray();
            for (const Section &s : sections_) {
                w.beginObject();
                w.kv("figure", s.figure);
                w.kv("description", s.description);
                w.kv("full_scale", s.scale.full);
                w.kv("workloads", s.scale.numWorkloads);
                w.kv("warmup_instructions",
                     s.scale.warmupInstructions);
                w.kv("sim_instructions", s.scale.simInstructions);
                w.key("rows").beginArray();
                for (const Row &r : s.rows) {
                    w.beginObject();
                    w.kv("label", r.label);
                    w.kv("measured", r.measured);
                    w.kv("unit", r.unit);
                    w.kv("paper_note", r.paperNote);
                    w.endObject();
                }
                w.endArray();
                w.endObject();
            }
            w.endArray();
            if (FailureManifest::global().size() > 0) {
                w.key("failures").rawValue([](std::ostream &ro) {
                    FailureManifest::global().writeJson(ro);
                });
            }
            w.endObject();
            ofs << '\n';
            if (!ofs)
                return;
        }
        std::rename(tmp.c_str(), path.c_str());
    }

    static std::string
    sanitize(const std::string &s)
    {
        std::string out;
        for (char c : s)
            out += (std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '-' || c == '_')
                       ? c
                       : '_';
        return out;
    }

    /** Guards sections_: rows can arrive from Supervisor workers. */
    std::mutex mutex_;
    bool enabled_ = false;
    ::pid_t ownerPid_ = 0;
    std::string dir_;
    std::vector<Section> sections_;
};

/** Default simulation configuration scaled by MORRIGAN_FULL. */
inline SimConfig
scaledConfig(const BenchScale &scale)
{
    SimConfig cfg;
    cfg.warmupInstructions = scale.warmupInstructions;
    cfg.simInstructions = scale.simInstructions;
    return cfg;
}

/** Evenly spread workload indices covering the suite. */
inline std::vector<unsigned>
workloadIndices(const BenchScale &scale)
{
    std::vector<unsigned> idx;
    unsigned n = scale.numWorkloads;
    for (unsigned i = 0; i < n; ++i)
        idx.push_back(i * numQmmWorkloads / n);
    return idx;
}

/** QMM workload parameters for a set of suite indices. */
inline std::vector<ServerWorkloadParams>
qmmParams(const std::vector<unsigned> &indices)
{
    std::vector<ServerWorkloadParams> params;
    params.reserve(indices.size());
    for (unsigned i : indices)
        params.push_back(qmmWorkloadParams(i));
    return params;
}

/** Print the standard bench header. */
inline void
header(const char *figure, const char *description,
       const BenchScale &scale)
{
    std::printf("==========================================================\n");
    std::printf("%s: %s\n", figure, description);
    std::printf("mode: %s (%u workloads, %llu warmup + %llu measured "
                "instructions)\n",
                scale.full ? "FULL" : "quick (set MORRIGAN_FULL=1 for "
                                      "the full suite)",
                scale.numWorkloads,
                static_cast<unsigned long long>(
                    scale.warmupInstructions),
                static_cast<unsigned long long>(
                    scale.simInstructions));
    std::printf("==========================================================\n");
    BenchArtifact::instance().beginSection(figure, description,
                                           scale);
}

/** Print one labelled measured-vs-paper row. */
inline void
row(const std::string &label, double measured, const char *unit,
    const char *paper_note)
{
    std::printf("  %-28s %8.2f %-6s %s\n", label.c_str(), measured,
                unit, paper_note);
    BenchArtifact::instance().addRow(label, measured, unit,
                                     paper_note);
}

} // namespace morrigan::bench

#endif // MORRIGAN_BENCH_BENCH_UTIL_HH
