/**
 * @file
 * Experiment-runner helpers shared by the benches, examples and
 * integration tests: construct a simulator for a workload + prefetcher
 * combination, run it, and compute the derived metrics the paper
 * reports (speedup over the no-prefetching baseline, geometric means,
 * normalized walk references).
 */

#ifndef MORRIGAN_SIM_EXPERIMENT_HH
#define MORRIGAN_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/prefetcher_registry.hh"
#include "sim/run_pool.hh"
#include "sim/supervisor.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/miss_stream_stats.hh"
#include "workload/server_workload.hh"

namespace morrigan
{

/** Run one workload through one configuration. */
SimResult runWorkload(const SimConfig &cfg, const std::string &kind,
                      const ServerWorkloadParams &workload);

/** Run with an externally constructed prefetcher (ablations). */
SimResult runWorkloadWith(const SimConfig &cfg,
                          TlbPrefetcher *prefetcher,
                          const ServerWorkloadParams &workload);

/** Run an SMT pair (two colocated workloads, Section 6.6). */
SimResult runSmtPair(const SimConfig &cfg, TlbPrefetcher *prefetcher,
                     const ServerWorkloadParams &a,
                     const ServerWorkloadParams &b);

// --- batch API (parallel, cached; see sim/supervisor.hh) ---

/**
 * Run a heterogeneous batch under the campaign supervisor (result
 * cache, fault containment, retries, journal, and the watchdog
 * under --isolate -- policy from Supervisor::defaultOptions()). One outcome per job, in
 * submission order; results are bit-identical to running each job
 * serially.
 */
std::vector<RunOutcome>
runBatchOutcomes(const std::vector<ExperimentJob> &jobs);

/**
 * runBatchOutcomes() for callers that only want results: failed
 * jobs get a warning and a default-constructed SimResult (ipc 0),
 * which the speedup helpers below treat as "row missing".
 */
std::vector<SimResult> runBatch(const std::vector<ExperimentJob> &jobs);

/** One (cfg, kind) across many workloads, in parallel. */
std::vector<SimResult>
runWorkloads(const SimConfig &cfg, const std::string &kind,
             const std::vector<ServerWorkloadParams> &workloads);

/** Baseline miss-stream collection across many workloads, in
 * parallel (Figures 5-8 analyses). */
std::vector<MissStreamStats>
collectMissStreams(const SimConfig &cfg,
                   const std::vector<ServerWorkloadParams> &workloads);

/** Percentage speedup of @p opt over @p base; NaN (with a warning)
 * when either run is missing (ipc <= 0, a failed supervised job). */
double speedupPct(const SimResult &base, const SimResult &opt);

/** Geometric-mean speedup (in %) over paired runs. Pairs with a
 * missing member are skipped with a warning (degraded campaigns);
 * NaN if no valid pair remains. */
double geomeanSpeedupPct(const std::vector<SimResult> &base,
                         const std::vector<SimResult> &opt);

/**
 * Bench scaling: default is a fast mode whose qualitative shapes
 * already hold; setting the environment variable MORRIGAN_FULL=1
 * selects the full suite with longer runs.
 */
struct BenchScale
{
    unsigned numWorkloads;
    std::uint64_t warmupInstructions;
    std::uint64_t simInstructions;
    bool full;
};

BenchScale benchScale(unsigned max_workloads = 45);

} // namespace morrigan

#endif // MORRIGAN_SIM_EXPERIMENT_HH
