/**
 * @file
 * The benchmark's four workloads. Each takes its inputs from the
 * benchmark seed, measures for Args::seconds, settles every
 * simulation in the ledger, and adds either the end-to-end metrics
 * (untraced run) or the per-layer metrics (traced run) to the report.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench.hh"

namespace perfbench
{

/** Back-to-back single-thread Morrigan simulations of QMM workloads
 * through the public Simulator API. */
void runServer(const Args &args, Ledger &ledger, Report &rep);

/** The same shape on the SPEC-like workloads. */
void runData(const Args &args, Ledger &ledger, Report &rep);

/** A Figure-15-style baseline + Morrigan sweep through
 * runBatchOutcomes, cold pass then resume pass. */
void runCampaign(const Args &args, Ledger &ledger, Report &rep);

/** A checked fuzz campaign (fuzz::runCampaign, M1-M6). */
void runFuzz(const Args &args, Ledger &ledger, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
