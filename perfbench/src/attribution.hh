/**
 * @file
 * Per-layer attribution of one representative simulation.
 *
 * The job runs once through the public Simulator API with the
 * simulator's own telemetry armed; its SimResult, stats tree and
 * telemetry phase report supply the exact counts. Host time per layer
 * is then estimated from outside the program: the job's own input
 * stream is regenerated and replayed through fresh instances of each
 * layer's public API (ServerWorkload::nextBlock, TlbHierarchy::lookup,
 * MemoryHierarchy::access, PageTableWalker::walk,
 * TlbPrefetcher::onInstrStlbMiss), each replay loop timed by a
 * benchmark span. Layer shares are replay time over the simulation's
 * wall time; sim.unattributed_share is the remainder.
 */

#ifndef PERFBENCH_ATTRIBUTION_HH
#define PERFBENCH_ATTRIBUTION_HH

#include <string>

#include "bench.hh"

namespace perfbench
{

/**
 * Attribute @p job (single-thread, unchecked) and add the layer
 * metrics to @p rep. The run's result is settled in @p ledger, and so
 * is the result of a second simulator restored from the first's
 * warmup image, which simulates the whole measured phase again (the
 * round trip must reproduce the result bit for bit). The image goes
 * to @p work_dir.
 */
void attribute(const morrigan::ExperimentJob &job,
               const std::string &work_dir, Ledger &ledger, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_ATTRIBUTION_HH
