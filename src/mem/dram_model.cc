#include "dram_model.hh"

#include "common/logging.hh"

namespace morrigan
{

DramModel::DramModel(const DramParams &params, StatGroup *parent)
    : params_(params),
      stats_("dram", parent),
      accessesStat_(&stats_, "accesses", "DRAM accesses"),
      rowHits_(&stats_, "row_hits", "open-row hits"),
      rowConflicts_(&stats_, "row_conflicts", "row-buffer conflicts")
{
    fatal_if(params_.banks == 0, "DRAM needs at least one bank");
    openRow_.assign(params_.banks, -1);
}

Cycle
DramModel::access(Addr addr)
{
    ++accessesStat_;
    std::uint64_t row = addr / params_.rowBytes;
    std::uint32_t bank =
        static_cast<std::uint32_t>(row % params_.banks);
    row /= params_.banks;

    Cycle latency;
    if (openRow_[bank] == static_cast<std::int64_t>(row)) {
        // Row-buffer hit: only tCAS.
        ++rowHits_;
        latency = params_.tParam;
    } else {
        // Precharge + activate + CAS.
        ++rowConflicts_;
        latency = 3 * params_.tParam;
        openRow_[bank] = static_cast<std::int64_t>(row);
    }
    return latency;
}

void
DramModel::visit(Archive &ar)
{
    ar.section("dram");
    ar.expect(openRow_.size(), "DRAM bank count");
    for (std::int64_t &row : openRow_)
        ar.i64(row);
}

} // namespace morrigan
