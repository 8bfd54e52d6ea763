#include "server_workload.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.hh"

namespace morrigan
{

namespace
{

/** Base VPN of the first code segment. */
constexpr Vpn codeBaseVpn = 0x10000;

/** Base VPN of the hot data region. */
constexpr Vpn dataHotBase0 = 0x8000000;

/** Base VPN of the cold data region. */
constexpr Vpn dataColdBase0 = 0x10000000;

} // anonymous namespace

ServerWorkload::ServerWorkload(const ServerWorkloadParams &params)
    : params_(params),
      rng_(params.seed, 0x777),
      hotZipf_(std::min(params.hotCodePages, params.codePages),
               params.zipfTheta),
      typeZipf_(params.numRequestTypes, params.typeZipfTheta),
      dataZipf_(params.dataHotPages, params.dataHotZipf),
      lineZipf_(pageBytes / lineBytes, 0.9),
      dataHotBase_(dataHotBase0),
      dataColdBase_(dataColdBase0)
{
    fatal_if(params_.codePages < 16, "code footprint too small");
    fatal_if(params_.codeSegments == 0, "need at least one segment");
    fatal_if(params_.numRequestTypes == 0, "need request types");
    layoutPages();
    buildAllPaths();
    nextPhaseAt_ = params_.phaseInterval;
    startRequest();
}

void
ServerWorkload::layoutPages()
{
    std::uint32_t n = params_.codePages;

    // Scatter the code pages across segments; VPNs are contiguous
    // within a segment so near hops yield small deltas.
    pageVpn_.resize(n);
    std::uint32_t per_segment =
        (n + params_.codeSegments - 1) / params_.codeSegments;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t seg = i / per_segment;
        std::uint32_t off = i % per_segment;
        // Irregular inter-segment spacing, as produced by mmap
        // randomisation: perfectly aligned segments would alias in
        // any partial-tag indexed structure. The 521-page jitter
        // keeps spacing non-power-of-two without inflating the span
        // beyond what real loaders produce.
        pageVpn_[i] = codeBaseVpn +
                      seg * (per_segment + params_.segmentGapPages) +
                      seg * 521u + off;
    }

    // Tier permutation: rank r maps to a page index. The shuffle is
    // block-grained (32-page blocks) rather than page-grained:
    // linkers and JITs cluster code of similar hotness, so a near
    // hop from a warm page lands on another warm page. A fully
    // uniform permutation would make near hops smear visits across
    // all tiers and destroy the miss concentration of Figure 6.
    constexpr std::uint32_t blockPages = 32;
    std::uint32_t num_blocks = (n + blockPages - 1) / blockPages;
    std::vector<std::uint32_t> blocks(num_blocks);
    for (std::uint32_t b = 0; b < num_blocks; ++b)
        blocks[b] = b;
    for (std::uint32_t b = num_blocks - 1; b > 0; --b) {
        std::uint32_t j = rng_.below(b + 1);
        std::swap(blocks[b], blocks[j]);
    }
    rankToPage_.clear();
    rankToPage_.reserve(n);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
        for (std::uint32_t i = 0; i < blockPages; ++i) {
            std::uint32_t page = blocks[b] * blockPages + i;
            if (page < n)
                rankToPage_.push_back(page);
        }
    }
}

std::uint32_t
ServerWorkload::samplePopularPage()
{
    std::uint32_t n = params_.codePages;
    std::uint32_t hot = std::min(params_.hotCodePages, n);
    std::uint32_t warm = std::min(params_.warmCodePages, n - hot);
    std::uint32_t cold = n - hot - warm;

    double u = rng_.uniform();
    if (u < params_.hotShare || (warm == 0 && cold == 0))
        return rankToPage_[hotZipf_.sample(rng_)];
    u -= params_.hotShare;
    if ((u < params_.warmShare && warm != 0) || cold == 0)
        return rankToPage_[hot + rng_.below(warm)];
    return rankToPage_[hot + warm + rng_.below(cold)];
}

std::vector<std::uint32_t>
ServerWorkload::buildPath(std::uint32_t type)
{
    std::uint32_t n = params_.codePages;
    std::uint32_t hot = std::min(params_.hotCodePages, n);
    std::uint32_t warm = std::min(params_.warmCodePages, n - hot);
    std::uint32_t len =
        params_.meanPathLength / 2 +
        rng_.below(params_.meanPathLength);  // ~uniform around mean
    if (len < 4)
        len = 4;

    // Warm pages are mostly path-private: each request type draws
    // its per-request code from its own slice of the warm band, with
    // a 50% overlap with the neighbouring type. This is what makes
    // the most-missing pages also the most successor-stable ones
    // (Figure 8): a warm page's misses repeat the same path context.
    std::uint32_t slice_len =
        warm != 0
            ? std::max<std::uint32_t>(
                  1, 2 * warm / params_.numRequestTypes)
            : 0;
    std::uint32_t slice_start = warm != 0 ? type % warm : 0;

    std::vector<std::uint32_t> path;
    path.reserve(len);
    std::uint32_t cur = rankToPage_[hotZipf_.sample(rng_)];
    path.push_back(cur);
    while (path.size() < len) {
        std::uint32_t nxt;
        if (rng_.chance(params_.pNearSuccessor)) {
            // Near hop within the same 32-page hotness block (the
            // linker clusters functions of similar temperature, so
            // intra-library hops stay within the cluster).
            std::int64_t delta = 1 + rng_.below(10);
            if (rng_.chance(0.5))
                delta = -delta;
            std::int64_t t = static_cast<std::int64_t>(cur) + delta;
            std::int64_t lo = static_cast<std::int64_t>(cur & ~31u);
            std::int64_t hi =
                std::min<std::int64_t>(lo + 31, n - 1);
            if (t < lo)
                t = lo + (lo - t - 1) % (hi - lo + 1);
            else if (t > hi)
                t = hi - (t - hi - 1) % (hi - lo + 1);
            nxt = static_cast<std::uint32_t>(t);
        } else {
            double u = rng_.uniform();
            if (u < params_.hotShare || warm == 0) {
                nxt = rankToPage_[hotZipf_.sample(rng_)];
            } else if (u < params_.hotShare + params_.warmShare) {
                // Interleaved slice: the type's warm pages are
                // spread across the whole warm band (stride =
                // numRequestTypes) so consecutive warm pages of a
                // path live in different hotness blocks and the
                // inter-miss deltas span the footprint (Figure 5).
                std::uint32_t r;
                if (rng_.chance(0.65)) {
                    // Clustered half: contiguous slice, so runs of
                    // warm misses share PTE cache lines (small
                    // deltas; page-table-locality wins).
                    r = (slice_start * slice_len / 2 +
                         rng_.below(slice_len)) % warm;
                } else {
                    // Scattered half: strided slice spanning the
                    // warm band (large deltas; Markov-slot wins).
                    r = (slice_start +
                         params_.numRequestTypes *
                             rng_.below(slice_len)) % warm;
                }
                nxt = rankToPage_[hot + r];
            } else {
                nxt = samplePopularPage();
            }
        }
        if (nxt == cur)
            continue;
        path.push_back(nxt);
        cur = nxt;
    }
    return path;
}

void
ServerWorkload::buildAllPaths()
{
    paths_.clear();
    paths_.reserve(params_.numRequestTypes);
    for (std::uint32_t t = 0; t < params_.numRequestTypes; ++t)
        paths_.push_back(buildPath(t));
}

void
ServerWorkload::phaseChange()
{
    // The request mix shifts: a fraction of request types start
    // exercising new code paths (new feature flags, JIT recompiles,
    // different query shapes).
    ++phaseChanges_;
    auto count = static_cast<std::uint32_t>(
        params_.numRequestTypes * params_.phaseShuffleFraction);
    for (std::uint32_t c = 0; c < count; ++c) {
        std::uint32_t t = rng_.below(params_.numRequestTypes);
        paths_[t] = buildPath(t);
    }
}

void
ServerWorkload::startRequest()
{
    currentType_ = static_cast<std::uint32_t>(typeZipf_.sample(rng_));
    pathPos_ = 0;
    currentPage_ = paths_[currentType_][0];
    deviating_ = false;
}

Addr
ServerWorkload::sampleDataAddr()
{
    double u = rng_.uniform();
    if (u < params_.dataStreamFraction) {
        // Streaming scan: advances one line per access through the
        // cold region, touching a new page every 64 accesses. The
        // explicit wrap (streamPos_ only ever grows by one) spares a
        // 64-bit division per draw.
        if (++streamPos_ >=
            static_cast<std::uint64_t>(params_.dataColdPages) *
                (pageBytes / lineBytes))
            streamPos_ = 0;
        return (dataColdBase_ << pageShift) + streamPos_ * lineBytes;
    }
    u -= params_.dataStreamFraction;
    if (u < params_.dataColdProb) {
        // Pointer-chase into the cold tail: almost always a dSTLB
        // miss with poor PTE cache locality.
        Vpn vpn = dataColdBase_ + rng_.below(params_.dataColdPages);
        Addr offset =
            rng_.below(static_cast<std::uint32_t>(pageBytes));
        return (vpn << pageShift) + (offset & ~Addr{7});
    }
    Vpn vpn = dataHotBase_ + dataZipf_.sample(rng_);
    // Hot accesses exhibit line-level locality too: the touched
    // lines within a hot page are heavily skewed, keeping the data
    // cache working set realistic.
    Addr line = lineZipf_.sample(rng_);
    return (vpn << pageShift) + line * lineBytes +
           rng_.below(lineBytes / 8) * 8;
}

TraceRecord
ServerWorkload::next()
{
    if (params_.phaseInterval != 0 && instrCount_ >= nextPhaseAt_) {
        phaseChange();
        nextPhaseAt_ += params_.phaseInterval;
    }

    if (runRemaining_ == 0) {
        // Advance along the request path (or finish the deviation).
        if (deviating_) {
            deviating_ = false;
            // A phase change during the deviation may have rebuilt
            // this request's path shorter than pathPos_.
            if (pathPos_ >= paths_[currentType_].size())
                startRequest();
            else
                currentPage_ = paths_[currentType_][pathPos_];
        } else if (rng_.chance(params_.pDeviate)) {
            deviating_ = true;
            currentPage_ = rankToPage_[hotZipf_.sample(rng_)];
        } else {
            ++pathPos_;
            if (pathPos_ >= paths_[currentType_].size()) {
                startRequest();
            } else {
                currentPage_ = paths_[currentType_][pathPos_];
            }
        }
        currentOffset_ = rng_.below(
            static_cast<std::uint32_t>(pageBytes));
        currentOffset_ &= ~Addr{3};
        // Geometric run length with the configured mean.
        double u = rng_.uniform();
        runRemaining_ = 1 + static_cast<std::uint64_t>(
            -params_.meanRunLength * std::log(1.0 - u));
    }

    TraceRecord rec;
    rec.pc = (pageVpn_[currentPage_] << pageShift) + currentOffset_;
    currentOffset_ += 4;
    if (currentOffset_ >= pageBytes)
        currentOffset_ = 0;
    --runRemaining_;
    ++instrCount_;

    if (rng_.chance(params_.dataAccessProb)) {
        rec.hasData = true;
        rec.dataAddr = sampleDataAddr();
    }
    return rec;
}

void
ServerWorkload::nextBlock(TraceRecord *out, unsigned n)
{
    // Same record/RNG sequence as n calls through the base class; the
    // override exists so the simulator's block loop devirtualises the
    // per-instruction call and keeps the generator state hot.
    for (unsigned i = 0; i < n; ++i)
        out[i] = next();
}

std::vector<std::pair<Vpn, std::uint64_t>>
ServerWorkload::mappedRegions() const
{
    std::vector<std::pair<Vpn, std::uint64_t>> regions;
    std::uint32_t n = params_.codePages;
    std::uint32_t per_segment =
        (n + params_.codeSegments - 1) / params_.codeSegments;
    for (std::uint32_t seg = 0; seg < params_.codeSegments; ++seg) {
        std::uint32_t first = seg * per_segment;
        if (first >= n)
            break;
        std::uint32_t count = std::min(per_segment, n - first);
        regions.emplace_back(pageOf(pageBase(pageVpn_[first])), count);
    }
    if (!params_.dataHugePages) {
        // Only the hot data region is premapped; the cold tail is
        // demand-allocated (first touch), keeping construction cheap.
        regions.emplace_back(dataHotBase_, params_.dataHotPages);
    }
    return regions;
}

std::vector<std::pair<Vpn, std::uint64_t>>
ServerWorkload::largeMappedRegions() const
{
    if (!params_.dataHugePages)
        return {};
    // THP maps the whole data footprint with 2MB pages up front.
    return {{dataHotBase_, params_.dataHotPages},
            {dataColdBase_, params_.dataColdPages}};
}

int
ServerWorkload::tierOfVpn(Vpn vpn) const
{
    std::uint32_t n = params_.codePages;
    std::uint32_t hot = std::min(params_.hotCodePages, n);
    std::uint32_t warm = std::min(params_.warmCodePages, n - hot);
    for (std::uint32_t r = 0; r < n; ++r) {
        if (pageVpn_[rankToPage_[r]] == vpn) {
            if (r < hot)
                return 0;
            if (r < hot + warm)
                return 1;
            return 2;
        }
    }
    return -1;
}

void
ServerWorkload::save(SnapshotWriter &w) const
{
    w.section("server_workload");
    w.str(params_.name);
    rng_.save(w);

    // Paths mutate at phase changes, so they are position state.
    w.u32(static_cast<std::uint32_t>(paths_.size()));
    for (const auto &path : paths_) {
        w.u32(static_cast<std::uint32_t>(path.size()));
        for (std::uint32_t page : path)
            w.u32(page);
    }

    w.u32(currentType_);
    w.u64(pathPos_);
    w.u32(currentPage_);
    w.u64(currentOffset_);
    w.u64(runRemaining_);
    w.u64(instrCount_);
    w.u64(nextPhaseAt_);
    w.u64(phaseChanges_);
    w.b(deviating_);
    w.u64(streamPos_);
}

void
ServerWorkload::restore(SnapshotReader &r)
{
    r.section("server_workload");
    std::string name = r.str();
    if (name != params_.name)
        throw SnapshotError("workload name mismatch: snapshot has '" +
                            name + "', expected '" + params_.name +
                            "'");
    rng_.restore(r);

    std::uint32_t num_paths = r.u32();
    if (num_paths != params_.numRequestTypes)
        throw SnapshotError("workload '" + params_.name +
                            "': request-type count mismatch");
    paths_.clear();
    paths_.reserve(num_paths);
    for (std::uint32_t t = 0; t < num_paths; ++t) {
        std::uint32_t len = r.u32();
        std::vector<std::uint32_t> path;
        path.reserve(len);
        for (std::uint32_t i = 0; i < len; ++i) {
            std::uint32_t page = r.u32();
            if (page >= params_.codePages)
                throw SnapshotError("workload '" + params_.name +
                                    "': path page out of range");
            path.push_back(page);
        }
        paths_.push_back(std::move(path));
    }

    currentType_ = r.u32();
    pathPos_ = r.u64();
    currentPage_ = r.u32();
    currentOffset_ = r.u64();
    runRemaining_ = r.u64();
    instrCount_ = r.u64();
    nextPhaseAt_ = r.u64();
    phaseChanges_ = r.u64();
    deviating_ = r.b();
    streamPos_ = r.u64();
    if (currentType_ >= paths_.size() ||
        pathPos_ >= paths_[currentType_].size() ||
        currentPage_ >= params_.codePages)
        throw SnapshotError("workload '" + params_.name +
                            "': run state out of range");
}

std::uint32_t
ServerWorkload::successorCount(std::uint32_t index) const
{
    std::unordered_set<std::uint32_t> succ;
    for (const auto &path : paths_) {
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
            if (path[i] == index)
                succ.insert(path[i + 1]);
    }
    return static_cast<std::uint32_t>(succ.size());
}

} // namespace morrigan
