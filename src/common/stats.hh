/**
 * @file
 * Lightweight statistics package.
 *
 * Each simulated component owns a StatGroup; scalar counters,
 * formulas, histograms and distributions register themselves with the
 * group so the simulator can dump a uniform, alphabetised report.
 * Modeled loosely on gem5's stats package, trimmed to what the
 * reproduction needs.
 */

#ifndef MORRIGAN_COMMON_STATS_HH
#define MORRIGAN_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace morrigan
{

class Archive;
class StatGroup;
class Counter;
class Histogram;
class Distribution;

/**
 * Visitor over a StatGroup subtree.
 *
 * visit(StatVisitor&) walks the tree depth-first, bracketing each
 * group with groupBegin()/groupEnd() and presenting every registered
 * stat in between. The JSON serializer is built on this; exporters
 * with other formats (CSV, protobuf, ...) plug in the same way.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void groupBegin(const StatGroup &group) = 0;
    virtual void groupEnd(const StatGroup &group) = 0;
    virtual void visit(const Counter &c) = 0;
    virtual void visit(const Histogram &h) = 0;
    virtual void visit(const Distribution &d) = 0;
};

/** A monotonically increasing 64-bit event counter. */
class Counter
{
  public:
    Counter(StatGroup *group, std::string name, std::string desc);

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    void visit(Archive &ar);

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/** A bucketed histogram over unsigned sample values. */
class Histogram
{
  public:
    /**
     * @param buckets Upper bounds (inclusive) of each bucket; samples
     * above the last bound land in an implicit overflow bucket.
     */
    Histogram(StatGroup *group, std::string name, std::string desc,
              std::vector<std::uint64_t> buckets);

    void sample(std::uint64_t v, std::uint64_t count = 1);

    std::uint64_t totalSamples() const { return samples_; }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t bucketBound(std::size_t i) const;
    void reset();

    void visit(Archive &ar);

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::vector<std::uint64_t> bounds_;
    std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 entries
    std::uint64_t samples_ = 0;
};

/** Running mean/min/max over sampled values. */
class Distribution
{
  public:
    Distribution(StatGroup *group, std::string name, std::string desc);

    void sample(double v);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }
    void reset();

    void visit(Archive &ar);

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A named collection of statistics belonging to one component.
 *
 * Groups may nest; dump() walks the subtree depth-first.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    const std::string &name() const { return name_; }

    /** Fully qualified dotted path from the root group. */
    std::string path() const;

    /** Print every registered stat in this subtree. */
    void dump(std::ostream &os) const;

    /**
     * Walk this subtree depth-first, presenting every registered
     * stat to @p v between groupBegin()/groupEnd() brackets.
     */
    void visit(StatVisitor &v) const;

    /**
     * Serialize this subtree as one JSON object:
     * {"counters":{name:{"value":..,"desc":..}},
     *  "distributions":{name:{"count","mean","min","max","sum","desc"}},
     *  "histograms":{name:{"samples","bounds":[..],"counts":[..],"desc"}},
     *  "groups":{child-name:{...}}}
     * The document-level schema version is json::statsSchemaVersion.
     */
    void writeJson(std::ostream &os) const;

    /** Zero every registered stat in this subtree. */
    void resetAll();

    /**
     * Save or restore every stat in this subtree, depth-first in
     * registration order. Group names and stat counts are embedded so
     * loading detects any mismatch between the saved tree and the
     * live one (e.g. a different component configuration).
     *
     * @throws SnapshotError on any structural mismatch.
     */
    void visit(Archive &ar);

  private:
    friend class Counter;
    friend class Histogram;
    friend class Distribution;

    void add(Counter *c) { counters_.push_back(c); }
    void add(Histogram *h) { histograms_.push_back(h); }
    void add(Distribution *d) { distributions_.push_back(d); }

    std::string name_;
    StatGroup *parent_;
    std::vector<StatGroup *> children_;
    std::vector<Counter *> counters_;
    std::vector<Histogram *> histograms_;
    std::vector<Distribution *> distributions_;
};

/** Geometric mean of a vector of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace morrigan

#endif // MORRIGAN_COMMON_STATS_HH
