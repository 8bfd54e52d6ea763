#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "json.hh"
#include "logging.hh"
#include "snapshot.hh"

namespace morrigan
{

Counter::Counter(StatGroup *group, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    if (group)
        group->add(this);
}

Histogram::Histogram(StatGroup *group, std::string name, std::string desc,
                     std::vector<std::uint64_t> buckets)
    : name_(std::move(name)), desc_(std::move(desc)),
      bounds_(std::move(buckets))
{
    panic_if(bounds_.empty(), "histogram %s has no buckets",
             name_.c_str());
    panic_if(!std::is_sorted(bounds_.begin(), bounds_.end()),
             "histogram %s buckets not sorted", name_.c_str());
    counts_.assign(bounds_.size() + 1, 0);
    if (group)
        group->add(this);
}

void
Histogram::sample(std::uint64_t v, std::uint64_t count)
{
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    counts_[static_cast<std::size_t>(it - bounds_.begin())] += count;
    samples_ += count;
}

std::uint64_t
Histogram::bucketBound(std::size_t i) const
{
    if (i < bounds_.size())
        return bounds_[i];
    return std::numeric_limits<std::uint64_t>::max();
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    samples_ = 0;
}

Distribution::Distribution(StatGroup *group, std::string name,
                           std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    if (group)
        group->add(this);
}

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

void
Counter::visit(Archive &ar)
{
    ar.u64(value_);
}

void
Histogram::visit(Archive &ar)
{
    ar.u64(samples_);
    ar.expect(counts_.size(), "histogram bucket count");
    for (std::uint64_t &c : counts_)
        ar.u64(c);
}

void
Distribution::visit(Archive &ar)
{
    ar.u64(count_);
    ar.f64(sum_);
    ar.f64(min_);
    ar.f64(max_);
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

std::string
StatGroup::path() const
{
    if (!parent_)
        return name_;
    return parent_->path() + "." + name_;
}

void
StatGroup::dump(std::ostream &os) const
{
    std::string prefix = path();
    for (const Counter *c : counters_) {
        os << prefix << "." << c->name() << " " << c->value()
           << "  # " << c->desc() << "\n";
    }
    for (const Distribution *d : distributions_) {
        os << prefix << "." << d->name()
           << " count=" << d->count()
           << " mean=" << d->mean()
           << " min=" << d->min()
           << " max=" << d->max()
           << "  # " << d->desc() << "\n";
    }
    for (const Histogram *h : histograms_) {
        os << prefix << "." << h->name()
           << " samples=" << h->totalSamples();
        for (std::size_t i = 0; i < h->numBuckets(); ++i)
            os << " [" << i << "]=" << h->bucketCount(i);
        os << "  # " << h->desc() << "\n";
    }
    for (const StatGroup *child : children_)
        child->dump(os);
}

void
StatGroup::visit(StatVisitor &v) const
{
    v.groupBegin(*this);
    for (const Counter *c : counters_)
        v.visit(*c);
    for (const Distribution *d : distributions_)
        v.visit(*d);
    for (const Histogram *h : histograms_)
        v.visit(*h);
    for (const StatGroup *child : children_)
        child->visit(v);
    v.groupEnd(*this);
}

namespace
{

/** StatVisitor that renders the tree as nested JSON objects. */
class JsonStatVisitor : public StatVisitor
{
  public:
    explicit JsonStatVisitor(std::ostream &os) : w_(os) {}

    void
    groupBegin(const StatGroup &group) override
    {
        if (depth_ > 0) {
            // All of the parent's own stats were visited before its
            // first child; close any section still open.
            closeSections();
            if (!groupsOpen_.back()) {
                w_.key("groups").beginObject();
                groupsOpen_.back() = true;
            }
            w_.key(group.name());
        }
        w_.beginObject();
        groupsOpen_.push_back(false);
        ++depth_;
    }

    void
    groupEnd(const StatGroup &) override
    {
        closeSections();
        if (groupsOpen_.back())
            w_.endObject();  // "groups"
        groupsOpen_.pop_back();
        w_.endObject();
        --depth_;
    }

    void
    visit(const Counter &c) override
    {
        if (!countersOpen_) {
            w_.key("counters").beginObject();
            countersOpen_ = true;
        }
        w_.key(c.name()).beginObject();
        w_.kv("value", c.value());
        w_.kv("desc", c.desc());
        w_.endObject();
    }

    void
    visit(const Distribution &d) override
    {
        closeCounters();
        if (!distsOpen_) {
            w_.key("distributions").beginObject();
            distsOpen_ = true;
        }
        w_.key(d.name()).beginObject();
        w_.kv("count", d.count());
        w_.kv("mean", d.mean());
        w_.kv("min", d.min());
        w_.kv("max", d.max());
        w_.kv("sum", d.sum());
        w_.kv("desc", d.desc());
        w_.endObject();
    }

    void
    visit(const Histogram &h) override
    {
        closeCounters();
        closeDists();
        if (!histsOpen_) {
            w_.key("histograms").beginObject();
            histsOpen_ = true;
        }
        w_.key(h.name()).beginObject();
        w_.kv("samples", h.totalSamples());
        w_.key("bounds").beginArray();
        for (std::size_t i = 0; i + 1 < h.numBuckets(); ++i)
            w_.value(h.bucketBound(i));
        w_.endArray();
        w_.key("counts").beginArray();
        for (std::size_t i = 0; i < h.numBuckets(); ++i)
            w_.value(h.bucketCount(i));
        w_.endArray();
        w_.kv("desc", h.desc());
        w_.endObject();
    }

  private:
    // Stats of one kind are grouped under a shared key; a later kind
    // closes the earlier kind's object. Visit order within a group is
    // counters, then distributions, then histograms (see visit()).
    void closeCounters()
    {
        if (countersOpen_) {
            w_.endObject();
            countersOpen_ = false;
        }
    }
    void closeDists()
    {
        if (distsOpen_) {
            w_.endObject();
            distsOpen_ = false;
        }
    }
    void closeHists()
    {
        if (histsOpen_) {
            w_.endObject();
            histsOpen_ = false;
        }
    }
    void
    closeSections()
    {
        closeCounters();
        closeDists();
        closeHists();
    }

    json::Writer w_;
    std::vector<bool> groupsOpen_;
    bool countersOpen_ = false;
    bool distsOpen_ = false;
    bool histsOpen_ = false;
    unsigned depth_ = 0;
};

} // namespace

void
StatGroup::writeJson(std::ostream &os) const
{
    JsonStatVisitor v(os);
    visit(v);
}

void
StatGroup::resetAll()
{
    for (Counter *c : counters_)
        c->reset();
    for (Distribution *d : distributions_)
        d->reset();
    for (Histogram *h : histograms_)
        h->reset();
    for (StatGroup *child : children_)
        child->resetAll();
}

void
StatGroup::visit(Archive &ar)
{
    ar.section("stat_group");
    ar.expect(name_, "stat group");
    ar.expect(counters_.size(), "stat group counter count");
    for (Counter *c : counters_)
        c->visit(ar);
    ar.expect(distributions_.size(), "stat group distribution count");
    for (Distribution *d : distributions_)
        d->visit(ar);
    ar.expect(histograms_.size(), "stat group histogram count");
    for (Histogram *h : histograms_)
        h->visit(ar);
    ar.expect(children_.size(), "stat group child count");
    for (StatGroup *child : children_)
        child->visit(ar);
}

double
geomean(const std::vector<double> &values)
{
    panic_if(values.empty(), "geomean of empty vector");
    double acc = 0.0;
    for (double v : values) {
        panic_if(v <= 0.0, "geomean requires positive values, got %f", v);
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace morrigan
