#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "json.hh"
#include "logging.hh"

namespace ser
{
namespace statistics
{

StatBase::StatBase(StatGroup *parent, std::string name,
                   std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (parent)
        parent->addStat(this);
}

void
StatBase::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << _name << " " << value() << " # " << _desc << "\n";
}

void
StatBase::dumpJson(json::JsonWriter &jw) const
{
    jw.value(value());
}

double
Average::value() const
{
    return _count ? _sum / static_cast<double>(_count) : 0.0;
}

void
Average::reset()
{
    _sum = 0.0;
    _min = std::numeric_limits<double>::infinity();
    _max = -std::numeric_limits<double>::infinity();
    _count = 0;
}

void
Average::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::mean " << value() << " # " << desc()
       << "\n";
    os << prefix << name() << "::count " << _count << "\n";
    if (_count) {
        os << prefix << name() << "::min " << _min << "\n";
        os << prefix << name() << "::max " << _max << "\n";
    }
}

void
Average::dumpJson(json::JsonWriter &jw) const
{
    jw.beginObject();
    jw.kv("mean", value());
    jw.kv("min", minValue());
    jw.kv("max", maxValue());
    jw.kv("count", _count);
    jw.endObject();
}

Distribution::Distribution(StatGroup *parent, std::string name,
                           std::string desc, double min, double max,
                           double bucket_size)
    : StatBase(parent, std::move(name), std::move(desc)),
      _min(min), _max(max), _bucketSize(bucket_size)
{
    if (bucket_size <= 0.0 || max <= min)
        SER_PANIC("Distribution {}: bad bucket spec [{}, {}) / {}",
                  this->name(), min, max, bucket_size);
    auto n = static_cast<std::size_t>(
        std::ceil((max - min) / bucket_size));
    _buckets.assign(n, 0);
}

double
Distribution::value() const
{
    return _count ? _sum / static_cast<double>(_count) : 0.0;
}

double
Distribution::percentile(double p) const
{
    if (!_count)
        return 0.0;
    if (p <= 0.0)
        return _min;
    if (p > 100.0)
        p = 100.0;
    // The sample of rank 'target' (1-based) is the percentile; walk
    // the cumulative counts until the rank falls inside a bucket and
    // interpolate linearly within it.
    double target = p / 100.0 * static_cast<double>(_count);
    double cum = static_cast<double>(_underflow);
    if (target <= cum)
        return _min;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        double b = static_cast<double>(_buckets[i]);
        if (b > 0.0 && target <= cum + b) {
            double lo = _min + static_cast<double>(i) * _bucketSize;
            return lo + (target - cum) / b * _bucketSize;
        }
        cum += b;
    }
    return _max;  // the rank lives in the overflow bin
}

std::uint64_t
Distribution::bucketCount(std::size_t i) const
{
    if (i >= _buckets.size())
        SER_PANIC("Distribution {}: bucket {} out of range", name(), i);
    return _buckets[i];
}

void
Distribution::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _underflow = _overflow = _count = 0;
    _sum = 0.0;
}

void
Distribution::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::mean " << value() << " # " << desc()
       << "\n";
    os << prefix << name() << "::count " << _count << "\n";
    if (_count) {
        os << prefix << name() << "::p50 " << percentile(50) << "\n";
        os << prefix << name() << "::p90 " << percentile(90) << "\n";
        os << prefix << name() << "::p99 " << percentile(99) << "\n";
    }
    if (_underflow)
        os << prefix << name() << "::underflows " << _underflow << "\n";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (!_buckets[i])
            continue;
        double lo = _min + static_cast<double>(i) * _bucketSize;
        os << prefix << name() << "::[" << lo << ","
           << lo + _bucketSize << ") " << _buckets[i] << "\n";
    }
    if (_overflow)
        os << prefix << name() << "::overflows " << _overflow << "\n";
}

void
Distribution::dumpJson(json::JsonWriter &jw) const
{
    jw.beginObject();
    jw.kv("mean", value());
    jw.kv("count", _count);
    jw.kv("p50", percentile(50));
    jw.kv("p90", percentile(90));
    jw.kv("p99", percentile(99));
    jw.kv("min", _min);
    jw.kv("bucket_size", _bucketSize);
    jw.kv("underflows", _underflow);
    jw.kv("overflows", _overflow);
    jw.key("buckets").beginArray();
    for (std::uint64_t bucket : _buckets)
        jw.value(bucket);
    jw.endArray();
    jw.endObject();
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : _name(std::move(name)), _parent(parent)
{
    if (_parent)
        _parent->_children.push_back(this);
}

StatGroup::~StatGroup()
{
    if (_parent) {
        auto &sibs = _parent->_children;
        sibs.erase(std::remove(sibs.begin(), sibs.end(), this),
                   sibs.end());
    }
}

void
StatGroup::addStat(StatBase *stat)
{
    _stats.push_back(stat);
}

void
StatGroup::dumpStats(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? _name : prefix + "." + _name;
    if (!full.empty())
        full += ".";
    for (const auto *stat : _stats)
        stat->print(os, full);
    std::string child_prefix =
        prefix.empty() ? _name : prefix + "." + _name;
    for (const auto *child : _children)
        child->dumpStats(os, child_prefix);
}

void
StatGroup::dumpJson(json::JsonWriter &jw) const
{
    jw.key(_name);
    jw.beginObject();
    for (const auto *stat : _stats) {
        jw.key(stat->name());
        stat->dumpJson(jw);
    }
    for (const auto *child : _children)
        child->dumpJson(jw);
    jw.endObject();
}

void
StatGroup::resetStats()
{
    for (auto *stat : _stats)
        stat->reset();
    for (auto *child : _children)
        child->resetStats();
}

const StatBase *
StatGroup::findStat(const std::string &name) const
{
    for (const auto *stat : _stats) {
        if (stat->name() == name)
            return stat;
    }
    return nullptr;
}

} // namespace statistics
} // namespace ser
