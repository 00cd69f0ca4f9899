/**
 * @file
 * A small hierarchical statistics package in the spirit of gem5's.
 *
 * Components own a StatGroup; individual statistics register
 * themselves with the group at construction. A group can dump all of
 * its statistics (and those of its child groups) as a name/value
 * table, and can reset them between measurement regions.
 *
 * Supported statistic kinds:
 *  - Scalar: a monotonically adjusted counter / accumulator.
 *  - Average: accumulates samples, reports mean / min / max / count.
 *  - Distribution: fixed-bucket histogram with underflow/overflow.
 */

#ifndef SER_SIM_STATS_HH
#define SER_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace ser
{

namespace json
{
class JsonWriter;
}

namespace statistics
{

class StatGroup;

/** Abstract base for every statistic. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Primary scalar value of this statistic (mean for Average). */
    virtual double value() const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

    /** Print one or more "name value # desc" lines. */
    virtual void print(std::ostream &os,
                       const std::string &prefix) const;

    /** Emit this statistic's value node (the caller wrote the key).
     * Scalars and formulas emit a bare number; multi-valued kinds
     * emit an object. */
    virtual void dumpJson(json::JsonWriter &jw) const;

  private:
    std::string _name;
    std::string _desc;
};

/** A simple additive counter. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { _value += 1.0; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const override { return _value; }
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** Mean / min / max / count over a stream of samples. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    /**
     * Record `weight` identical observations of `v` in one call
     * (mirrors Distribution::sample). The accumulation is exact for
     * the integral values the pipeline samples — `v * weight` equals
     * `weight` repeated additions whenever both fit in the 53-bit
     * mantissa — which is what lets the cycle-skipping scheduler fold
     * a whole idle span into a single weighted sample without
     * perturbing any printed statistic.
     *
     * Defined inline: the pipeline samples several averages every
     * simulated cycle, and the body is a handful of scalar ops.
     */
    void sample(double v, std::uint64_t weight = 1)
    {
        if (weight == 0)
            return;
        _sum += v * static_cast<double>(weight);
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
        _count += weight;
    }

    double value() const override;  // the mean
    std::uint64_t count() const { return _count; }
    double total() const { return _sum; }
    double minValue() const { return _count ? _min : 0.0; }
    double maxValue() const { return _count ? _max : 0.0; }

    void reset() override;
    void print(std::ostream &os,
               const std::string &prefix) const override;
    void dumpJson(json::JsonWriter &jw) const override;

  private:
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
    std::uint64_t _count = 0;
};

/** Fixed-width-bucket histogram with underflow and overflow bins. */
class Distribution : public StatBase
{
  public:
    Distribution(StatGroup *parent, std::string name, std::string desc,
                 double min, double max, double bucket_size);

    /** Inline for the same reason as Average::sample — it sits on
     * the pipeline's per-cycle path (issue-width histogram). */
    void sample(double v, std::uint64_t weight = 1)
    {
        _count += weight;
        _sum += v * static_cast<double>(weight);
        if (v < _min) {
            _underflow += weight;
        } else if (v >= _max) {
            _overflow += weight;
        } else {
            auto idx =
                static_cast<std::size_t>((v - _min) / _bucketSize);
            if (idx >= _buckets.size())
                idx = _buckets.size() - 1;
            _buckets[idx] += weight;
        }
    }

    double value() const override;  // the mean
    /**
     * Exact percentile from linear interpolation inside the bucket
     * the rank falls into (p in [0, 100]). Underflowed samples pin
     * to the range minimum and overflowed samples to the range
     * maximum — the histogram does not know their true values.
     * Returns 0 when no samples have been recorded.
     */
    double percentile(double p) const;
    std::uint64_t count() const { return _count; }
    std::uint64_t bucketCount(std::size_t i) const;
    std::size_t numBuckets() const { return _buckets.size(); }
    std::uint64_t underflows() const { return _underflow; }
    std::uint64_t overflows() const { return _overflow; }

    void reset() override;
    void print(std::ostream &os,
               const std::string &prefix) const override;
    void dumpJson(json::JsonWriter &jw) const override;

  private:
    double _min;
    double _max;
    double _bucketSize;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _count = 0;
    double _sum = 0.0;
};

/**
 * A named collection of statistics and child groups.
 *
 * Groups form a tree; dump() walks the tree and prints fully
 * qualified statistic names ("cpu.iq.occupancy ...").
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a statistic (called by StatBase's constructor). */
    void addStat(StatBase *stat);

    /** Print every statistic in this group and its children. */
    void dumpStats(std::ostream &os,
                   const std::string &prefix = "") const;

    /** Emit this group (and its children) as a JSON object member:
     * `"name": { "stat": value, ..., "child": { ... } }`. Must be
     * called inside an open JSON object. */
    void dumpJson(json::JsonWriter &jw) const;

    /** Reset every statistic in this group and its children. */
    void resetStats();

    /** Find a statistic in this group by local name, or nullptr. */
    const StatBase *findStat(const std::string &name) const;

  private:
    std::string _name;
    StatGroup *_parent;
    std::vector<StatBase *> _stats;
    std::vector<StatGroup *> _children;
};

} // namespace statistics
} // namespace ser

#endif // SER_SIM_STATS_HH
