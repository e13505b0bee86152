#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/log.hh"

namespace kelp {
namespace sim {

void
OnlineStats::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
OnlineStats::reset()
{
    *this = OnlineStats();
}

double
OnlineStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

Ewma::Ewma(double alpha, double initial)
    : alpha_(alpha), value_(initial)
{
    KELP_ASSERT(alpha > 0.0 && alpha <= 1.0, "Ewma alpha out of range");
}

double
Ewma::add(double x)
{
    if (!primed_) {
        value_ = x;
        primed_ = true;
    } else {
        value_ += alpha_ * (x - value_);
    }
    return value_;
}

void
Ewma::reset(double value)
{
    value_ = value;
    primed_ = false;
}

LatencyHistogram::LatencyHistogram(double min_value, double max_value,
                                   double growth)
    : minValue_(min_value), logMin_(std::log(min_value)),
      logGrowth_(std::log(growth))
{
    KELP_ASSERT(min_value > 0.0 && max_value > min_value && growth > 1.0,
                "bad LatencyHistogram parameters");
    size_t n = static_cast<size_t>(
        std::ceil((std::log(max_value) - logMin_) / logGrowth_)) + 2;
    buckets_.assign(n, 0);
}

size_t
LatencyHistogram::bucketFor(double x) const
{
    if (!(x > minValue_))
        return 0;
    double idx = (std::log(x) - logMin_) / logGrowth_;
    size_t i = static_cast<size_t>(idx) + 1;
    return std::min(i, buckets_.size() - 1);
}

double
LatencyHistogram::bucketLow(size_t i) const
{
    if (i == 0)
        return 0.0;
    return std::exp(logMin_ + logGrowth_ * static_cast<double>(i - 1));
}

double
LatencyHistogram::bucketHigh(size_t i) const
{
    return std::exp(logMin_ + logGrowth_ * static_cast<double>(i));
}

void
LatencyHistogram::add(double x)
{
    // NaN would otherwise fall into bucket 0 (every comparison on it
    // is false, including `x > minValue_`) and poison sum_ -- mean()
    // and every percentile after it would be NaN. Reject it as a
    // contract violation; in Count mode the sample is dropped and the
    // histogram stays well-formed.
    KELP_EXPECTS(!std::isnan(x),
                 "NaN cannot be recorded in a latency histogram");
    if (std::isnan(x))
        return;
    ++buckets_[bucketFor(x)];
    ++total_;
    sum_ += x;
}

void
LatencyHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    total_ = 0;
    sum_ = 0.0;
}

double
LatencyHistogram::mean() const
{
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

double
LatencyHistogram::percentile(double pct) const
{
    if (total_ == 0)
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    double target = pct / 100.0 * static_cast<double>(total_);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        double before = static_cast<double>(seen);
        seen += buckets_[i];
        if (static_cast<double>(seen) >= target) {
            double within = buckets_[i] == 0 ? 0.0 :
                (target - before) / static_cast<double>(buckets_[i]);
            within = std::clamp(within, 0.0, 1.0);
            return bucketLow(i) +
                   within * (bucketHigh(i) - bucketLow(i));
        }
    }
    return bucketHigh(buckets_.size() - 1);
}

double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    KELP_EXPECTS(!sorted.empty(),
                 "percentileSorted on an empty sample vector");
    if (sorted.empty())
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    // Same rule as LatencyHistogram::percentile: the smallest entry
    // whose cumulative count reaches pct/100 * n. Sample i (0-based)
    // covers cumulative counts (i, i+1].
    double target = pct / 100.0 * static_cast<double>(sorted.size());
    double idx = std::ceil(target) - 1.0;
    size_t i = idx <= 0.0 ? 0 : static_cast<size_t>(idx);
    return sorted[std::min(i, sorted.size() - 1)];
}

void
IntervalAccumulator::flush() const
{
    if (pendingN_ == 0)
        return;
    integral_ +=
        pendingX_ * pendingDt_ * static_cast<double>(pendingN_);
    time_ += pendingDt_ * static_cast<double>(pendingN_);
    pendingN_ = 0;
}

double
IntervalAccumulator::readSince(Snapshot &snap, double fallback) const
{
    flush();
    double dt = time_ - snap.time;
    double di = integral_ - snap.integral;
    snap.time = time_;
    snap.integral = integral_;
    if (dt <= 0.0)
        return fallback;
    return di / dt;
}

} // namespace sim
} // namespace kelp
