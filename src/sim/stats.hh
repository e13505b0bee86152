/**
 * @file
 * Statistics primitives used by the simulator and the runtime.
 *
 * - OnlineStats: Welford mean/variance accumulation.
 * - Ewma: exponentially weighted moving average for rate smoothing.
 * - LatencyHistogram: log-bucketed histogram with percentile queries
 *   (used for RNN1 request tail latency).
 * - IntervalAccumulator: integral-over-time accumulator that supports
 *   the delta reads performance counters provide (value since the
 *   previous sample).
 */

#ifndef KELP_SIM_STATS_HH
#define KELP_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/log.hh"

namespace kelp {
namespace sim {

/** Streaming mean/variance/min/max via Welford's algorithm. */
class OnlineStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Remove all observations. */
    void reset();

    /** Number of observations so far. */
    size_t count() const { return n_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Population variance (0 when fewer than 2 samples). */
    double variance() const;

    /** Standard deviation. */
    double stddev() const;

    /** Smallest observation (+inf when empty). */
    double min() const { return min_; }

    /** Largest observation (-inf when empty). */
    double max() const { return max_; }

    /** Sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;

    /** Empty-window identities (+inf/-inf) so min()/max() honour the
     * documented contract instead of reading uninitialized memory
     * when no observation has been added yet. */
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Exponentially weighted moving average. */
class Ewma
{
  public:
    /**
     * @param alpha Weight of each new sample (0 < alpha <= 1).
     * @param initial Value reported before the first sample.
     */
    explicit Ewma(double alpha = 0.25, double initial = 0.0);

    /** Fold in a new sample and return the updated average. */
    double add(double x);

    /** Current smoothed value. */
    double value() const { return value_; }

    /** Reset to a given value, forgetting history. */
    void reset(double value);

    /** True once at least one sample has been added. */
    bool primed() const { return primed_; }

  private:
    double alpha_;
    double value_;
    bool primed_ = false;
};

/**
 * Log-bucketed latency histogram with percentile queries.
 *
 * Buckets grow geometrically from minValue to maxValue; values outside
 * the range clamp to the boundary buckets. Percentiles interpolate
 * linearly within a bucket, which is accurate to the bucket growth
 * factor (1.5% by default) -- plenty for reproducing tail-latency
 * ratios.
 */
class LatencyHistogram
{
  public:
    /**
     * @param min_value Lower bound of the tracked range (exclusive 0).
     * @param max_value Upper bound of the tracked range.
     * @param growth Geometric bucket growth factor (> 1).
     */
    LatencyHistogram(double min_value = 1e-6, double max_value = 1e2,
                     double growth = 1.015);

    /** Record one value. */
    void add(double x);

    /** Remove all recorded values. */
    void reset();

    /** Number of recorded values. */
    uint64_t count() const { return total_; }

    /** Arithmetic mean of recorded values. */
    double mean() const;

    /**
     * Value at the given percentile (e.g., 95.0). Returns 0 when the
     * histogram is empty.
     */
    double percentile(double pct) const;

  private:
    size_t bucketFor(double x) const;
    double bucketLow(size_t i) const;
    double bucketHigh(size_t i) const;

    double minValue_;
    double logMin_;
    double logGrowth_;
    std::vector<uint64_t> buckets_;
    uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * Percentile of a pre-sorted sample vector under the repository's
 * shared percentile convention -- the same cumulative-count rule
 * LatencyHistogram::percentile applies to its buckets: the result is
 * the smallest sample whose cumulative count reaches
 * pct/100 * count. With point samples the histogram's within-bucket
 * interpolation collapses to the sample itself, so the two
 * implementations agree up to the histogram's bucket resolution.
 * Every consumer of raw sample vectors (fleet profiling, cluster SLO
 * accounting, manifest sample summaries) must use this instead of
 * hand-rolled index arithmetic so percentiles can never drift apart
 * between subsystems.
 *
 * `sorted` must be in ascending order. An empty vector is a contract
 * violation (returns 0 in Count mode, matching the histogram's
 * empty-case fallback).
 */
double percentileSorted(const std::vector<double> &sorted, double pct);

/**
 * Time-integral accumulator with counter-style delta reads.
 *
 * accumulate(x, dt) adds x*dt to a running integral; a reader holding
 * a Snapshot can ask for the average value of x over the interval
 * since its previous read -- exactly how Kelp consumes hardware
 * counters (bandwidth = bytes delta / time delta, saturation =
 * asserted-cycles delta / cycles delta).
 */
class IntervalAccumulator
{
  public:
    /** Reader-side cursor; value-initialized cursors read from t=0. */
    struct Snapshot
    {
        double integral = 0.0;
        double time = 0.0;
    };

    /** Add x (a rate or level) held for duration dt. */
    void accumulate(double x, double dt) { accumulateRepeat(x, dt, 1); }

    /**
     * Accumulate the same (x, dt) pair n times. Identical to calling
     * accumulate(x, dt) n times: repeated identical samples merge
     * into one pending run either way, so the engine's fast-forward
     * paths and the stepped path fold counters bit-for-bit the same.
     */
    void
    accumulateRepeat(double x, double dt, uint64_t n)
    {
        KELP_ASSERT(dt >= 0.0, "negative accumulation interval");
        if (n == 0)
            return;
        if (pendingN_ != 0 && x == pendingX_ && dt == pendingDt_) {
            pendingN_ += n;
            return;
        }
        flush();
        pendingX_ = x;
        pendingDt_ = dt;
        pendingN_ = n;
    }

    /** Total integral since construction. */
    double integral() const
    {
        flush();
        return integral_;
    }

    /** Total time accumulated since construction. */
    double elapsed() const
    {
        flush();
        return time_;
    }

    /**
     * Average level since the snapshot; updates the snapshot to now.
     * Returns fallback when no time has elapsed.
     */
    double readSince(Snapshot &snap, double fallback = 0.0) const;

  private:
    /** Fold the pending run into the integrals. */
    void flush() const;

    // A run of identical samples is held symbolically and folded in
    // closed form on read or when a different sample arrives. This
    // makes an n-tick steady stretch cost O(1) instead of n adds --
    // the core of the event-driven engine's counter cost model --
    // and because the stepped path merges the very same per-tick
    // sample stream, fast-forward and stepped runs stay identical.
    mutable double integral_ = 0.0;
    mutable double time_ = 0.0;
    mutable double pendingX_ = 0.0;
    mutable double pendingDt_ = 0.0;
    mutable uint64_t pendingN_ = 0;
};

} // namespace sim
} // namespace kelp

#endif // KELP_SIM_STATS_HH
