/**
 * @file
 * Latency-load curve for DRAM controllers.
 *
 * Memory access latency is flat at low utilization and grows convexly
 * as the controller approaches saturation (classic bandwidth-latency
 * "hockey stick"). The curve is parameterized by the unloaded latency
 * and the inflation factor at 95% utilization, which is the landmark
 * the calibration constants are written against.
 */

#ifndef KELP_MEM_LATENCY_CURVE_HH
#define KELP_MEM_LATENCY_CURVE_HH

#include <algorithm>

#include "sim/types.hh"

namespace kelp {
namespace mem {

/** Maps controller utilization in [0, 1] to effective latency. */
class LatencyCurve
{
  public:
    /**
     * @param base_ns Unloaded (idle-controller) latency.
     * @param inflation_at_95 Latency multiplier when utilization hits
     *        0.95 (e.g., 4.0 means 4x the unloaded latency).
     */
    explicit LatencyCurve(sim::Nanoseconds base_ns = 90.0,
                          double inflation_at_95 = 4.0);

    /** Effective latency at the given utilization. */
    sim::Nanoseconds
    at(double utilization) const
    {
        return base_ * inflation(utilization);
    }

    /** Latency multiplier (>= 1) at the given utilization. */
    double
    inflation(double utilization) const
    {
        return 1.0 + alpha_ * queueTerm(utilization);
    }

    /** Unloaded latency. */
    sim::Nanoseconds base() const { return base_; }

  private:
    /** Convex queueing term: gentle below ~50% load, exploding toward
     * saturation (bandwidth-latency hockey stick). */
    static double
    queueTerm(double u)
    {
        // Past ~97% the queues are bounded in practice (finite MSHRs
        // and controller queues); clamp so inflation saturates rather
        // than diverging.
        u = std::clamp(u, 0.0, 0.95);
        return u * u / (1.0 - u);
    }

    sim::Nanoseconds base_;
    double alpha_;
};

} // namespace mem
} // namespace kelp

#endif // KELP_MEM_LATENCY_CURVE_HH
