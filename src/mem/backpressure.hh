/**
 * @file
 * Shared memory backpressure (the paper's key micro-architectural
 * observation, Section IV-B).
 *
 * When a memory controller saturates, it broadcasts a distress signal
 * to every core on the socket; cores are then throttled to protect the
 * interconnect. The signal is socket-global, so a saturated
 * low-priority subdomain throttles the high-priority subdomain's cores
 * too -- defeating the isolation NUMA subdomains should provide.
 *
 * System software can observe the signal through the uncore
 * FAST_ASSERTED event (asserted cycles / elapsed cycles); this unit
 * exposes the same counter semantics so the Kelp runtime measures
 * saturation exactly the way the paper does.
 */

#ifndef KELP_MEM_BACKPRESSURE_HH
#define KELP_MEM_BACKPRESSURE_HH

#include "sim/stats.hh"
#include "sim/types.hh"

namespace kelp {
namespace mem {

/** Per-socket distress-signal generator and core-throttle source. */
class BackpressureUnit
{
  public:
    /**
     * @param distress_threshold Controller utilization above which the
     *        distress signal asserts (fraction of peak).
     * @param throttle_strength Maximum fraction of core issue rate
     *        removed when fully saturated (0 disables throttling).
     */
    explicit BackpressureUnit(double distress_threshold = 0.80,
                              double throttle_strength = 0.45);

    /**
     * Update with the worst controller utilization on the socket,
     * held for n ticks.
     *
     * @param max_mc_utilization Highest utilization across the
     *        socket's controllers.
     * @param dt Tick length.
     * @param n Number of identical ticks (MemSystem fast-forward);
     *        bit-identical to n single-tick updates.
     */
    void update(double max_mc_utilization, sim::Time dt,
                uint64_t n = 1);

    /**
     * Fraction of the last tick during which distress was asserted,
     * in [0, 1]. This is what FAST_ASSERTED accumulates.
     */
    double assertedFraction() const { return asserted_; }

    /**
     * Core issue-rate multiplier in (0, 1] to apply to every core on
     * the socket. 1.0 means no throttling.
     */
    double coreThrottle() const;

    /** FAST_ASSERTED-equivalent integral (asserted time). */
    const sim::IntervalAccumulator &fastAsserted() const
    {
        return fastAsserted_;
    }

    double distressThreshold() const { return threshold_; }
    double throttleStrength() const { return strength_; }

  private:
    double threshold_;
    double strength_;
    double asserted_ = 0.0;
    sim::IntervalAccumulator fastAsserted_;
};

} // namespace mem
} // namespace kelp

#endif // KELP_MEM_BACKPRESSURE_HH
