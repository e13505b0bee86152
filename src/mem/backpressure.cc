#include "mem/backpressure.hh"

#include <algorithm>

#include "sim/log.hh"

namespace kelp {
namespace mem {

BackpressureUnit::BackpressureUnit(double distress_threshold,
                                   double throttle_strength)
    : threshold_(distress_threshold), strength_(throttle_strength)
{
    KELP_ASSERT(distress_threshold > 0.0 && distress_threshold < 1.0,
                "distress threshold must be in (0, 1)");
    KELP_ASSERT(throttle_strength >= 0.0 && throttle_strength < 1.0,
                "throttle strength must be in [0, 1)");
}

void
BackpressureUnit::update(double max_mc_utilization, sim::Time dt,
                         uint64_t n)
{
    // The distress duty cycle rises linearly from the threshold to
    // full saturation; this matches the smooth saturation curves the
    // paper plots from FAST_ASSERTED (Figure 7). asserted_ is
    // idempotent under a repeated input, so only the integral needs
    // the n-fold repeat.
    double over = (max_mc_utilization - threshold_) / (1.0 - threshold_);
    asserted_ = std::clamp(over, 0.0, 1.0);
    fastAsserted_.accumulateRepeat(asserted_, dt, n);
}

double
BackpressureUnit::coreThrottle() const
{
    return 1.0 - strength_ * asserted_;
}

} // namespace mem
} // namespace kelp
