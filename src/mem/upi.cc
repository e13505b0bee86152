#include "mem/upi.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace kelp {
namespace mem {

UpiLink::UpiLink(sim::GiBps capacity, sim::Nanoseconds hop_latency,
                 double coherence_tax)
    : capacity_(capacity), hopLatency_(hop_latency),
      coherenceTax_(coherence_tax)
{
    KELP_ASSERT(capacity > 0.0, "UPI capacity must be positive");
    KELP_ASSERT(coherence_tax >= 0.0, "coherence tax must be >= 0");
}

void
UpiLink::beginTick()
{
    demand_ = 0.0;
}

void
UpiLink::addDemand(sim::GiBps demand)
{
    KELP_ASSERT(demand >= 0.0, "negative UPI demand");
    demand_ += demand;
}

void
UpiLink::resolve()
{
    utilization_ = std::min(demand_ / capacity_, 1.0);
    grantFraction_ =
        demand_ <= capacity_ ? 1.0 : capacity_ / demand_;
    congestion_ = std::min(demand_ / (0.8 * capacity_), 1.0);
    // Sub-quadratic ramp: snoop-response slowdown is already felt at
    // moderate link load, reaching the full tax at saturation.
    coherence_ = 1.0 + coherenceTax_ * std::pow(congestion_, 1.5);
}

sim::Nanoseconds
UpiLink::remoteLatency() const
{
    // The hop itself queues convexly as the link loads up.
    double u = std::min(utilization_, 0.99);
    double queue = std::pow(u, 3) / (1.0 - u);
    return hopLatency_ * (1.0 + queue);
}

} // namespace mem
} // namespace kelp
