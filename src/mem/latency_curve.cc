#include "mem/latency_curve.hh"

#include "sim/log.hh"

namespace kelp {
namespace mem {

LatencyCurve::LatencyCurve(sim::Nanoseconds base_ns,
                           double inflation_at_95)
    : base_(base_ns)
{
    KELP_ASSERT(base_ns > 0.0, "latency must be positive");
    KELP_ASSERT(inflation_at_95 >= 1.0, "inflation must be >= 1");
    alpha_ = (inflation_at_95 - 1.0) / queueTerm(0.95);
}

} // namespace mem
} // namespace kelp
