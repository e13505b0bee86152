#include "mem/controller.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace kelp {
namespace mem {

Controller::Controller(sim::McId id, sim::SocketId socket,
                       sim::GiBps capacity, LatencyCurve curve)
    : id_(id), socket_(socket), capacity_(capacity), curve_(curve),
      latency_(curve.base())
{
    KELP_ASSERT(capacity > 0.0, "controller capacity must be positive");
}

void
Controller::beginTick()
{
    // Keep last tick's demand sequence around so addDemand() can
    // detect, flow by flow, whether this tick registers the exact
    // same set; grants_ stays valid so a hit can skip arbitration.
    demands_.swap(prevDemands_);
    demands_.clear();
    demandsDirty_ = false;
}

void
Controller::addDemand(int requestor, sim::GiBps demand,
                      bool high_priority, sim::Nanoseconds latency_extra)
{
    KELP_ASSERT(requestor >= 0, "negative requestor id ", requestor);
    KELP_ASSERT(demand >= 0.0, "negative bandwidth demand");
    if (demand <= 0.0)
        return;
    size_t i = demands_.size();
    if (i >= prevDemands_.size()) {
        demandsDirty_ = true;
    } else {
        const Demand &p = prevDemands_[i];
        if (p.requestor != requestor || p.demand != demand ||
            p.highPriority != high_priority ||
            p.latencyExtra != latency_extra) {
            demandsDirty_ = true;
        }
    }
    demands_.push_back({requestor, demand, high_priority, latency_extra});
}

void
Controller::resolve()
{
    bool hit = cacheValid_ && !demandsDirty_ &&
               demands_.size() == prevDemands_.size();
    if (hit) {
        ++cacheHits_;
#ifndef NDEBUG
        // Cross-check: arbitration over an identical demand set must
        // reproduce the cached outputs bitwise.
        double util = utilization_;
        sim::Nanoseconds lat = latency_;
        sim::GiBps del = delivered_;
        auto saved_grants = grants_;
        arbitrate();
        KELP_INVARIANT(utilization_ == util && latency_ == lat &&
                           delivered_ == del,
                       "controller demand-cache hit diverged from "
                       "full arbitration (mc ", id_, ")");
        KELP_INVARIANT(grants_.ids() == saved_grants.ids(),
                       "controller demand-cache hit diverged: "
                       "requestor set changed (mc ", id_, ")");
        for (int req : saved_grants.ids()) {
            const Grant &g = *saved_grants.find(req);
            const Grant cur = grant(req);
            KELP_INVARIANT(cur.delivered == g.delivered &&
                               cur.fraction == g.fraction &&
                               cur.latency == g.latency,
                           "controller demand-cache grant diverged "
                           "(mc ", id_, ", requestor ", req, ")");
        }
#endif
    } else {
        ++cacheMisses_;
        arbitrate();
        cacheValid_ = true;
    }
}

void
Controller::arbitrate()
{
    grants_.clear();
    sim::GiBps total = 0.0;
    for (const auto &d : demands_)
        total += d.demand;

    // Demand-based utilization drives latency: queues form from what
    // is *requested*, even though delivery is capped at capacity.
    utilization_ = std::min(total / capacity_, 1.0);
    latency_ = curve_.at(utilization_);

    if (arbitration_ == Arbitration::Fair) {
        double frac = total <= capacity_ ? 1.0 : capacity_ / total;
        delivered_ = 0.0;
        for (const auto &d : demands_) {
            Grant &g = grants_[d.requestor];
            double given = d.demand * frac;
            // A requestor may submit several flows to one controller
            // (e.g., demand + prefetch); merge grants by demand
            // weight.
            double w_old = g.delivered;
            g.delivered += given;
            g.fraction = frac;
            if (g.delivered > 0.0) {
                g.latency = (g.latency * w_old +
                             (latency_ + d.latencyExtra) * given) /
                            g.delivered;
            }
            delivered_ += given;
        }
    } else {
        // RequestPriority: serve high-priority demands at (almost)
        // unloaded latency first; low-priority flows split what is
        // left and absorb all the queueing.
        sim::GiBps hi_total = 0.0, lo_total = 0.0;
        for (const auto &d : demands_)
            (d.highPriority ? hi_total : lo_total) += d.demand;

        double hi_frac = hi_total <= capacity_ ?
            1.0 : capacity_ / hi_total;
        sim::GiBps remaining =
            std::max(0.0, capacity_ - hi_total * hi_frac);
        double lo_frac = lo_total <= remaining ?
            1.0 : (lo_total > 0.0 ? remaining / lo_total : 1.0);

        // High-priority requests bypass the queue; they only see the
        // load their own class generates.
        double hi_util = std::min(hi_total / capacity_, 1.0);
        sim::Nanoseconds hi_lat = curve_.at(hi_util);

        delivered_ = 0.0;
        for (const auto &d : demands_) {
            Grant &g = grants_[d.requestor];
            double frac = d.highPriority ? hi_frac : lo_frac;
            sim::Nanoseconds lat =
                (d.highPriority ? hi_lat : latency_) + d.latencyExtra;
            double given = d.demand * frac;
            double w_old = g.delivered;
            g.delivered += given;
            g.fraction = frac;
            if (g.delivered > 0.0) {
                g.latency =
                    (g.latency * w_old + lat * given) / g.delivered;
            }
            delivered_ += given;
        }
    }
}

Grant
Controller::grant(int requestor) const
{
    const Grant *g = grants_.find(requestor);
    return g ? *g : Grant{0.0, 1.0, latency_};
}

} // namespace mem
} // namespace kelp
