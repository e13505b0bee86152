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
Controller::resolve(const std::vector<Contribution> &in, int slots,
                    bool allow_skip)
{
    bool hit = allow_skip && skipValid_ &&
               static_cast<size_t>(slots) == slots_.size() &&
               in == prev_;
    if (hit) {
        ++cacheHits_;
#ifndef NDEBUG
        // Cross-check: arbitration over an identical contribution
        // list must reproduce the skipped outputs bitwise.
        double util = utilization_;
        sim::Nanoseconds lat = latency_;
        sim::GiBps del = delivered_;
        const auto saved = slots_;
        arbitrate(in, slots);
        KELP_INVARIANT(utilization_ == util && latency_ == lat &&
                           delivered_ == del,
                       "controller arbitration skip diverged from "
                       "full arbitration (mc ", id_, ")");
        for (size_t i = 0; i < saved.size(); ++i) {
            const Grant &g = saved[i].grant;
            const Grant &cur = slots_[i].grant;
            KELP_INVARIANT(saved[i].live == slots_[i].live &&
                               cur.delivered == g.delivered &&
                               cur.fraction == g.fraction &&
                               cur.latency == g.latency,
                           "controller arbitration skip grant diverged "
                           "(mc ", id_, ", slot ", i, ")");
        }
#endif
    } else {
        ++cacheMisses_;
        prev_ = in;
        arbitrate(in, slots);
        skipValid_ = true;
    }
}

void
Controller::arbitrate(const std::vector<Contribution> &in, int slots)
{
    KELP_ASSERT(slots >= 0, "negative merge slot count");
    slots_.assign(static_cast<size_t>(slots), Slot{});
    sim::GiBps total = 0.0;
    for (const auto &c : in) {
        KELP_ASSERT(c.demand >= 0.0, "negative bandwidth demand");
        KELP_ASSERT(c.slot >= 0 && c.slot < slots,
                    "merge slot ", c.slot, " out of range (mc ", id_,
                    ")");
        if (c.demand > 0.0)
            total += c.demand;
    }

    // Demand-based utilization drives latency: queues form from what
    // is *requested*, even though delivery is capped at capacity.
    utilization_ = std::min(total / capacity_, 1.0);
    latency_ = curve_.at(utilization_);

    // Each class's delivered fraction and latency. Fair arbitration
    // has one class: everybody shares proportionally and sees the
    // loaded latency.
    double hi_frac, lo_frac;
    sim::Nanoseconds hi_lat = latency_;
    if (arbitration_ == Arbitration::Fair) {
        hi_frac = lo_frac = total <= capacity_ ? 1.0 : capacity_ / total;
    } else {
        // RequestPriority: serve high-priority demands at (almost)
        // unloaded latency first; low-priority flows split what is
        // left and absorb all the queueing.
        sim::GiBps hi_total = 0.0, lo_total = 0.0;
        for (const auto &c : in) {
            if (c.demand > 0.0)
                (c.highPriority ? hi_total : lo_total) += c.demand;
        }

        hi_frac = hi_total <= capacity_ ? 1.0 : capacity_ / hi_total;
        sim::GiBps remaining =
            std::max(0.0, capacity_ - hi_total * hi_frac);
        lo_frac = lo_total <= remaining ?
            1.0 : (lo_total > 0.0 ? remaining / lo_total : 1.0);

        // High-priority requests bypass the queue; they only see the
        // load their own class generates.
        double hi_util = std::min(hi_total / capacity_, 1.0);
        hi_lat = curve_.at(hi_util);
    }

    delivered_ = 0.0;
    for (const auto &c : in) {
        if (c.demand <= 0.0)
            continue;
        Slot &s = slots_[static_cast<size_t>(c.slot)];
        s.live = true;
        Grant &g = s.grant;
        double frac = c.highPriority ? hi_frac : lo_frac;
        sim::Nanoseconds lat =
            (c.highPriority ? hi_lat : latency_) + c.latencyExtra;
        double given = c.demand * frac;
        // A requestor may submit several flows to one controller
        // (e.g., demand + prefetch); merge grants by demand weight.
        double w_old = g.delivered;
        g.delivered += given;
        g.fraction = frac;
        if (g.delivered > 0.0)
            g.latency = (g.latency * w_old + lat * given) / g.delivered;
        delivered_ += given;
    }
}

} // namespace mem
} // namespace kelp
