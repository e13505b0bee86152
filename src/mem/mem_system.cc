#include "mem/mem_system.hh"

#include <algorithm>

#include "sim/log.hh"

namespace kelp {
namespace mem {

MemSystem::MemSystem(const MemSystemConfig &cfg)
    : cfg_(cfg),
      upi_(cfg.upiCapacity, cfg.upiHopLatency, cfg.upiCoherenceTax)
{
    KELP_ASSERT(cfg.numSockets >= 1 && cfg.numSockets <= 2,
                "MemSystem supports 1 or 2 sockets");
    sockets_.resize(cfg.numSockets);
    LatencyCurve curve(cfg.socket.baseLatency, cfg.socket.inflationAt95);
    mcs_.reserve(static_cast<size_t>(cfg.numSockets) * 2);
    sim::McId next_id = 0;
    for (int s = 0; s < cfg.numSockets; ++s) {
        for (int d = 0; d < 2; ++d)
            mcs_.emplace_back(next_id++, s, cfg.socket.peakBw / 2.0, curve);
        sockets_[s].backpressure = std::make_unique<BackpressureUnit>(
            cfg.socket.distressThreshold, cfg.socket.throttleStrength);
    }
}

void
MemSystem::setArbitration(Arbitration mode)
{
    for (auto &mc : mcs_)
        mc.setArbitration(mode);
    cacheValid_ = false;
    noteChange();
}

uint64_t
MemSystem::mcCacheHits() const
{
    uint64_t n = 0;
    for (const auto &mc : mcs_)
        n += mc.cacheHits();
    return n;
}

uint64_t
MemSystem::mcCacheMisses() const
{
    uint64_t n = 0;
    for (const auto &mc : mcs_)
        n += mc.cacheMisses();
    return n;
}

void
MemSystem::beginTick()
{
    // Last tick's flows stay in flows_ so addFlow can compare this
    // tick's, position by position, as it overwrites them.
    prevNumFlows_ = numFlows_;
    numFlows_ = 0;
    shapeChanged_ = false;
    demandChanged_ = false;
}

void
MemSystem::addFlow(int requestor, const Route &route, sim::GiBps demand,
                   bool high_priority)
{
    KELP_ASSERT(route.homeSocket >= 0 && route.homeSocket < numSockets(),
                "flow home socket out of range");
    KELP_ASSERT(route.reqSocket >= 0 && route.reqSocket < numSockets(),
                "flow request socket out of range");
    KELP_ASSERT(route.homeSub == 0 || route.homeSub == 1,
                "flow home subdomain out of range");
    KELP_ASSERT(route.reqSub == 0 || route.reqSub == 1,
                "flow request subdomain out of range");
    KELP_ASSERT(requestor >= 0, "negative requestor id ", requestor);
    if (demand <= 0.0)
        return;
    const size_t i = numFlows_++;
    if (i == flows_.size())
        flows_.emplace_back();
    Flow &f = flows_[i];
    // Exact comparison on purpose: any drift at all forces a
    // recompute, so reuse can never change results. The shape decides
    // whether the plan is reused, the demand whether the whole
    // resolve is.
    if (!shapeChanged_ && i < prevNumFlows_ && f.requestor == requestor &&
        f.highPriority == high_priority &&
        f.route.reqSocket == route.reqSocket &&
        f.route.reqSub == route.reqSub &&
        f.route.homeSocket == route.homeSocket &&
        f.route.homeSub == route.homeSub) {
        if (f.demand != demand) {
            demandChanged_ = true;
            f.demand = demand;
        }
        return;
    }
    shapeChanged_ = true;
    // Stored field by field: a whole-struct copy reads the caller's
    // freshly stored route with wide loads, which stall on its
    // narrow stores.
    f.requestor = requestor;
    f.route.reqSocket = route.reqSocket;
    f.route.reqSub = route.reqSub;
    f.route.homeSocket = route.homeSocket;
    f.route.homeSub = route.homeSub;
    f.demand = demand;
    f.highPriority = high_priority;
}

double
MemSystem::sncFactor(const Route &route) const
{
    if (!sncEnabled_ || route.homeSocket != route.reqSocket)
        return 1.0;
    return route.reqSub == route.homeSub ?
        cfg_.socket.sncLocalLatencyFactor :
        cfg_.socket.sncRemoteLatencyFactor;
}

void
MemSystem::buildPlan(FlowPlan &plan) const
{
    for (int id : plan.requestors)
        plan.slotOf[static_cast<size_t>(id)] = -1;
    plan.requestors.clear();
    plan.flows.clear();
    plan.lanes.resize(mcs_.size());
    for (auto &lane : plan.lanes)
        lane.clear();
    plan.mergeSlots.assign(mcs_.size(), 0);
    plan.mergeSlotOf.clear();
    plan.anyRemote = false;
    for (size_t i = 0; i < numFlows_; ++i) {
        const Flow &f = flows_[i];
        const auto id = static_cast<size_t>(f.requestor);
        if (id >= plan.slotOf.size())
            plan.slotOf.resize(id + 1, -1);
        int &slot = plan.slotOf[id];
        if (slot < 0) {
            slot = static_cast<int>(plan.requestors.size());
            plan.requestors.push_back(f.requestor);
            plan.mergeSlotOf.resize(plan.requestors.size() * mcs_.size(),
                                    -1);
        }
        PlannedFlow p;
        p.slot = slot;
        p.mc = f.route.homeSocket * 2 + (sncEnabled_ ? f.route.homeSub : 0);
        p.sncFactor = sncFactor(f.route);
        p.remote = f.route.homeSocket != f.route.reqSocket;
        p.highPriority = f.highPriority;
        // One target with subdomains, both of the home socket's
        // controllers without.
        for (int t = 0; t < (sncEnabled_ ? 1 : 2); ++t) {
            const auto mc = static_cast<size_t>(p.mc + t);
            int &merge = plan.mergeSlotOf[mergeIndex(slot, mc)];
            if (merge < 0)
                merge = plan.mergeSlots[mc]++;
            p.mergeSlot[static_cast<size_t>(t)] = merge;
            plan.lanes[mc].push_back(static_cast<int>(i));
        }
        plan.flows.push_back(p);
        plan.anyRemote = plan.anyRemote || p.remote;
    }
}

#ifndef NDEBUG
void
MemSystem::verifyPlan() const
{
    FlowPlan fresh;
    buildPlan(fresh);
    // The reused index spans the largest id ever seen. Every id
    // outside the plan must read -1 there, or grant() would serve a
    // stale row.
    fresh.slotOf.resize(std::max(fresh.slotOf.size(), plan_.slotOf.size()),
                        -1);
    KELP_INVARIANT(fresh == plan_,
                   "reused flow plan drifted from a fresh build of ",
                   numFlows_, " flows");
}
#endif

int
MemSystem::slotOf(int requestor) const
{
    const auto id = static_cast<size_t>(requestor);
    if (requestor < 0 || id >= plan_.slotOf.size())
        return -1;
    return plan_.slotOf[id];
}

void
MemSystem::resolve(sim::Time dt)
{
    // Reuse needs the previous tick's shape under the same
    // configuration; SNC, arbitration, and cache-enable changes clear
    // cacheValid_.
    const bool reuse = cacheEnabled_ && cacheValid_ && !shapeChanged_ &&
                       numFlows_ == prevNumFlows_;
    const bool hit = reuse && !demandChanged_ && dt == prevDt_;
    if (reuse) {
#ifndef NDEBUG
        verifyPlan();
#endif
    } else {
        buildPlan(plan_);
    }
    if (hit) {
        ++cacheHits_;
#ifndef NDEBUG
        // Debug builds pay for a full recompute on every hit and
        // prove the cache would have returned exactly that.
        const std::vector<int> ids = plan_.requestors;
        const std::vector<Merged> cached = merged_;
        resolveFull(dt);
        KELP_INVARIANT(plan_.requestors == ids &&
                           merged_.size() == cached.size(),
                       "resolve cache drifted: requestor set changed");
        for (size_t i = 0; i < merged_.size(); ++i) {
            const Grant &g = merged_[i].grant;
            const Grant &c = cached[i].grant;
            KELP_INVARIANT(c.delivered == g.delivered &&
                               c.fraction == g.fraction &&
                               c.latency == g.latency,
                           "resolve cache drifted for requestor ",
                           ids[i]);
        }
#else
        resolveCached(dt);
#endif
    } else {
        ++cacheMisses_;
        resolveFull(dt);
    }
    lastHit_ = hit;
    cacheValid_ = true;
    prevDt_ = dt;
}

void
MemSystem::fastForward(uint64_t n, sim::Time dt)
{
    KELP_EXPECTS(lastHit_ && dt == prevDt_,
                 "mem fast-forward without a resolve-cache hit");
    // Equivalent to n rounds of resolveCached(dt): every
    // instantaneous signal is a fixed point while the flow set is
    // frozen, so only the time integrals advance. Each accumulator's
    // op chain is independent, so per-accumulator n-fold repeats
    // reproduce the per-tick interleaving bit for bit.
    updateBackpressure(dt, n);
    accumulateSocketCounters(dt, n);
    fastTicks_ += n;
}

void
MemSystem::resolveCached(sim::Time dt)
{
    // Demand registered with the controllers and the link is exactly
    // last tick's; merged_ and all instantaneous state are already
    // correct. Only the socket integrals and the (stateful)
    // backpressure duty cycle advance.
    updateBackpressure(dt, 1);
    accumulateSocketCounters(dt, 1);
}

void
MemSystem::resolveFull(sim::Time dt)
{
    // 1. Cross-socket link first: remote flows are capped by the link
    //    before they ever reach the remote controller.
    upi_.beginTick();
    if (plan_.anyRemote) {
        for (size_t i = 0; i < numFlows_; ++i) {
            if (plan_.flows[i].remote)
                upi_.addDemand(flows_[i].demand);
        }
    }
    upi_.resolve();
    const double link_frac = upi_.grantFraction();
    const sim::Nanoseconds hop =
        plan_.anyRemote ? upi_.remoteLatency() : 0.0;

    // 2. Each controller arbitrates its lane's contributions, in flow
    //    order. Remote flows hold the home controller longer than
    //    their data volume implies.
    for (size_t c = 0; c < mcs_.size(); ++c) {
        contribs_.clear();
        for (int i : plan_.lanes[c]) {
            const PlannedFlow &p = plan_.flows[static_cast<size_t>(i)];
            const sim::GiBps flow_demand =
                flows_[static_cast<size_t>(i)].demand;
            sim::GiBps demand = p.remote ?
                flow_demand * link_frac * cfg_.remoteMcOverhead :
                flow_demand;
            // Channel interleaving spreads the flow across both
            // controllers evenly.
            if (!sncEnabled_)
                demand = demand / 2.0;
            contribs_.push_back(
                {p.mergeSlot[c - static_cast<size_t>(p.mc)], demand,
                 p.highPriority, p.remote ? hop : 0.0});
        }
        mcs_[c].resolve(contribs_, plan_.mergeSlots[c], cacheEnabled_);
    }

    // 3. Distress signals.
    updateBackpressure(dt, 1);

    // 4. Assemble per-requestor grants from the merge slots. The
    //    coherence tax from the inter-socket link inflates every
    //    access's latency.
    double coh = upi_.coherenceInflation();
    merged_.assign(plan_.requestors.size(), Merged{});
    for (size_t i = 0; i < numFlows_; ++i) {
        const Flow &f = flows_[i];
        const PlannedFlow &p = plan_.flows[i];
        const Controller &mc = mcs_[static_cast<size_t>(p.mc)];
        double delivered = 0.0;
        double lat = 0.0;
        if (sncEnabled_) {
            Grant g = mc.grant(p.mergeSlot[0]);
            // The controller merges same-requestor flows, so recover
            // this flow's share by its demand fraction.
            delivered = f.demand *
                (p.remote ? link_frac : 1.0) * g.fraction;
            lat = g.latency;
        } else {
            Grant g0 = mc.grant(p.mergeSlot[0]);
            Grant g1 = mcs_[static_cast<size_t>(p.mc) + 1].grant(
                p.mergeSlot[1]);
            double eff = f.demand * (p.remote ? link_frac : 1.0);
            delivered = eff / 2.0 * g0.fraction +
                        eff / 2.0 * g1.fraction;
            lat = (g0.latency + g1.latency) / 2.0;
        }
        lat = lat * p.sncFactor * coh;
        Merged &m = merged_[static_cast<size_t>(p.slot)];
        m.delivered += delivered;
        m.demand += f.demand;
        m.latW += lat * std::max(delivered, 1e-12);
    }
    for (size_t slot = 0; slot < merged_.size(); ++slot) {
        Merged &m = merged_[slot];
        const int req = plan_.requestors[slot];
        Grant &g = m.grant;
        g.delivered = m.delivered;
        g.fraction = m.demand > 0.0 ?
            std::min(m.delivered / m.demand, 1.0) : 1.0;
        g.latency = m.delivered > 0.0 ? m.latW / m.delivered :
            cfg_.socket.baseLatency;
        // Physicality: a grant can neither deliver negative bytes
        // nor complete in non-positive time, and the delivered
        // fraction is a fraction.
        KELP_ENSURES(g.delivered >= 0.0,
                     "negative delivered bandwidth for requestor ",
                     req);
        KELP_ENSURES(g.fraction >= 0.0 && g.fraction <= 1.0,
                     "grant fraction ", g.fraction,
                     " outside [0, 1] for requestor ", req);
        KELP_ENSURES(g.latency > 0.0,
                     "non-positive grant latency for requestor ",
                     req);
    }

    // 5. Socket-level counters for the HAL.
    accumulateSocketCounters(dt, 1);
}

void
MemSystem::updateBackpressure(sim::Time dt, uint64_t n)
{
    // Socket-wide shared distress. The inter-socket link
    // participates: the throttling mechanism exists precisely "to
    // avoid congesting the interconnection network" (Section IV-B),
    // so a saturated link distresses the cores on both attached
    // sockets.
    for (size_t s = 0; s < sockets_.size(); ++s) {
        double max_util = std::max({mcs_[2 * s].utilization(),
                                    mcs_[2 * s + 1].utilization(),
                                    upi_.congestionUtilization()});
        sockets_[s].backpressure->update(max_util, dt, n);
    }
}

void
MemSystem::accumulateSocketCounters(sim::Time dt, uint64_t n)
{
    double coh = upi_.coherenceInflation();
    for (size_t si = 0; si < sockets_.size(); ++si) {
        SocketCounters &counters = sockets_[si].counters;
        const Controller &mc0 = mcs_[2 * si];
        const Controller &mc1 = mcs_[2 * si + 1];
        double bw0 = mc0.totalDelivered();
        double bw1 = mc1.totalDelivered();
        KELP_INVARIANT(bw0 >= 0.0 && bw1 >= 0.0,
                       "memory controller delivered negative "
                       "bandwidth");
        KELP_INVARIANT(mc0.latency() >= 0.0 && mc1.latency() >= 0.0,
                       "memory controller reported negative latency");
        counters.bw.accumulateRepeat(bw0 + bw1, dt, n);
        counters.subdomainBw[0].accumulateRepeat(bw0, dt, n);
        counters.subdomainBw[1].accumulateRepeat(bw1, dt, n);
        counters.subdomainLat[0].accumulateRepeat(mc0.latency() * coh,
                                                  dt, n);
        counters.subdomainLat[1].accumulateRepeat(mc1.latency() * coh,
                                                  dt, n);
        double lat;
        if (bw0 + bw1 > 0.0) {
            lat = (mc0.latency() * bw0 + mc1.latency() * bw1) /
                  (bw0 + bw1);
        } else {
            lat = cfg_.socket.baseLatency;
        }
        counters.latency.accumulateRepeat(lat * coh, dt, n);
    }
}

Grant
MemSystem::grant(int requestor) const
{
    const int slot = slotOf(requestor);
    return slot >= 0 ? merged_[static_cast<size_t>(slot)].grant :
                       Grant{0.0, 1.0, cfg_.socket.baseLatency};
}

Grant
MemSystem::controllerGrant(sim::SocketId s, sim::SubdomainId d,
                           int requestor) const
{
    const Controller &mc = controller(s, d);
    const int slot = slotOf(requestor);
    if (slot < 0)
        return mc.grant(-1);
    const auto index = static_cast<size_t>(s) * 2 + static_cast<size_t>(d);
    return mc.grant(plan_.mergeSlotOf[mergeIndex(slot, index)]);
}

double
MemSystem::coreThrottle(sim::SocketId s) const
{
    KELP_ASSERT(s >= 0 && s < numSockets(), "socket out of range");
    return sockets_[s].backpressure->coreThrottle();
}

double
MemSystem::saturation(sim::SocketId s) const
{
    KELP_ASSERT(s >= 0 && s < numSockets(), "socket out of range");
    return sockets_[s].backpressure->assertedFraction();
}

const Controller &
MemSystem::controller(sim::SocketId s, sim::SubdomainId d) const
{
    KELP_ASSERT(s >= 0 && s < numSockets() && (d == 0 || d == 1),
                "controller index out of range");
    return mcs_[static_cast<size_t>(s) * 2 + static_cast<size_t>(d)];
}

const SocketCounters &
MemSystem::counters(sim::SocketId s) const
{
    KELP_ASSERT(s >= 0 && s < numSockets(), "socket out of range");
    return sockets_[s].counters;
}

const sim::IntervalAccumulator &
MemSystem::fastAsserted(sim::SocketId s) const
{
    KELP_ASSERT(s >= 0 && s < numSockets(), "socket out of range");
    return sockets_[s].backpressure->fastAsserted();
}

} // namespace mem
} // namespace kelp
