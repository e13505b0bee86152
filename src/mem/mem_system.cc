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
    sim::McId next_id = 0;
    for (int s = 0; s < cfg.numSockets; ++s) {
        for (int d = 0; d < 2; ++d) {
            sockets_[s].mc[d] = std::make_unique<Controller>(
                next_id++, s, cfg.socket.peakBw / 2.0, curve);
        }
        sockets_[s].backpressure = std::make_unique<BackpressureUnit>(
            cfg.socket.distressThreshold, cfg.socket.throttleStrength);
    }
}

void
MemSystem::setArbitration(Arbitration mode)
{
    for (auto &s : sockets_)
        for (auto &mc : s.mc)
            mc->setArbitration(mode);
    cacheValid_ = false;
    noteChange();
}

uint64_t
MemSystem::mcCacheHits() const
{
    uint64_t n = 0;
    for (const auto &s : sockets_)
        for (const auto &mc : s.mc)
            n += mc->cacheHits();
    return n;
}

uint64_t
MemSystem::mcCacheMisses() const
{
    uint64_t n = 0;
    for (const auto &s : sockets_)
        for (const auto &mc : s.mc)
            n += mc->cacheMisses();
    return n;
}

void
MemSystem::beginTick()
{
    // Keep last tick's flows around so addFlow can detect whether
    // this tick's demand set changed; controller/link demand is
    // cleared lazily in resolveFull, since a cache hit reuses it.
    std::swap(flows_, prevFlows_);
    flows_.clear();
    flowsDirty_ = false;
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
    if (!flowsDirty_) {
        const size_t i = flows_.size();
        if (i >= prevFlows_.size()) {
            flowsDirty_ = true;
        } else {
            const Flow &p = prevFlows_[i];
            // Exact comparison on purpose: any drift at all forces a
            // full recompute, so the cache can never change results.
            if (p.requestor != requestor || p.demand != demand ||
                p.highPriority != high_priority ||
                p.route.reqSocket != route.reqSocket ||
                p.route.reqSub != route.reqSub ||
                p.route.homeSocket != route.homeSocket ||
                p.route.homeSub != route.homeSub) {
                flowsDirty_ = true;
            }
        }
    }
    flows_.push_back({requestor, route, demand, high_priority});
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
MemSystem::resolve(sim::Time dt)
{
    const bool hit = cacheEnabled_ && cacheValid_ && !flowsDirty_ &&
                     flows_.size() == prevFlows_.size() &&
                     dt == prevDt_;
    if (hit) {
        ++cacheHits_;
#ifndef NDEBUG
        // Debug builds pay for a full recompute on every hit and
        // prove the cache would have returned exactly that.
        const auto cached = grants_;
        resolveFull(dt);
        KELP_INVARIANT(grants_.ids() == cached.ids(),
                       "resolve cache drifted: requestor set changed");
        for (int req : grants_.ids()) {
            const Grant &g = grants_.find(req)->grant;
            const Grant &c = cached.find(req)->grant;
            KELP_INVARIANT(c.delivered == g.delivered &&
                               c.fraction == g.fraction &&
                               c.latency == g.latency,
                           "resolve cache drifted for requestor ", req);
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
    // last tick's; grants_ and all instantaneous state are already
    // correct. Only the socket integrals and the (stateful)
    // backpressure duty cycle advance.
    updateBackpressure(dt, 1);
    accumulateSocketCounters(dt, 1);
}

void
MemSystem::resolveFull(sim::Time dt)
{
    // 0. Clear demand registered for the previous tick (deferred from
    //    beginTick so cache hits can reuse it).
    for (auto &s : sockets_)
        for (auto &mc : s.mc)
            mc->beginTick();
    upi_.beginTick();

    // 1. Cross-socket link first: remote flows are capped by the link
    //    before they ever reach the remote controller.
    for (const auto &f : flows_) {
        if (f.route.homeSocket != f.route.reqSocket)
            upi_.addDemand(f.demand);
    }
    upi_.resolve();

    // 2. Route flows to controllers. Remote flows hold the home
    //    controller longer than their data volume implies.
    for (const auto &f : flows_) {
        bool remote = f.route.homeSocket != f.route.reqSocket;
        sim::Nanoseconds extra = remote ? upi_.remoteLatency() : 0.0;
        sim::GiBps demand = remote ?
            f.demand * upi_.grantFraction() * cfg_.remoteMcOverhead :
            f.demand;
        auto &home = sockets_[f.route.homeSocket];
        if (sncEnabled_) {
            home.mc[f.route.homeSub]->addDemand(
                f.requestor, demand, f.highPriority, extra);
        } else {
            // Channel interleaving spreads the flow across both
            // controllers evenly.
            home.mc[0]->addDemand(f.requestor, demand / 2.0,
                                  f.highPriority, extra);
            home.mc[1]->addDemand(f.requestor, demand / 2.0,
                                  f.highPriority, extra);
        }
    }
    for (auto &s : sockets_)
        for (auto &mc : s.mc)
            mc->resolve();

    // 3. Distress signals.
    updateBackpressure(dt, 1);

    // 4. Assemble per-requestor grants. The coherence tax from the
    //    inter-socket link inflates every access's latency.
    double coh = upi_.coherenceInflation();
    grants_.clear();
    for (const auto &f : flows_) {
        double snc = sncFactor(f.route);
        bool remote = f.route.homeSocket != f.route.reqSocket;
        auto &home = sockets_[f.route.homeSocket];
        double delivered = 0.0;
        double lat = 0.0;
        if (sncEnabled_) {
            Grant g = home.mc[f.route.homeSub]->grant(f.requestor);
            // The controller merges same-requestor flows, so recover
            // this flow's share by its demand fraction.
            delivered = f.demand *
                (remote ? upi_.grantFraction() : 1.0) * g.fraction;
            lat = g.latency;
        } else {
            Grant g0 = home.mc[0]->grant(f.requestor);
            Grant g1 = home.mc[1]->grant(f.requestor);
            double eff =
                f.demand * (remote ? upi_.grantFraction() : 1.0);
            delivered = eff / 2.0 * g0.fraction +
                        eff / 2.0 * g1.fraction;
            lat = (g0.latency + g1.latency) / 2.0;
        }
        lat = lat * snc * coh;
        Merged &m = grants_[f.requestor];
        m.delivered += delivered;
        m.demand += f.demand;
        m.latW += lat * std::max(delivered, 1e-12);
    }
    for (int req : grants_.ids()) {
        Merged &m = grants_[req];
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
    for (auto &s : sockets_) {
        double max_util = std::max({s.mc[0]->utilization(),
                                    s.mc[1]->utilization(),
                                    upi_.congestionUtilization()});
        s.backpressure->update(max_util, dt, n);
    }
}

void
MemSystem::accumulateSocketCounters(sim::Time dt, uint64_t n)
{
    double coh = upi_.coherenceInflation();
    for (auto &s : sockets_) {
        double bw0 = s.mc[0]->totalDelivered();
        double bw1 = s.mc[1]->totalDelivered();
        KELP_INVARIANT(bw0 >= 0.0 && bw1 >= 0.0,
                       "memory controller delivered negative "
                       "bandwidth");
        KELP_INVARIANT(s.mc[0]->latency() >= 0.0 &&
                           s.mc[1]->latency() >= 0.0,
                       "memory controller reported negative latency");
        s.counters.bw.accumulateRepeat(bw0 + bw1, dt, n);
        s.counters.subdomainBw[0].accumulateRepeat(bw0, dt, n);
        s.counters.subdomainBw[1].accumulateRepeat(bw1, dt, n);
        s.counters.subdomainLat[0].accumulateRepeat(
            s.mc[0]->latency() * coh, dt, n);
        s.counters.subdomainLat[1].accumulateRepeat(
            s.mc[1]->latency() * coh, dt, n);
        double lat;
        if (bw0 + bw1 > 0.0) {
            lat = (s.mc[0]->latency() * bw0 + s.mc[1]->latency() * bw1) /
                  (bw0 + bw1);
        } else {
            lat = cfg_.socket.baseLatency;
        }
        s.counters.latency.accumulateRepeat(lat * coh, dt, n);
    }
}

Grant
MemSystem::grant(int requestor) const
{
    const Merged *m = grants_.find(requestor);
    return m ? m->grant : Grant{0.0, 1.0, cfg_.socket.baseLatency};
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
    return *sockets_[s].mc[d];
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
