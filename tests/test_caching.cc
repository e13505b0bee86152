/**
 * @file
 * Equivalence tests for the hot-path caches: the MemSystem resolve
 * cache, flow-plan reuse and arbitration skip, and the LLC
 * apportionment memo must be observationally invisible -- a cached
 * instance driven through an arbitrary flow history must report
 * bit-identical grants, counters, and shares to an uncached one,
 * while actually hitting.
 */

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/llc.hh"
#include "mem/mem_system.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

using namespace kelp;
using namespace kelp::mem;

namespace {

MemSystemConfig
testConfig()
{
    MemSystemConfig cfg;
    cfg.numSockets = 2;
    cfg.socket.peakBw = 100.0;
    cfg.socket.baseLatency = 100.0;
    cfg.socket.inflationAt95 = 4.0;
    cfg.socket.distressThreshold = 0.8;
    cfg.socket.throttleStrength = 0.5;
    cfg.socket.sncLocalLatencyFactor = 0.9;
    cfg.socket.sncRemoteLatencyFactor = 1.1;
    cfg.upiCapacity = 40.0;
    cfg.upiHopLatency = 70.0;
    cfg.upiCoherenceTax = 1.0;
    return cfg;
}

constexpr sim::Time dt = 100 * sim::usec;

struct TickFlow
{
    int requestor;
    Route route;
    sim::GiBps demand;
    bool highPriority;
};

/** Sparse requestor ids the flow history draws from. */
constexpr std::array<int, 5> kRequestors = {0, 3, 7, 40, 199};

/** Ids probed for the default grant each tick: the drawn ones plus
 * never-drawn ids inside and beyond the largest drawn one. */
constexpr std::array<int, 8> kProbeIds = {0, 1, 3, 7, 40, 199, 200,
                                          1000};

/** A flow with every field drawn at random. */
TickFlow
randomFlow(sim::Rng &rng, int requestor)
{
    TickFlow flow;
    flow.requestor = requestor;
    flow.route.reqSocket = static_cast<sim::SocketId>(rng.below(2));
    flow.route.reqSub = static_cast<sim::SubdomainId>(rng.below(2));
    flow.route.homeSocket = static_cast<sim::SocketId>(rng.below(2));
    flow.route.homeSub = static_cast<sim::SubdomainId>(rng.below(2));
    flow.demand = rng.uniform(1.0, 80.0);
    flow.highPriority = rng.chance(0.3);
    return flow;
}

/** Change exactly one thing about the flow list's shape: one flow's
 * requestor, one route field, or priority bit, or drop or add one
 * flow. */
void
editShape(std::vector<TickFlow> &flows, sim::Rng &rng)
{
    const size_t at = rng.below(flows.size());
    TickFlow &f = flows[at];
    switch (rng.below(5)) {
      case 0: {
        // The next sparse id, so the requestor really changes.
        auto it = std::find(kRequestors.begin(), kRequestors.end(),
                            f.requestor);
        ++it;
        f.requestor = it == kRequestors.end() ? kRequestors.front() : *it;
        break;
      }
      case 1:
        switch (rng.below(4)) {
          case 0: f.route.reqSocket = 1 - f.route.reqSocket; break;
          case 1: f.route.reqSub = 1 - f.route.reqSub; break;
          case 2: f.route.homeSocket = 1 - f.route.homeSocket; break;
          default: f.route.homeSub = 1 - f.route.homeSub; break;
        }
        break;
      case 2:
        f.highPriority = !f.highPriority;
        break;
      case 3:
        if (flows.size() > 1) {
            flows.erase(flows.begin() + static_cast<long>(at));
            break;
        }
        [[fallthrough]];
      default:
        flows.insert(flows.begin() + static_cast<long>(at),
                     randomFlow(rng, kRequestors[rng.below(
                                         kRequestors.size())]));
        break;
    }
}

/** How often each kind of tick occurred in a flow history. */
struct HistoryMix
{
    int repeats = 0;
    int newDemands = 0;
    int shapeEdits = 0;
    int redraws = 0;
};

/** A randomized flow history with long stable stretches (the case
 * the resolve cache exists for), ticks that keep the flow list's
 * shape but move every demand (the case the flow plan exists for),
 * single-position shape edits, and occasional redraws. Each redraw
 * picks a random subset of the sparse ids, each submitting one to
 * three flows, so requestors merge several flows and vanish between
 * ticks. */
std::vector<std::vector<TickFlow>>
flowHistory(int ticks, uint64_t seed, HistoryMix *mix = nullptr)
{
    sim::Rng rng(seed);
    HistoryMix counts;
    std::vector<std::vector<TickFlow>> history;
    std::vector<TickFlow> current;
    for (int t = 0; t < ticks; ++t) {
        const double u = rng.uniform();
        if (current.empty() || u < 0.15) {
            ++counts.redraws;
            current.clear();
            for (int id : kRequestors) {
                if (!rng.chance(0.5))
                    continue;
                int n = 1 + static_cast<int>(rng.below(3));
                for (int f = 0; f < n; ++f)
                    current.push_back(randomFlow(rng, id));
            }
        } else if (u < 0.35) {
            ++counts.newDemands;
            for (TickFlow &f : current)
                f.demand = rng.uniform(1.0, 80.0);
        } else if (u < 0.55) {
            ++counts.shapeEdits;
            editShape(current, rng);
        } else {
            ++counts.repeats;
        }
        history.push_back(current);
    }
    if (mix)
        *mix = counts;
    return history;
}

/** EXPECT that a requestor without a flow this tick reads the
 * default grant from the memory system and from every controller. */
void
expectDefaultGrant(const MemSystem &mem, int requestor)
{
    const Grant g = mem.grant(requestor);
    EXPECT_EQ(g.delivered, 0.0) << "requestor " << requestor;
    EXPECT_EQ(g.fraction, 1.0) << "requestor " << requestor;
    EXPECT_EQ(g.latency, mem.baseLatency()) << "requestor " << requestor;
    for (sim::SocketId s = 0; s < mem.numSockets(); ++s) {
        for (sim::SubdomainId d = 0; d < 2; ++d) {
            const Controller &mc = mem.controller(s, d);
            const Grant c = mem.controllerGrant(s, d, requestor);
            EXPECT_EQ(c.delivered, 0.0) << "requestor " << requestor;
            EXPECT_EQ(c.fraction, 1.0) << "requestor " << requestor;
            EXPECT_EQ(c.latency, mc.latency())
                << "requestor " << requestor;
        }
    }
}

bool
hasFlow(const std::vector<TickFlow> &flows, int requestor)
{
    return std::any_of(flows.begin(), flows.end(),
                       [requestor](const TickFlow &f) {
                           return f.requestor == requestor;
                       });
}

void
driveTick(MemSystem &mem, const std::vector<TickFlow> &flows)
{
    mem.beginTick();
    for (const TickFlow &f : flows)
        mem.addFlow(f.requestor, f.route, f.demand, f.highPriority);
    mem.resolve(dt);
}

} // namespace

TEST(ResolveCache, CachedMatchesUncachedOverRandomChurn)
{
    // Every starting mode, with SNC and then arbitration toggled on
    // both instances mid-history.
    for (bool snc : {true, false}) {
        for (Arbitration arb :
             {Arbitration::Fair, Arbitration::RequestPriority}) {
            SCOPED_TRACE(std::string(snc ? "SNC on" : "SNC off") +
                         (arb == Arbitration::Fair ? ", Fair" :
                                                     ", RequestPriority"));
            MemSystem cached(testConfig());
            MemSystem plain(testConfig());
            plain.setResolveCacheEnabled(false);
            cached.setSncEnabled(snc);
            plain.setSncEnabled(snc);
            cached.setArbitration(arb);
            plain.setArbitration(arb);

            HistoryMix mix;
            const auto history = flowHistory(300, 42, &mix);
            for (size_t t = 0; t < history.size(); ++t) {
                if (t == 100) {
                    cached.setSncEnabled(!snc);
                    plain.setSncEnabled(!snc);
                }
                if (t == 200) {
                    const Arbitration other =
                        arb == Arbitration::Fair ?
                            Arbitration::RequestPriority :
                            Arbitration::Fair;
                    cached.setArbitration(other);
                    plain.setArbitration(other);
                }
                const auto &flows = history[t];
                driveTick(cached, flows);
                driveTick(plain, flows);

                for (const TickFlow &f : flows) {
                    Grant a = cached.grant(f.requestor);
                    Grant b = plain.grant(f.requestor);
                    EXPECT_EQ(a.delivered, b.delivered);
                    EXPECT_EQ(a.fraction, b.fraction);
                    EXPECT_EQ(a.latency, b.latency);
                }
                for (sim::SocketId s = 0; s < 2; ++s) {
                    EXPECT_EQ(cached.saturation(s), plain.saturation(s));
                    EXPECT_EQ(cached.coreThrottle(s),
                              plain.coreThrottle(s));
                    EXPECT_EQ(cached.counters(s).bw.integral(),
                              plain.counters(s).bw.integral());
                    EXPECT_EQ(cached.counters(s).latency.integral(),
                              plain.counters(s).latency.integral());
                    EXPECT_EQ(cached.fastAsserted(s).integral(),
                              plain.fastAsserted(s).integral());
                    for (sim::SubdomainId d = 0; d < 2; ++d) {
                        EXPECT_EQ(cached.controller(s, d).totalDelivered(),
                                  plain.controller(s, d).totalDelivered());
                        for (const TickFlow &f : flows) {
                            Grant a = cached.controllerGrant(s, d,
                                                             f.requestor);
                            Grant b = plain.controllerGrant(s, d,
                                                            f.requestor);
                            EXPECT_EQ(a.delivered, b.delivered);
                            EXPECT_EQ(a.fraction, b.fraction);
                            EXPECT_EQ(a.latency, b.latency);
                        }
                    }
                }
                EXPECT_EQ(cached.upi().utilization(),
                          plain.upi().utilization());
                for (int id : kProbeIds) {
                    if (!hasFlow(flows, id)) {
                        expectDefaultGrant(cached, id);
                        expectDefaultGrant(plain, id);
                    }
                }
            }

            // The history has stable stretches, so the cache must have
            // both hit and missed; the uncached instance must never
            // engage, nor skip an arbitration.
            EXPECT_GT(cached.resolveCacheHits(), 0u);
            EXPECT_GT(cached.resolveCacheMisses(), 0u);
            EXPECT_EQ(plain.resolveCacheHits(), 0u);
            EXPECT_GT(cached.mcCacheHits(), 0u);
            EXPECT_EQ(plain.mcCacheHits(), 0u);
            // Every kind of tick occurred, including the ones that
            // reuse the plan with new demands.
            EXPECT_GT(mix.newDemands, 0);
            EXPECT_GT(mix.shapeEdits, 0);
            EXPECT_GT(mix.redraws, 0);
            EXPECT_GT(mix.repeats, 0);
        }
    }
}

TEST(ResolveCache, StableLoadHitsEveryTickAfterTheFirst)
{
    MemSystem mem(testConfig());
    const std::vector<TickFlow> flows{
        {1, {0, 0, 0, 0}, 10.0, false},
        {2, {0, 1, 0, 1}, 30.0, false},
    };
    const int ticks = 50;
    for (int t = 0; t < ticks; ++t)
        driveTick(mem, flows);
    EXPECT_EQ(mem.resolveCacheMisses(), 1u);
    EXPECT_EQ(mem.resolveCacheHits(),
              static_cast<uint64_t>(ticks - 1));
}

TEST(ResolveCache, DemandChangeInvalidates)
{
    MemSystem mem(testConfig());
    std::vector<TickFlow> flows{{1, {0, 0, 0, 0}, 10.0, false}};
    driveTick(mem, flows);
    driveTick(mem, flows);
    EXPECT_EQ(mem.resolveCacheHits(), 1u);

    flows[0].demand = 11.0;
    driveTick(mem, flows);
    EXPECT_EQ(mem.resolveCacheHits(), 1u);
    EXPECT_EQ(mem.resolveCacheMisses(), 2u);

    // The new demand must be reflected, not the cached grant.
    EXPECT_NEAR(mem.grant(1).delivered, 11.0, 1e-9);
}

TEST(ResolveCache, DtChangeInvalidates)
{
    MemSystem mem(testConfig());
    const std::vector<TickFlow> flows{{1, {0, 0, 0, 0}, 10.0, false}};
    driveTick(mem, flows);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);
    mem.resolve(2.0 * dt);
    EXPECT_EQ(mem.resolveCacheHits(), 0u);
    EXPECT_EQ(mem.resolveCacheMisses(), 2u);
}

TEST(ApportionCache, MemoMatchesFreshApportionment)
{
    cpu::Llc llc(32.0, 12);
    cpu::ApportionCache memo;
    sim::Rng rng(7);

    std::vector<cpu::LlcRequest> reqs;
    for (int iter = 0; iter < 200; ++iter) {
        if (reqs.empty() || rng.uniform() < 0.4) {
            reqs.clear();
            int n = 1 + static_cast<int>(rng.below(3));
            for (int g = 0; g < n; ++g) {
                cpu::LlcRequest r;
                r.group = g;
                r.footprintMb = rng.uniform(1.0, 64.0);
                r.weight = rng.uniform(0.5, 4.0);
                r.dedicatedWays =
                    static_cast<int>(rng.below(5));
                r.hitMax = rng.uniform(0.5, 0.99);
                reqs.push_back(r);
            }
        }
        const auto &got = memo.get(llc, reqs);
        const auto fresh = llc.apportion(reqs);
        ASSERT_EQ(got.size(), fresh.size());
        for (const auto &[group, share] : fresh) {
            auto it = got.find(group);
            ASSERT_NE(it, got.end());
            EXPECT_EQ(it->second.capacityMb, share.capacityMb);
            EXPECT_EQ(it->second.hitRate, share.hitRate);
        }
    }
    EXPECT_GT(memo.hits(), 0u);
    EXPECT_GT(memo.misses(), 0u);
}

TEST(ApportionCache, GeometryChangeMisses)
{
    cpu::Llc small(16.0, 8);
    cpu::Llc large(32.0, 12);
    cpu::ApportionCache memo;
    std::vector<cpu::LlcRequest> reqs(1);
    reqs[0].group = 1;
    reqs[0].footprintMb = 8.0;

    memo.get(small, reqs);
    memo.get(small, reqs);
    EXPECT_EQ(memo.hits(), 1u);

    // Same requests against a different cache geometry must miss and
    // return the new geometry's shares.
    const auto &got = memo.get(large, reqs);
    EXPECT_EQ(memo.misses(), 2u);
    const auto fresh = large.apportion(reqs);
    EXPECT_EQ(got.at(1).capacityMb, fresh.at(1).capacityMb);
    EXPECT_EQ(got.at(1).hitRate, fresh.at(1).hitRate);
}
