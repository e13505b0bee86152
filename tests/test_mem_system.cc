/**
 * @file
 * Tests for the assembled memory system: SNC routing, interleaving,
 * remote flows, backpressure wiring, and HAL counters.
 */

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "sim/types.hh"

using namespace kelp;
using namespace kelp::mem;

namespace {

MemSystemConfig
testConfig()
{
    MemSystemConfig cfg;
    cfg.numSockets = 2;
    cfg.socket.peakBw = 100.0;  // 50 per controller
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

} // namespace

TEST(MemSystem, SncRoutesToHomeSubdomain)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);
    mem.addFlow(2, {0, 1, 0, 1}, 30.0);
    mem.resolve(dt);
    EXPECT_NEAR(mem.controller(0, 0).totalDelivered(), 10.0, 1e-9);
    EXPECT_NEAR(mem.controller(0, 1).totalDelivered(), 30.0, 1e-9);
}

TEST(MemSystem, InterleavesWithoutSnc)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(false);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 20.0);
    mem.resolve(dt);
    EXPECT_NEAR(mem.controller(0, 0).totalDelivered(), 10.0, 1e-9);
    EXPECT_NEAR(mem.controller(0, 1).totalDelivered(), 10.0, 1e-9);
}

TEST(MemSystem, SncIsolatesBandwidth)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);   // ML in subdomain 0
    mem.addFlow(2, {0, 1, 0, 1}, 200.0);  // aggressor saturates sub 1
    mem.resolve(dt);
    // The ML flow keeps its full grant despite the other subdomain
    // being massively oversubscribed.
    EXPECT_NEAR(mem.grant(1).fraction, 1.0, 1e-9);
    EXPECT_LT(mem.grant(2).fraction, 0.3);
}

TEST(MemSystem, SncLocalLatencyBonus)
{
    MemSystem mem(testConfig());
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);
    mem.resolve(dt);
    double off = mem.grant(1).latency;

    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);
    mem.resolve(dt);
    double on = mem.grant(1).latency;
    EXPECT_NEAR(on / off, 0.9, 0.02);
}

TEST(MemSystem, SncCrossSubdomainLatencyPenalty)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);  // local access
    mem.addFlow(2, {0, 0, 0, 1}, 10.0);  // cross-subdomain access
    mem.resolve(dt);
    EXPECT_GT(mem.grant(2).latency, mem.grant(1).latency);
}

TEST(MemSystem, RemoteFlowUsesUpi)
{
    MemSystem mem(testConfig());
    mem.beginTick();
    mem.addFlow(1, {0, 0, 1, 0}, 20.0);  // socket 0 -> socket 1 data
    mem.resolve(dt);
    EXPECT_NEAR(mem.upi().utilization(), 0.5, 1e-9);
    // Remote access pays the hop latency.
    EXPECT_GT(mem.grant(1).latency, 100.0 + 60.0);
    // Data lands on the remote socket's controllers, occupying
    // them for 1.5x the data volume (coherence overhead).
    EXPECT_NEAR(mem.controller(1, 0).totalDelivered() +
                mem.controller(1, 1).totalDelivered(),
                20.0 * 1.5, 1e-9);
}

TEST(MemSystem, UpiCapsRemoteFlows)
{
    MemSystem mem(testConfig());
    mem.beginTick();
    mem.addFlow(1, {0, 0, 1, 0}, 80.0);  // 2x the link capacity
    mem.resolve(dt);
    EXPECT_NEAR(mem.grant(1).fraction, 0.5, 1e-9);
}

TEST(MemSystem, CoherenceTaxHitsLocalTraffic)
{
    MemSystem mem(testConfig());
    // Local-only baseline.
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);
    mem.resolve(dt);
    double quiet = mem.grant(1).latency;
    // Same local flow while the link is saturated by someone else.
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);
    mem.addFlow(2, {1, 0, 0, 1}, 40.0);
    mem.resolve(dt);
    EXPECT_GT(mem.grant(1).latency, quiet * 1.5);
}

TEST(MemSystem, DistressAssertsOnSaturation)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 1, 0, 1}, 60.0);  // 120% of one controller
    mem.resolve(dt);
    EXPECT_DOUBLE_EQ(mem.saturation(0), 1.0);
    EXPECT_NEAR(mem.coreThrottle(0), 0.5, 1e-9);
    // The other socket is unaffected.
    EXPECT_DOUBLE_EQ(mem.saturation(1), 0.0);
    EXPECT_DOUBLE_EQ(mem.coreThrottle(1), 1.0);
}

TEST(MemSystem, ThrottleReflectsLastResolve)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 1, 0, 1}, 60.0);
    mem.resolve(dt);
    EXPECT_LT(mem.coreThrottle(0), 1.0);
    mem.beginTick();
    mem.resolve(dt);
    EXPECT_DOUBLE_EQ(mem.coreThrottle(0), 1.0);
}

TEST(MemSystem, SocketCountersTrackBandwidth)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    for (int i = 0; i < 5; ++i) {
        mem.beginTick();
        mem.addFlow(1, {0, 0, 0, 0}, 10.0);
        mem.addFlow(2, {0, 1, 0, 1}, 20.0);
        mem.resolve(dt);
    }
    sim::IntervalAccumulator::Snapshot bw, s0, s1;
    EXPECT_NEAR(mem.counters(0).bw.readSince(bw, 0.0), 30.0, 1e-9);
    EXPECT_NEAR(mem.counters(0).subdomainBw[0].readSince(s0, 0.0),
                10.0, 1e-9);
    EXPECT_NEAR(mem.counters(0).subdomainBw[1].readSince(s1, 0.0),
                20.0, 1e-9);
}

TEST(MemSystem, SubdomainLatencyCountersIndependent)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    for (int i = 0; i < 5; ++i) {
        mem.beginTick();
        mem.addFlow(1, {0, 0, 0, 0}, 5.0);
        mem.addFlow(2, {0, 1, 0, 1}, 60.0);  // saturates sub 1
        mem.resolve(dt);
    }
    sim::IntervalAccumulator::Snapshot l0, l1;
    double lat0 = mem.counters(0).subdomainLat[0].readSince(l0, 0.0);
    double lat1 = mem.counters(0).subdomainLat[1].readSince(l1, 0.0);
    EXPECT_GT(lat1, lat0 * 1.5);
}

TEST(MemSystem, GrantAggregatesAcrossFlows)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0);
    mem.addFlow(1, {0, 0, 0, 1}, 10.0);
    mem.resolve(dt);
    EXPECT_NEAR(mem.grant(1).delivered, 20.0, 1e-9);
    EXPECT_NEAR(mem.grant(1).fraction, 1.0, 1e-9);
}

TEST(MemSystem, FastAssertedIntegral)
{
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 1, 0, 1}, 100.0);
    mem.resolve(dt);
    mem.beginTick();
    mem.resolve(dt);
    sim::IntervalAccumulator::Snapshot s;
    EXPECT_NEAR(mem.fastAsserted(0).readSince(s, 0.0), 0.5, 1e-9);
}

TEST(MemSystem, UnknownRequestorNeutral)
{
    MemSystem mem(testConfig());
    mem.beginTick();
    mem.resolve(dt);
    Grant g = mem.grant(42);
    EXPECT_DOUBLE_EQ(g.fraction, 1.0);
    EXPECT_DOUBLE_EQ(g.latency, 100.0);
}

TEST(MemSystem, InvalidRoutePanics)
{
    MemSystem mem(testConfig());
    mem.beginTick();
    EXPECT_DEATH(mem.addFlow(1, {0, 0, 5, 0}, 1.0), "socket");
}

TEST(MemSystem, InvalidSubdomainPanics)
{
    // Subdomains index a socket's two controllers; with SNC on an
    // unchecked homeSub would route demand past the controller pair.
    MemSystem mem(testConfig());
    mem.setSncEnabled(true);
    mem.beginTick();
    EXPECT_DEATH(mem.addFlow(1, {0, 0, 0, 2}, 10.0), "subdomain");
    EXPECT_DEATH(mem.addFlow(1, {0, 0, 0, -1}, 10.0), "subdomain");
    EXPECT_DEATH(mem.addFlow(1, {0, 2, 0, 0}, 10.0), "subdomain");
}

TEST(MemSystem, NegativeRequestorPanics)
{
    MemSystem mem(testConfig());
    mem.beginTick();
    EXPECT_DEATH(mem.addFlow(-1, {0, 0, 0, 0}, 10.0), "requestor");
}

TEST(MemSystem, TooManySocketsPanics)
{
    MemSystemConfig cfg = testConfig();
    cfg.numSockets = 3;
    EXPECT_DEATH(MemSystem{cfg}, "sockets");
}

TEST(MemSystem, RequestPriorityModePropagates)
{
    MemSystem mem(testConfig());
    mem.setArbitration(Arbitration::RequestPriority);
    mem.setSncEnabled(true);
    mem.beginTick();
    mem.addFlow(1, {0, 0, 0, 0}, 10.0, true);
    mem.addFlow(2, {0, 0, 0, 0}, 100.0, false);
    mem.resolve(dt);
    EXPECT_NEAR(mem.grant(1).fraction, 1.0, 1e-9);
    EXPECT_LT(mem.grant(2).fraction, 0.5);
}
