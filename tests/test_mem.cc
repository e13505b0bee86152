/**
 * @file
 * Tests for the memory-system building blocks: latency curve,
 * controller arbitration, backpressure, and the UPI link.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mem/backpressure.hh"
#include "mem/controller.hh"
#include "mem/latency_curve.hh"
#include "mem/upi.hh"
#include "sim/types.hh"

using namespace kelp;
using namespace kelp::mem;

TEST(LatencyCurve, UnloadedEqualsBase)
{
    LatencyCurve c(90.0, 4.0);
    EXPECT_NEAR(c.at(0.0), 90.0, 1e-9);
    EXPECT_DOUBLE_EQ(c.base(), 90.0);
}

TEST(LatencyCurve, InflationAt95MatchesParameter)
{
    LatencyCurve c(90.0, 4.0);
    EXPECT_NEAR(c.inflation(0.95), 4.0, 1e-9);
    EXPECT_NEAR(c.at(0.95), 360.0, 1e-6);
}

TEST(LatencyCurve, ClampsAboveNinetyFive)
{
    LatencyCurve c(90.0, 4.0);
    EXPECT_NEAR(c.at(1.0), c.at(0.95), 1e-9);
    EXPECT_NEAR(c.at(5.0), c.at(0.95), 1e-9);
}

TEST(LatencyCurve, GentleAtLowLoad)
{
    LatencyCurve c(90.0, 4.0);
    EXPECT_LT(c.inflation(0.3), 1.05);
    EXPECT_LT(c.inflation(0.5), 1.15);
}

TEST(LatencyCurve, BadParamsPanic)
{
    EXPECT_DEATH(LatencyCurve(0.0, 4.0), "positive");
    EXPECT_DEATH(LatencyCurve(90.0, 0.5), ">= 1");
}

/** Monotonicity property across utilizations. */
class LatencyCurveMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(LatencyCurveMonotone, NonDecreasing)
{
    LatencyCurve c(90.0, GetParam());
    double prev = 0.0;
    for (double u = 0.0; u <= 1.0; u += 0.01) {
        double lat = c.at(u);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

INSTANTIATE_TEST_SUITE_P(Inflations, LatencyCurveMonotone,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0, 8.0));

namespace {

Controller
makeController(sim::GiBps capacity = 50.0)
{
    return Controller(0, 0, capacity, LatencyCurve(90.0, 4.0));
}

} // namespace

// Controller tests drive the arbitration routine directly: requestor
// 1 lands in merge slot 0 and requestor 2 in slot 1.

TEST(Controller, UnderSubscribedFullGrant)
{
    Controller mc = makeController();
    mc.resolve({{0, 10.0, false, 0.0}, {1, 20.0, false, 0.0}}, 2, true);
    EXPECT_DOUBLE_EQ(mc.grant(0).fraction, 1.0);
    EXPECT_DOUBLE_EQ(mc.grant(0).delivered, 10.0);
    EXPECT_DOUBLE_EQ(mc.grant(1).delivered, 20.0);
    EXPECT_DOUBLE_EQ(mc.totalDelivered(), 30.0);
    EXPECT_NEAR(mc.utilization(), 0.6, 1e-9);
}

TEST(Controller, OversubscribedProportionalShare)
{
    Controller mc = makeController(50.0);
    mc.resolve({{0, 60.0, false, 0.0}, {1, 40.0, false, 0.0}}, 2, true);
    EXPECT_NEAR(mc.grant(0).delivered, 30.0, 1e-9);
    EXPECT_NEAR(mc.grant(1).delivered, 20.0, 1e-9);
    EXPECT_NEAR(mc.grant(0).fraction, 0.5, 1e-9);
    EXPECT_NEAR(mc.totalDelivered(), 50.0, 1e-9);
    EXPECT_DOUBLE_EQ(mc.utilization(), 1.0);
}

TEST(Controller, LatencyGrowsWithLoad)
{
    Controller mc = makeController(50.0);
    mc.resolve({{0, 10.0, false, 0.0}}, 1, true);
    double light = mc.latency();
    mc.resolve({{0, 45.0, false, 0.0}}, 1, true);
    double heavy = mc.latency();
    EXPECT_GT(heavy, light);
}

TEST(Controller, LatencyExtraAddsToGrant)
{
    Controller mc = makeController();
    mc.resolve({{0, 10.0, false, 70.0}, {1, 10.0, false, 0.0}}, 2, true);
    EXPECT_NEAR(mc.grant(0).latency - mc.grant(1).latency, 70.0, 1e-9);
}

TEST(Controller, MergesFlowsOfSameRequestor)
{
    Controller mc = makeController();
    mc.resolve({{0, 10.0, false, 0.0}, {0, 15.0, false, 0.0}}, 1, true);
    EXPECT_NEAR(mc.grant(0).delivered, 25.0, 1e-9);
}

TEST(Controller, UnknownRequestorGetsNeutralGrant)
{
    // A slot outside the list, and one inside it that no contribution
    // reached, both read the neutral grant at the controller latency.
    Controller mc = makeController();
    mc.resolve({}, 2, true);
    for (int slot : {1, 99}) {
        Grant g = mc.grant(slot);
        EXPECT_DOUBLE_EQ(g.delivered, 0.0);
        EXPECT_DOUBLE_EQ(g.fraction, 1.0);
        EXPECT_EQ(g.latency, mc.latency());
    }
}

TEST(Controller, ZeroDemandIgnored)
{
    Controller mc = makeController();
    mc.resolve({{0, 0.0, false, 0.0}}, 1, true);
    EXPECT_DOUBLE_EQ(mc.totalDelivered(), 0.0);
    EXPECT_EQ(mc.grant(0).latency, mc.latency());
}

TEST(Controller, NegativeDemandPanics)
{
    Controller mc = makeController();
    EXPECT_DEATH(mc.resolve({{0, -1.0, false, 0.0}}, 1, true),
                 "negative");
}

TEST(Controller, MergeSlotOutOfRangePanics)
{
    // The controller indexes grants by merge slot; requestor ids are
    // checked where they enter (MemSystem.NegativeRequestorPanics).
    Controller mc = makeController();
    EXPECT_DEATH(mc.resolve({{-1, 10.0, false, 0.0}}, 1, true), "slot");
    EXPECT_DEATH(mc.resolve({{1, 10.0, false, 0.0}}, 1, true), "slot");
}

TEST(Controller, BeginTickClearsState)
{
    // Each tick's resolve() starts from its own contribution list.
    Controller mc = makeController();
    mc.resolve({{0, 10.0, false, 0.0}}, 1, true);
    mc.resolve({}, 1, true);
    EXPECT_DOUBLE_EQ(mc.totalDelivered(), 0.0);
    EXPECT_DOUBLE_EQ(mc.grant(0).delivered, 0.0);
}

TEST(Controller, RequestPriorityProtectsHighPriority)
{
    Controller mc = makeController(50.0);
    mc.setArbitration(Arbitration::RequestPriority);
    mc.resolve({{0, 10.0, true, 0.0},      // high priority
                {1, 100.0, false, 0.0}},   // aggressor
               2, true);
    // High priority gets full bandwidth at near-unloaded latency.
    EXPECT_NEAR(mc.grant(0).delivered, 10.0, 1e-9);
    EXPECT_LT(mc.grant(0).latency, 100.0);
    // Low priority absorbs all the loss and the queueing latency.
    EXPECT_NEAR(mc.grant(1).delivered, 40.0, 1e-9);
    EXPECT_GT(mc.grant(1).latency, mc.grant(0).latency);
}

TEST(Controller, RequestPriorityLowLatencyAtAnyLoad)
{
    // The hardware what-if must shield high-priority latency even
    // when the controller is busy but not oversubscribed.
    Controller mc = makeController(50.0);
    mc.setArbitration(Arbitration::RequestPriority);
    mc.resolve({{0, 5.0, true, 0.0},
                {1, 40.0, false, 0.0}},  // 90% load, undersubscribed
               2, true);
    EXPECT_DOUBLE_EQ(mc.grant(0).delivered, 5.0);
    EXPECT_LT(mc.grant(0).latency, mc.grant(1).latency);
    EXPECT_LT(mc.grant(0).latency, 100.0);
}

TEST(Controller, RequestPriorityFairWhenUnderSubscribed)
{
    Controller mc = makeController(50.0);
    mc.setArbitration(Arbitration::RequestPriority);
    mc.resolve({{0, 10.0, true, 0.0}, {1, 20.0, false, 0.0}}, 2, true);
    EXPECT_DOUBLE_EQ(mc.grant(0).delivered, 10.0);
    EXPECT_DOUBLE_EQ(mc.grant(1).delivered, 20.0);
}

TEST(Controller, SkipNeedsTheSameListAndSlotCount)
{
    Controller mc = makeController();
    const std::vector<Contribution> in{{0, 10.0, false, 0.0},
                                       {1, 20.0, true, 5.0}};
    mc.resolve(in, 2, true);
    mc.resolve(in, 2, true);
    EXPECT_EQ(mc.cacheHits(), 1u);
    mc.resolve(in, 3, true);          // the plan grew a requestor
    mc.resolve(in, 3, false);         // reuse switched off
    mc.setArbitration(Arbitration::Fair);
    mc.resolve(in, 3, true);          // arbitration (re)selected
    EXPECT_EQ(mc.cacheHits(), 1u);
    EXPECT_EQ(mc.cacheMisses(), 4u);
}

TEST(Controller, ZeroCapacityPanics)
{
    EXPECT_DEATH(makeController(0.0), "capacity");
}

TEST(Backpressure, BelowThresholdNoDistress)
{
    BackpressureUnit bp(0.8, 0.5);
    bp.update(0.5, 1e-4);
    EXPECT_DOUBLE_EQ(bp.assertedFraction(), 0.0);
    EXPECT_DOUBLE_EQ(bp.coreThrottle(), 1.0);
}

TEST(Backpressure, FullSaturationFullDistress)
{
    BackpressureUnit bp(0.8, 0.5);
    bp.update(1.0, 1e-4);
    EXPECT_DOUBLE_EQ(bp.assertedFraction(), 1.0);
    EXPECT_DOUBLE_EQ(bp.coreThrottle(), 0.5);
}

TEST(Backpressure, LinearDutyCycle)
{
    BackpressureUnit bp(0.8, 0.4);
    bp.update(0.9, 1e-4);
    EXPECT_NEAR(bp.assertedFraction(), 0.5, 1e-9);
    EXPECT_NEAR(bp.coreThrottle(), 0.8, 1e-9);
}

TEST(Backpressure, FastAssertedAccumulates)
{
    BackpressureUnit bp(0.8, 0.5);
    bp.update(1.0, 1.0);
    bp.update(0.5, 1.0);
    sim::IntervalAccumulator::Snapshot s;
    EXPECT_NEAR(bp.fastAsserted().readSince(s, 0.0), 0.5, 1e-9);
}

TEST(Backpressure, BadParamsPanic)
{
    EXPECT_DEATH(BackpressureUnit(0.0, 0.5), "threshold");
    EXPECT_DEATH(BackpressureUnit(1.5, 0.5), "threshold");
    EXPECT_DEATH(BackpressureUnit(0.8, 1.0), "strength");
}

TEST(Upi, GrantFractionUnderSubscribed)
{
    UpiLink upi(40.0, 70.0, 0.5);
    upi.beginTick();
    upi.addDemand(20.0);
    upi.resolve();
    EXPECT_DOUBLE_EQ(upi.grantFraction(), 1.0);
    EXPECT_DOUBLE_EQ(upi.utilization(), 0.5);
}

TEST(Upi, GrantFractionOversubscribed)
{
    UpiLink upi(40.0, 70.0, 0.5);
    upi.beginTick();
    upi.addDemand(80.0);
    upi.resolve();
    EXPECT_NEAR(upi.grantFraction(), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(upi.utilization(), 1.0);
}

TEST(Upi, RemoteLatencyGrowsWithLoad)
{
    UpiLink upi(40.0, 70.0, 0.5);
    upi.beginTick();
    upi.addDemand(4.0);
    upi.resolve();
    double light = upi.remoteLatency();
    EXPECT_NEAR(light, 70.0, 2.0);
    upi.beginTick();
    upi.addDemand(38.0);
    upi.resolve();
    EXPECT_GT(upi.remoteLatency(), light * 2.0);
}

TEST(Upi, CoherenceInflationRampsToFullTax)
{
    UpiLink upi(40.0, 70.0, 1.0);
    upi.beginTick();
    upi.addDemand(20.0);
    upi.resolve();
    // Congestion utilization = 20 / (0.8 * 40) = 0.625.
    EXPECT_NEAR(upi.coherenceInflation(),
                1.0 + std::pow(20.0 / 32.0, 1.5), 1e-9);
    upi.beginTick();
    upi.addDemand(40.0);
    upi.resolve();
    EXPECT_NEAR(upi.coherenceInflation(), 2.0, 1e-9);
}

TEST(Upi, CongestionUtilizationLeadsNominal)
{
    UpiLink upi(40.0, 70.0, 1.0);
    upi.beginTick();
    upi.addDemand(32.0);
    upi.resolve();
    EXPECT_NEAR(upi.utilization(), 0.8, 1e-9);
    EXPECT_NEAR(upi.congestionUtilization(), 1.0, 1e-9);
    upi.beginTick();
    upi.addDemand(16.0);
    upi.resolve();
    EXPECT_NEAR(upi.congestionUtilization(), 0.5, 1e-9);
}

TEST(Upi, DemandResetsEachTick)
{
    UpiLink upi(40.0, 70.0, 0.5);
    upi.beginTick();
    upi.addDemand(40.0);
    upi.resolve();
    upi.beginTick();
    upi.resolve();
    EXPECT_DOUBLE_EQ(upi.utilization(), 0.0);
    EXPECT_DOUBLE_EQ(upi.coherenceInflation(), 1.0);
}

TEST(Upi, BadParamsPanic)
{
    EXPECT_DEATH(UpiLink(0.0, 70.0, 0.5), "positive");
    EXPECT_DEATH(UpiLink(40.0, 70.0, -1.0), "tax");
}
