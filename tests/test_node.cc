/**
 * @file
 * Tests for the node orchestration: core pools, SMT, LLC
 * apportionment wiring, demand routing, and throttle application.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "node/node.hh"
#include "node/platform.hh"
#include "workload/batch_task.hh"

using namespace kelp;

namespace {

node::PlatformSpec
spec()
{
    node::PlatformSpec p = node::platformFor(accel::Kind::TpuV1);
    return p;  // 16 cores/socket, 32 MiB LLC, 76.8 GiB/s
}

wl::HostPhaseParams
streamish()
{
    wl::HostPhaseParams p;
    p.cpuFrac = 0.1;
    p.bwPerCore = 5.0;
    p.latencySensitivity = 0.2;
    p.llcFootprintMb = 256.0;
    p.llcHitMax = 0.05;
    return p;
}

constexpr sim::Time dt = 100 * sim::usec;

/** A batch task that counts its llcProfile() calls. Only
 * Node::computeLlc makes them, so the count shows how often the node
 * recomputed its core shares and LLC miss ratios. */
class LlcProfileSpy : public wl::BatchTask
{
  public:
    using wl::BatchTask::BatchTask;

    wl::HostPhaseParams
    llcProfile() const override
    {
        ++calls;
        return wl::BatchTask::llcProfile();
    }

    mutable int calls = 0;
};

} // namespace

TEST(Node, TaskPlacementAssignsIds)
{
    node::Node n(spec());
    auto g = n.groups().create("g", hal::Priority::Low).id();
    auto &a = n.add(std::make_unique<wl::BatchTask>("a", g, 2,
                                                    streamish()));
    auto &b = n.add(std::make_unique<wl::BatchTask>("b", g, 2,
                                                    streamish()));
    EXPECT_EQ(a.id(), 0);
    EXPECT_EQ(b.id(), 1);
}

TEST(Node, UnknownGroupPanics)
{
    node::Node n(spec());
    EXPECT_DEATH(n.add(std::make_unique<wl::BatchTask>(
                     "a", 3, 2, streamish())),
                 "unknown group");
}

TEST(Node, FloatingTasksGetFullCores)
{
    node::Node n(spec());
    auto g = n.groups().create("g", hal::Priority::Low).id();
    auto &t = n.add(std::make_unique<wl::BatchTask>("t", g, 4,
                                                    streamish()));
    n.tick(0.0, dt);
    EXPECT_NEAR(n.lastEnv(t).effCores, 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(n.lastEnv(t).smtFactor, 1.0);
}

TEST(Node, FairShareWithinPool)
{
    node::Node n(spec());
    auto g = n.groups().create("g", hal::Priority::Low).id();
    // 16 cores, two tasks wanting 24 threads total: SMT territory.
    auto &a = n.add(std::make_unique<wl::BatchTask>("a", g, 12,
                                                    streamish()));
    auto &b = n.add(std::make_unique<wl::BatchTask>("b", g, 12,
                                                    streamish()));
    n.tick(0.0, dt);
    // All 24 threads run (2 threads/core possible on 16 cores)...
    EXPECT_NEAR(n.lastEnv(a).effCores, 12.0, 1e-9);
    // ...but each runs below full speed due to sibling sharing.
    EXPECT_LT(n.lastEnv(a).smtFactor, 1.0);
    EXPECT_GT(n.lastEnv(a).smtFactor, 0.6);
    EXPECT_DOUBLE_EQ(n.lastEnv(a).smtFactor, n.lastEnv(b).smtFactor);
}

TEST(Node, ExtremeOversubscriptionLimitsSlots)
{
    node::Node n(spec());
    auto g = n.groups().create("g", hal::Priority::Low).id();
    auto &a = n.add(std::make_unique<wl::BatchTask>("a", g, 64,
                                                    streamish()));
    n.tick(0.0, dt);
    // Only 2 threads per core can run: 32 of 64.
    EXPECT_NEAR(n.lastEnv(a).effCores, 32.0, 1e-9);
}

TEST(Node, PinnedGroupIsolatedFromFloating)
{
    node::Node n(spec());
    auto ml = n.groups().create("ml", hal::Priority::High).id();
    auto batch = n.groups().create("batch", hal::Priority::Low).id();
    n.knobs().setCores(ml, 0, 0, 4);
    auto &m = n.add(std::make_unique<wl::BatchTask>("m", ml, 4,
                                                    streamish()));
    auto &b = n.add(std::make_unique<wl::BatchTask>("b", batch, 40,
                                                    streamish()));
    n.tick(0.0, dt);
    // The pinned group's task is untouched by the floating horde.
    EXPECT_NEAR(n.lastEnv(m).effCores, 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(n.lastEnv(m).smtFactor, 1.0);
    // The floating pool only has the remaining 12 cores.
    EXPECT_NEAR(n.lastEnv(b).effCores, 24.0, 1e-9);
}

TEST(Node, MissRatioStableAcrossTicks)
{
    // Regression: the per-tick miss-ratio rebuild must not
    // accumulate (early bug: ratios summed tick over tick under SNC).
    node::Node n(spec());
    n.setSncEnabled(true);
    auto g = n.groups().create("g", hal::Priority::Low).id();
    n.knobs().setCores(g, 0, 1, 8);
    auto &t = n.add(std::make_unique<wl::BatchTask>("t", g, 8,
                                                    streamish()));
    n.tick(0.0, dt);
    double first = n.lastEnv(t).missRatio;
    for (int i = 1; i <= 50; ++i)
        n.tick(i * dt, dt);
    EXPECT_NEAR(n.lastEnv(t).missRatio, first, 1e-9);
}

TEST(Node, LocalAllocationRoutesPerSubdomain)
{
    node::Node n(spec());
    n.setSncEnabled(true);
    auto g = n.groups().create("g", hal::Priority::Low).id();
    n.knobs().setCores(g, 0, 0, 2);
    n.knobs().setCores(g, 0, 1, 6);
    n.knobs().setPrefetchersEnabled(g, 8);
    n.add(std::make_unique<wl::BatchTask>("t", g, 8, streamish()));
    n.tick(0.0, dt);
    double d0 = n.memSystem().controller(0, 0).totalDelivered();
    double d1 = n.memSystem().controller(0, 1).totalDelivered();
    EXPECT_GT(d0, 0.0);
    EXPECT_NEAR(d1 / d0, 3.0, 0.01);  // 6:2 core split
}

TEST(Node, ExplicitDataPlacementOverridesLocal)
{
    node::Node n(spec());
    auto g = n.groups().create("g", hal::Priority::Low).id();
    auto &t = n.add(std::make_unique<wl::BatchTask>("t", g, 4,
                                                    streamish()));
    t.setDataPlacement({{1, 0, 1.0}});  // everything remote
    n.tick(0.0, dt);
    double local = n.memSystem().controller(0, 0).totalDelivered() +
                   n.memSystem().controller(0, 1).totalDelivered();
    double remote = n.memSystem().controller(1, 0).totalDelivered() +
                    n.memSystem().controller(1, 1).totalDelivered();
    EXPECT_DOUBLE_EQ(local, 0.0);
    EXPECT_GT(remote, 0.0);
    EXPECT_GT(n.memSystem().upi().utilization(), 0.0);
}

TEST(Node, DistressThrottleReachesTasks)
{
    node::Node n(spec());
    n.setSncEnabled(true);
    auto ml = n.groups().create("ml", hal::Priority::High).id();
    auto batch = n.groups().create("batch", hal::Priority::Low).id();
    n.knobs().setCores(ml, 0, 0, 4);
    n.knobs().setCores(batch, 0, 1, 8);
    n.knobs().setPrefetchersEnabled(batch, 8);
    auto &m = n.add(std::make_unique<wl::BatchTask>("m", ml, 4,
                                                    streamish()));
    // 8 streaming threads at 5 GiB/s overwhelm one 38.4 GiB/s MC.
    n.add(std::make_unique<wl::BatchTask>("b", batch, 8,
                                          streamish()));
    n.tick(0.0, dt);      // saturation detected at resolve
    n.tick(dt, dt);       // throttle visible one tick later
    EXPECT_LT(n.lastEnv(m).throttle, 1.0);
}

TEST(Node, PriorityAwareBackpressureExemptsHighPriority)
{
    node::Node n(spec());
    n.setSncEnabled(true);
    n.setPriorityAwareBackpressure(true);
    auto ml = n.groups().create("ml", hal::Priority::High).id();
    auto batch = n.groups().create("batch", hal::Priority::Low).id();
    n.knobs().setCores(ml, 0, 0, 4);
    n.knobs().setCores(batch, 0, 1, 8);
    n.knobs().setPrefetchersEnabled(batch, 8);
    auto &m = n.add(std::make_unique<wl::BatchTask>("m", ml, 4,
                                                    streamish()));
    auto &b = n.add(std::make_unique<wl::BatchTask>("b", batch, 8,
                                                    streamish()));
    n.tick(0.0, dt);
    n.tick(dt, dt);
    EXPECT_DOUBLE_EQ(n.lastEnv(m).throttle, 1.0);
    EXPECT_LT(n.lastEnv(b).throttle, 1.0);
}

TEST(Node, PrefetcherFractionReachesEnv)
{
    node::Node n(spec());
    auto g = n.groups().create("g", hal::Priority::Low).id();
    n.knobs().setCores(g, 0, 1, 8);
    n.knobs().setPrefetchersEnabled(g, 2);
    auto &t = n.add(std::make_unique<wl::BatchTask>("t", g, 8,
                                                    streamish()));
    n.tick(0.0, dt);
    EXPECT_NEAR(n.lastEnv(t).pfFraction, 0.25, 1e-9);
}

TEST(Node, CatWaysProtectHitRate)
{
    node::Node n(spec());
    auto ml = n.groups().create("ml", hal::Priority::High).id();
    auto batch = n.groups().create("batch", hal::Priority::Low).id();
    n.knobs().setCores(ml, 0, 0, 2);
    n.knobs().setCores(ml, 0, 1, 2);
    n.knobs().setCores(batch, 0, 0, 6);
    n.knobs().setCores(batch, 0, 1, 6);
    n.knobs().setPrefetchersEnabled(batch, 12);
    n.knobs().setPrefetchersEnabled(ml, 4);

    wl::HostPhaseParams hot;
    hot.cpuFrac = 0.5;
    hot.llcFootprintMb = 6.0;
    hot.llcHitMax = 0.9;
    wl::HostPhaseParams scan = streamish();
    scan.llcFootprintMb = 32.0;
    scan.llcHitMax = 0.9;
    scan.llcWeight = 5.0;

    auto &victim = n.add(std::make_unique<wl::BatchTask>(
        "victim", ml, 4, hot));
    n.add(std::make_unique<wl::BatchTask>("scan", batch, 12, scan));

    n.tick(0.0, dt);
    double unprotected = n.lastEnv(victim).missRatio;

    n.knobs().setCatWays(ml, 4);  // 4 of 16 ways = 8 MiB dedicated
    n.tick(dt, dt);
    double protected_ratio = n.lastEnv(victim).missRatio;
    EXPECT_GT(unprotected, 1.5);
    EXPECT_NEAR(protected_ratio, 1.0, 0.05);
}

TEST(Node, EngineAttachDrivesTicks)
{
    node::Node n(spec());
    auto g = n.groups().create("g", hal::Priority::Low).id();
    auto &t = n.add(std::make_unique<wl::BatchTask>("t", g, 2,
                                                    streamish()));
    sim::Engine e(dt);
    n.attach(e);
    e.run(0.1);
    EXPECT_NEAR(t.completedWork(), 0.2, 0.01);
}

TEST(Node, CoreSharesAreReusedUntilAChangeHookFires)
{
#ifndef NDEBUG
    // Debug builds recompute every reused tick to cross-check it.
    GTEST_SKIP() << "debug cross-checks recompute by design";
#endif
    node::Node n(spec());
    auto g = n.groups().create("g", hal::Priority::Low).id();
    auto &t = n.add(std::make_unique<LlcProfileSpy>("t", g, 4,
                                                    streamish()));
    int ticks = 0;
    auto step = [&] {
        n.tick(ticks * dt, dt);
        ++ticks;
    };
    step();
    const int per_compute = t.calls;
    ASSERT_GT(per_compute, 0);

    // Nothing marked the node dirty: the shares are reused.
    for (int i = 0; i < 10; ++i)
        step();
    EXPECT_EQ(t.calls, per_compute);

    // A CAT write fires the registry hook: one recompute, then reuse.
    n.knobs().setCatWays(g, 2);
    step();
    EXPECT_EQ(t.calls, 2 * per_compute);
    step();
    EXPECT_EQ(t.calls, 2 * per_compute);

    // The reference path recomputes on every tick.
    n.setEventDrivenEnabled(false);
    for (int i = 0; i < 5; ++i) {
        const int before = t.calls;
        step();
        EXPECT_EQ(t.calls, before + per_compute);
    }
}

TEST(Node, ReusedSharesMatchRecomputedThroughEveryChangeHook)
{
    // Two identical nodes, one on the reference path. Every step of
    // the script changes one input of the core shares, the LLC miss
    // ratios, or the routing; a change hook that went missing would
    // leave the event-driven node on stale shares.
    struct Rig
    {
        node::Node n{spec()};
        sim::GroupId ml = 0;
        sim::GroupId batch = 0;
        sim::GroupId late = 0;
        wl::BatchTask *victim = nullptr;
        wl::BatchTask *scan = nullptr;
        wl::BatchTask *stream = nullptr;
    };
    auto build = [](Rig &r) {
        r.ml = r.n.groups().create("ml", hal::Priority::High).id();
        r.batch = r.n.groups().create("batch", hal::Priority::Low).id();
        r.n.knobs().setCores(r.ml, 0, 0, 4);
        r.n.knobs().setCores(r.batch, 0, 1, 6);
        r.n.knobs().setPrefetchersEnabled(r.batch, 6);
        wl::HostPhaseParams hot;
        hot.cpuFrac = 0.5;
        hot.llcFootprintMb = 6.0;
        hot.llcHitMax = 0.9;
        wl::HostPhaseParams scan = streamish();
        scan.llcFootprintMb = 32.0;
        scan.llcHitMax = 0.9;
        scan.llcWeight = 5.0;
        r.victim = &r.n.add(
            std::make_unique<wl::BatchTask>("victim", r.ml, 6, hot));
        r.scan = &r.n.add(
            std::make_unique<wl::BatchTask>("scan", r.batch, 8, scan));
        r.stream = &r.n.add(std::make_unique<wl::BatchTask>(
            "stream", r.batch, 4, streamish()));
    };
    Rig fast, ref;
    build(fast);
    build(ref);
    ref.n.setEventDrivenEnabled(false);

    using wl::LifeState;
    const std::vector<std::function<void(Rig &)>> script = {
        [](Rig &r) { r.n.knobs().setCores(r.ml, 0, 1, 2); },
        [](Rig &r) { r.n.knobs().setCatWays(r.ml, 4); },
        [](Rig &r) { r.n.knobs().setPrefetchersEnabled(r.batch, 2); },
        [](Rig &r) { r.scan->setLifeState(LifeState::Suspended); },
        [](Rig &r) { r.scan->setLifeState(LifeState::Running); },
        [](Rig &r) { r.scan->setLifeState(LifeState::Finished); },
        [](Rig &r) { r.stream->setThreads(12); },
        [](Rig &r) { r.stream->setHomeSocket(1); },
        [](Rig &r) { r.stream->setDataPlacement({{0, 1, 1.0}}); },
        [](Rig &r) {
            r.late = r.n.groups().create("late", hal::Priority::Low).id();
        },
        [](Rig &r) {
            r.n.add(std::make_unique<wl::BatchTask>("late", r.late, 3,
                                                    streamish()));
        },
        [](Rig &r) { r.n.setSncEnabled(true); },
        [](Rig &r) { r.n.setSncEnabled(false); },
        [](Rig &r) { r.n.setPriorityAwareBackpressure(true); },
    };

    int ticks = 0;
    auto tickBoth = [&] {
        fast.n.tick(ticks * dt, dt);
        ref.n.tick(ticks * dt, dt);
        ++ticks;
        ASSERT_EQ(fast.n.tasks().size(), ref.n.tasks().size());
        for (size_t i = 0; i < ref.n.tasks().size(); ++i) {
            const wl::ExecEnv &a = fast.n.lastEnv(*fast.n.tasks()[i]);
            const wl::ExecEnv &b = ref.n.lastEnv(*ref.n.tasks()[i]);
            SCOPED_TRACE("tick " + std::to_string(ticks) + ", task " +
                         ref.n.tasks()[i]->name());
            EXPECT_EQ(a.socket, b.socket);
            EXPECT_EQ(a.effCores, b.effCores);
            EXPECT_EQ(a.smtFactor, b.smtFactor);
            EXPECT_EQ(a.missRatio, b.missRatio);
            EXPECT_EQ(a.pfFraction, b.pfFraction);
            EXPECT_EQ(a.throttle, b.throttle);
            EXPECT_EQ(a.latencyNs, b.latencyNs);
            EXPECT_EQ(a.baseLatencyNs, b.baseLatencyNs);
            EXPECT_EQ(a.bwFraction, b.bwFraction);
            const int id = ref.n.tasks()[i]->id();
            mem::Grant ga = fast.n.memSystem().grant(id);
            mem::Grant gb = ref.n.memSystem().grant(id);
            EXPECT_EQ(ga.delivered, gb.delivered);
            EXPECT_EQ(ga.fraction, gb.fraction);
            EXPECT_EQ(ga.latency, gb.latency);
        }
    };

    for (int i = 0; i < 3; ++i)
        tickBoth();
    for (const auto &change : script) {
        change(fast);
        change(ref);
        for (int i = 0; i < 3; ++i)
            tickBoth();
    }
}
