/**
 * @file
 * Event-driven tick engine: bit-identity and machinery tests.
 *
 * The engine's contract is absolute: with the fast path on, every
 * scenario -- steady colocation, churn, faults with controller
 * kills, the SLO ladder, open-loop traffic -- must produce a
 * RunResult bitwise equal to the full-tick reference, while actually
 * skipping ticks where it claims quiescence. These tests pin both
 * halves: equal result text (fuzz::resultText, every result field),
 * and engagement (per-scenario skip-ratio floors, cache hits) so the
 * fast path cannot silently rot into "always falls back".
 */

#include <gtest/gtest.h>

#include <vector>

#include "exp/scenario.hh"
#include "fuzz/oracle.hh"
#include "mem/mem_system.hh"
#include "sim/engine.hh"
#include "workload/batch_task.hh"

using namespace kelp;

namespace {

/** Shortened timing so the whole suite stays fast. */
exp::RunConfig
baseConfig()
{
    exp::RunConfig cfg;
    cfg.warmup = 4.0;
    cfg.measure = 8.0;
    return cfg;
}

/** Run cfg with the fast path on and off; both results returned. */
std::pair<exp::RunResult, exp::RunResult>
runBoth(exp::RunConfig cfg)
{
    cfg.eventDriven = true;
    exp::RunResult fast = exp::runScenario(cfg);
    cfg.eventDriven = false;
    exp::RunResult full = exp::runScenario(cfg);
    return {fast, full};
}

// ---------------------------------------------------------------------
// Engine-level fast-forward machinery.

TEST(EngineFastForward, ConsumesTicksAndCountsThem)
{
    sim::Engine e(0.001);
    uint64_t full_ticks = 0;
    e.onTick([&](sim::Time, sim::Time) { ++full_ticks; });
    uint64_t offered = 0;
    e.setFastForward([&](sim::Time, sim::Time, uint64_t max_ticks) {
        offered += max_ticks;
        return max_ticks;  // consume everything offered
    });
    e.run(1.0);
    EXPECT_EQ(e.tickCount(), 1000u);
    EXPECT_EQ(e.tickCount(), e.fastTickCount() + e.fullTickCount());
    EXPECT_GT(e.fastTickCount(), 900u);
    EXPECT_EQ(full_ticks, e.fullTickCount());
}

TEST(EngineFastForward, RefusingHookFallsBackToFullTicks)
{
    sim::Engine e(0.001);
    uint64_t full_ticks = 0;
    e.onTick([&](sim::Time, sim::Time) { ++full_ticks; });
    e.setFastForward(
        [](sim::Time, sim::Time, uint64_t) -> uint64_t { return 0; });
    e.run(0.5);
    EXPECT_EQ(e.tickCount(), 500u);
    EXPECT_EQ(e.fastTickCount(), 0u);
    EXPECT_EQ(full_ticks, 500u);
}

TEST(EngineFastForward, StopsShortOfPeriodicDeadlines)
{
    // A periodic every 100 ticks: fast-forward chunks must never
    // cross it, and every firing must still happen.
    sim::Engine e(0.001);
    e.onTick([](sim::Time, sim::Time) {});
    int fires = 0;
    e.every(0.1, [&](sim::Time) { ++fires; });
    e.setFastForward([](sim::Time, sim::Time, uint64_t max_ticks) {
        return max_ticks;
    });
    e.run(1.0);
    EXPECT_EQ(fires, 10);
    EXPECT_EQ(e.periodicFireCount(), 10u);
    EXPECT_EQ(e.tickCount(), 1000u);
    EXPECT_GT(e.fastTickCount(), 0u);
}

TEST(EngineFastForward, TimeAdvanceMatchesSteppedEngine)
{
    // now() must be bitwise equal however ticks were consumed.
    sim::Engine fast(0.001);
    fast.onTick([](sim::Time, sim::Time) {});
    fast.setFastForward([](sim::Time, sim::Time, uint64_t max_ticks) {
        return max_ticks;
    });
    fast.run(0.777);

    sim::Engine full(0.001);
    full.onTick([](sim::Time, sim::Time) {});
    full.run(0.777);

    EXPECT_EQ(fast.now(), full.now());
    EXPECT_EQ(fast.tickCount(), full.tickCount());
}

// ---------------------------------------------------------------------
// Controller arbitration skip, driven through MemSystem: the skip
// counters are per controller, and a cache-off twin arbitrates every
// tick as the reference.

namespace {

mem::MemSystemConfig
skipConfig()
{
    mem::MemSystemConfig cfg;
    cfg.socket.peakBw = 200.0;  // 100 GiB/s per controller
    return cfg;
}

} // namespace

TEST(ControllerCache, RepeatedDemandsHitAndMatch)
{
    mem::MemSystem inc(skipConfig());
    mem::MemSystem ref(skipConfig());
    ref.setResolveCacheEnabled(false);
    inc.setSncEnabled(true);
    ref.setSncEnabled(true);

    const sim::Time dt = 100 * sim::usec;
    for (int t = 0; t < 50; ++t) {
        // Controller (0, 0)'s contributions repeat except for a
        // mutation at tick 25: requestor 1 at high priority, and
        // requestor 2 remote (60 GiB/s at the home controller after
        // the remote overhead, plus the link's hop latency). Requestor
        // 3 moves every tick on controller (0, 1), so the memory
        // system resolves in full every tick and only the
        // arbitration skip can spare controller (0, 0).
        double d0 = t >= 25 ? 30.0 : 40.0;
        for (mem::MemSystem *m : {&inc, &ref}) {
            m->beginTick();
            m->addFlow(1, {0, 0, 0, 0}, d0, true);
            m->addFlow(2, {1, 0, 0, 0}, 40.0, false);
            m->addFlow(3, {0, 1, 0, 1}, 10.0 + t, false);
            m->resolve(dt);
        }

        for (int r = 1; r <= 3; ++r) {
            mem::Grant a = inc.grant(r);
            mem::Grant b = ref.grant(r);
            EXPECT_EQ(a.delivered, b.delivered);
            EXPECT_EQ(a.fraction, b.fraction);
            EXPECT_EQ(a.latency, b.latency);
        }
        EXPECT_GT(inc.controllerGrant(0, 0, 2).latency,
                  inc.controller(0, 0).latency());
    }
    EXPECT_EQ(inc.resolveCacheHits(), 0u);
    // The hit pattern: two arbitrations (first tick, tick-25
    // mutation), every other tick skips. The twin never skips.
    EXPECT_EQ(inc.controller(0, 0).cacheMisses(), 2u);
    EXPECT_EQ(inc.controller(0, 0).cacheHits(), 48u);
    EXPECT_EQ(ref.controller(0, 0).cacheMisses(), 50u);
    EXPECT_EQ(ref.controller(0, 0).cacheHits(), 0u);
}

TEST(ControllerCache, ReorderedDemandsMiss)
{
    mem::MemSystem mem(skipConfig());
    mem::MemSystem ref(skipConfig());
    ref.setResolveCacheEnabled(false);
    const sim::Time dt = 100 * sim::usec;
    for (mem::MemSystem *m : {&mem, &ref}) {
        m->setSncEnabled(true);
        m->beginTick();
        m->addFlow(1, {0, 0, 0, 0}, 40.0);
        m->addFlow(2, {0, 0, 0, 0}, 60.0);
        m->resolve(dt);
        m->beginTick();
        m->addFlow(2, {0, 0, 0, 0}, 60.0);
        m->addFlow(1, {0, 0, 0, 0}, 40.0);
        m->resolve(dt);
    }
    EXPECT_EQ(mem.controller(0, 0).cacheHits(), 0u);
    EXPECT_EQ(mem.controller(0, 0).cacheMisses(), 2u);
    for (int r = 1; r <= 2; ++r) {
        EXPECT_EQ(mem.grant(r).delivered, ref.grant(r).delivered);
        EXPECT_EQ(mem.grant(r).latency, ref.grant(r).latency);
    }
}

// ---------------------------------------------------------------------
// Scenario-level bit-identity: fast vs. full across every subsystem.

TEST(EventDrivenIdentity, SteadyColocation)
{
    exp::RunConfig cfg = baseConfig();
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 3;
    cfg.config = exp::ConfigKind::KP;
    auto [fast, full] = runBoth(cfg);
    EXPECT_EQ(fuzz::resultText(fast), fuzz::resultText(full));
    // The fast run must actually skip ticks, and the full run none.
    EXPECT_GT(fast.engineFastTicks, 0u);
    EXPECT_EQ(full.engineFastTicks, 0u);
    EXPECT_EQ(fast.engineTicks, full.engineTicks);
}

TEST(EventDrivenIdentity, AllConfigsAllWorkloads)
{
    for (auto ml : wl::allMlWorkloads()) {
        for (auto kind :
             {exp::ConfigKind::BL, exp::ConfigKind::CT,
              exp::ConfigKind::KPSD, exp::ConfigKind::KP}) {
            exp::RunConfig cfg = baseConfig();
            cfg.ml = ml;
            cfg.cpu = wl::CpuWorkload::Stream;
            cfg.cpuInstances = 2;
            cfg.config = kind;
            auto [fast, full] = runBoth(cfg);
            SCOPED_TRACE(std::string(wl::mlName(ml)) + " under " +
                         exp::configName(kind));
            EXPECT_EQ(fuzz::resultText(fast), fuzz::resultText(full));
        }
    }
}

TEST(EventDrivenIdentity, Churn)
{
    exp::RunConfig cfg = baseConfig();
    cfg.ml = wl::MlWorkload::Cnn2;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 2;
    cfg.config = exp::ConfigKind::KP;
    cfg.churn.enabled = true;
    cfg.churn.arrivalRate = 0.5;  // busy churn in a short run
    cfg.measure = 12.0;
    auto [fast, full] = runBoth(cfg);
    EXPECT_EQ(fuzz::resultText(fast), fuzz::resultText(full));
    EXPECT_GT(fast.churnArrivals, 0u);
}

TEST(EventDrivenIdentity, FaultsAndControllerKills)
{
    exp::RunConfig cfg = baseConfig();
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.cpu = wl::CpuWorkload::DramAggressor;
    cfg.cpuInstances = 2;
    cfg.config = exp::ConfigKind::KP;
    cfg.faults = hal::FaultPlan::parse("drop=0.1,knobfail=0.2");
    cfg.killAt = 6.0;
    cfg.kills = {9.0};
    cfg.measure = 12.0;
    auto [fast, full] = runBoth(cfg);
    EXPECT_EQ(fuzz::resultText(fast), fuzz::resultText(full));
    EXPECT_EQ(fast.restarts, 2u);
}

TEST(EventDrivenIdentity, SloLadder)
{
    exp::RunConfig cfg = baseConfig();
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.cpu = wl::CpuWorkload::DramAggressor;
    cfg.cpuInstances = 2;
    cfg.config = exp::ConfigKind::KP;
    cfg.slo.enabled = true;
    cfg.measure = 12.0;
    auto [fast, full] = runBoth(cfg);
    EXPECT_EQ(fuzz::resultText(fast), fuzz::resultText(full));
}

TEST(EventDrivenIdentity, OpenLoopTraffic)
{
    exp::RunConfig cfg = baseConfig();
    cfg.ml = wl::MlWorkload::Rnn1;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 2;
    cfg.config = exp::ConfigKind::KP;
    std::string err;
    auto traffic =
        serve::TrafficSpec::tryParse("shape=burst,qps=200,factor=4",
                                     &err);
    ASSERT_TRUE(traffic) << err;
    cfg.serving.enabled = true;
    cfg.serving.traffic = *traffic;
    auto [fast, full] = runBoth(cfg);
    EXPECT_EQ(fuzz::resultText(fast), fuzz::resultText(full));
    EXPECT_GT(fast.reqArrivals, 0u);
}

TEST(EventDrivenIdentity, SerialInferenceTrace)
{
    exp::RunConfig cfg = baseConfig();
    cfg.ml = wl::MlWorkload::Rnn1;
    cfg.cpu = wl::CpuWorkload::Stream;
    cfg.cpuInstances = 2;
    cfg.config = exp::ConfigKind::KPSD;
    cfg.serialInference = true;
    auto [fast, full] = runBoth(cfg);
    EXPECT_EQ(fuzz::resultText(fast), fuzz::resultText(full));
}

// ---------------------------------------------------------------------
// Fast-path floors. A skip ratio counts simulated ticks, so it is the
// same on every host and build; a floor on it catches a fast path
// that quietly engages less, which results identity cannot see.

struct FloorScenario
{
    const char *name;
    exp::RunConfig cfg;
    double minSkipRatio;
};

/**
 * One scenario per invalidation source: a lightly loaded open-loop
 * server idle between requests ("quiet"), controller sampling over a
 * training colocation, churn arrivals, a fault plan with a controller
 * kill, and the SLO ladder. Each floor is the ratio measured when the
 * floors were set (0.979, 0.510, 0.392, 0.507, 0.466), rounded down
 * to the percent.
 */
std::vector<FloorScenario>
floorScenarios()
{
    const sim::Time warmup = 5.0;
    const sim::Time measure = 10.0;
    std::vector<FloorScenario> out;

    exp::RunConfig quiet;
    quiet.ml = wl::MlWorkload::Rnn1;
    quiet.config = exp::ConfigKind::BL;
    quiet.openLoopQps = 5.0;
    out.push_back({"quiet", quiet, 0.97});

    exp::RunConfig train;
    train.ml = wl::MlWorkload::Cnn3;
    train.cpu = wl::CpuWorkload::Stitch;
    train.cpuInstances = 3;
    train.config = exp::ConfigKind::KP;
    out.push_back({"train", train, 0.50});

    exp::RunConfig churn;
    churn.ml = wl::MlWorkload::Cnn1;
    churn.cpu = wl::CpuWorkload::Stitch;
    churn.cpuInstances = 3;
    churn.config = exp::ConfigKind::KP;
    churn.churn.enabled = true;
    out.push_back({"churn", churn, 0.39});

    exp::RunConfig faults;
    faults.ml = wl::MlWorkload::Cnn2;
    faults.cpu = wl::CpuWorkload::Stream;
    faults.cpuInstances = 2;
    faults.config = exp::ConfigKind::KP;
    faults.faults = hal::FaultPlan::parse("drop=0.05,knobfail=0.1");
    faults.killAt = warmup + 0.25 * measure;
    out.push_back({"faults", faults, 0.50});

    exp::RunConfig slo;
    slo.ml = wl::MlWorkload::Cnn1;
    slo.cpu = wl::CpuWorkload::DramAggressor;
    slo.cpuInstances = 2;
    slo.config = exp::ConfigKind::KP;
    slo.slo.enabled = true;
    out.push_back({"slo", slo, 0.46});

    for (FloorScenario &s : out) {
        s.cfg.warmup = warmup;
        s.cfg.measure = measure;
    }
    return out;
}

TEST(EventDrivenIdentity, FastPathFloors)
{
    for (const FloorScenario &s : floorScenarios()) {
        SCOPED_TRACE(s.name);
        auto [fast, full] = runBoth(s.cfg);
        EXPECT_EQ(fuzz::resultText(fast), fuzz::resultText(full));
        EXPECT_EQ(full.skipRatio(), 0.0);
        EXPECT_EQ(fast.engineTicks, full.engineTicks);
        EXPECT_GE(fast.skipRatio(), s.minSkipRatio);
    }
}

// ---------------------------------------------------------------------
// Node-level machinery.

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

TEST(NodeFastForward, DirtyMarkingBlocksAndRecovers)
{
    // A node of pure batch tasks quiesces; a knob write mid-run must
    // break the streak and the streak must rebuild afterwards.
    node::Node n(node::platformFor(accel::Kind::TpuV1));
    auto g = n.groups().create("batch", hal::Priority::Low).id();
    n.add(std::make_unique<wl::BatchTask>("b", g, 4, streamish()));

    // Settling takes ~55 ticks: the demand-basis relaxation halves
    // its error per tick and quiescence requires the *bitwise*
    // fixpoint, not an approximate one.
    const sim::Time dt = 100 * sim::usec;
    const int settle = 80;
    for (int i = 0; i < settle; ++i)
        n.tick(i * dt, dt);
    EXPECT_GT(n.fastForward(settle * dt, dt, 4), 0u);

    // A knob mutation through the registry marks the node dirty.
    n.knobs().setCores(g, 0, 0, 2);
    EXPECT_EQ(n.fastForward(settle * dt, dt, 4), 0u);

    // Quiescence rebuilds after full ticks re-settle the pipeline.
    for (int i = 0; i < settle; ++i)
        n.tick((settle + i) * dt, dt);
    EXPECT_GT(n.fastForward(2 * settle * dt, dt, 4), 0u);
}

TEST(NodeFastForward, DisabledSwitchRefuses)
{
    node::Node n(node::platformFor(accel::Kind::TpuV1));
    auto g = n.groups().create("batch", hal::Priority::Low).id();
    n.add(std::make_unique<wl::BatchTask>("b", g, 4, streamish()));
    n.setEventDrivenEnabled(false);

    const sim::Time dt = 100 * sim::usec;
    for (int i = 0; i < 80; ++i)
        n.tick(i * dt, dt);
    EXPECT_EQ(n.fastForward(80 * dt, dt, 4), 0u);
}

} // namespace
