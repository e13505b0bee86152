/**
 * @file
 * Robustness and property tests: conservation invariants under
 * randomized load, and failure/perturbation injection (aggressors
 * arriving, leaving, and ramping mid-run; controllers facing empty
 * or extreme configurations).
 */

#include <gtest/gtest.h>

#include <utility>

#include "exp/scenario.hh"
#include "fuzz/oracle.hh"
#include "hal/fault_injector.hh"
#include "kelp/kelp_controller.hh"
#include "kelp/manager.hh"
#include "mem/mem_system.hh"
#include "node/platform.hh"
#include "sim/rng.hh"
#include "workload/batch_task.hh"

using namespace kelp;

namespace {

constexpr sim::Time dt = 100 * sim::usec;

} // namespace

/** Randomized flow sets must never violate conservation laws. */
class MemConservation : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MemConservation, DeliveredNeverExceedsCapacity)
{
    sim::Rng rng(GetParam());
    mem::MemSystemConfig cfg;
    cfg.socket.peakBw = 100.0;
    mem::MemSystem mem(cfg);
    mem.setSncEnabled(rng.chance(0.5));

    for (int tick = 0; tick < 50; ++tick) {
        mem.beginTick();
        int flows = 1 + static_cast<int>(rng.below(12));
        double total_demand = 0.0;
        for (int f = 0; f < flows; ++f) {
            mem::Route route;
            route.reqSocket = static_cast<int>(rng.below(2));
            route.reqSub = static_cast<int>(rng.below(2));
            route.homeSocket = static_cast<int>(rng.below(2));
            route.homeSub = static_cast<int>(rng.below(2));
            double demand = rng.uniform(0.0, 40.0);
            total_demand += demand;
            mem.addFlow(f, route, demand, rng.chance(0.3));
        }
        mem.resolve(dt);

        for (int s = 0; s < 2; ++s) {
            for (int d = 0; d < 2; ++d) {
                const auto &mc = mem.controller(s, d);
                // Delivery is capped by capacity (plus fp slack).
                EXPECT_LE(mc.totalDelivered(), 50.0 + 1e-6);
                EXPECT_GE(mc.utilization(), 0.0);
                EXPECT_LE(mc.utilization(), 1.0);
            }
            EXPECT_GE(mem.saturation(s), 0.0);
            EXPECT_LE(mem.saturation(s), 1.0);
            EXPECT_GT(mem.coreThrottle(s), 0.0);
            EXPECT_LE(mem.coreThrottle(s), 1.0);
        }
        // Per-requestor grants never exceed their demands.
        for (int f = 0; f < flows; ++f) {
            mem::Grant g = mem.grant(f);
            EXPECT_GE(g.fraction, 0.0);
            EXPECT_LE(g.fraction, 1.0 + 1e-9);
            EXPECT_GE(g.latency, 0.0);
        }
        (void)total_demand;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemConservation,
                         ::testing::Values(1, 7, 42, 1337, 99991));

TEST(Robustness, AggressorArrivalAndDeparture)
{
    // The controller must re-open the taps after an aggressor leaves.
    node::Node node(node::platformFor(accel::Kind::CloudTpu));
    node.setSncEnabled(true);
    auto ml = node.groups().create("ml", hal::Priority::High).id();
    auto cpu = node.groups().create("batch", hal::Priority::Low).id();
    node.knobs().setCores(ml, 0, 0, 4);
    node.knobs().setPrefetchersEnabled(ml, 4);

    wl::HostPhaseParams agg =
        wl::cpuParams(wl::CpuWorkload::DramAggressor);
    auto &task = node.add(std::make_unique<wl::BatchTask>(
        "agg", cpu, 10, agg));
    task.setHomeSocket(0);

    runtime::Bindings bind{&node, ml, cpu, 0};
    auto spec = node::platformFor(accel::Kind::CloudTpu);
    runtime::ConfigLimits limits{0, 8, 1, 12};
    runtime::ResourceState init{0, 10, 10};
    runtime::KelpController ctl(
        bind, runtime::defaultProfile(wl::MlWorkload::Cnn1, spec),
        limits, init);

    auto run_rounds = [&](int rounds) {
        for (int r = 0; r < rounds; ++r) {
            for (int t = 0; t < 100; ++t)
                node.tick(t * dt, dt);
            ctl.sample(r);
        }
    };

    run_rounds(10);  // heavy phase: prefetchers get cut
    int throttled_pf = ctl.state().prefetcherNumL;
    EXPECT_LT(throttled_pf, 10);

    task.setThreads(1);  // the aggressor all but leaves
    run_rounds(20);
    EXPECT_GT(ctl.state().prefetcherNumL, throttled_pf);
    EXPECT_GT(ctl.state().coreNumH, 0);  // backfill resumed
}

TEST(Robustness, AggressorRampIsTracked)
{
    // Ramping load must monotonically tighten the knobs.
    node::Node node(node::platformFor(accel::Kind::CloudTpu));
    node.setSncEnabled(true);
    auto ml = node.groups().create("ml", hal::Priority::High).id();
    auto cpu = node.groups().create("batch", hal::Priority::Low).id();
    node.knobs().setCores(ml, 0, 0, 4);
    node.knobs().setPrefetchersEnabled(ml, 4);
    auto &task = node.add(std::make_unique<wl::BatchTask>(
        "agg", cpu, 2, wl::cpuParams(wl::CpuWorkload::DramAggressor)));
    task.setHomeSocket(0);

    runtime::Bindings bind{&node, ml, cpu, 0};
    auto spec = node::platformFor(accel::Kind::CloudTpu);
    runtime::KelpController ctl(
        bind, runtime::defaultProfile(wl::MlWorkload::Cnn1, spec),
        {0, 8, 1, 12}, {0, 12, 12});

    std::vector<int> pf_at_load;
    for (int threads : {2, 6, 12}) {
        task.setThreads(threads);
        for (int r = 0; r < 8; ++r) {
            for (int t = 0; t < 100; ++t)
                node.tick(t * dt, dt);
            ctl.sample(r);
        }
        pf_at_load.push_back(ctl.state().prefetcherNumL);
    }
    EXPECT_GE(pf_at_load[0], pf_at_load[1]);
    EXPECT_GE(pf_at_load[1], pf_at_load[2]);
    EXPECT_LT(pf_at_load[2], 12);
}

TEST(Robustness, ControllerSurvivesIdleSystem)
{
    // No CPU tasks at all: sampling must be a stable no-op that
    // simply boosts to the limits and stays there.
    node::Node node(node::platformFor(accel::Kind::TpuV1));
    node.setSncEnabled(true);
    auto ml = node.groups().create("ml", hal::Priority::High).id();
    auto cpu = node.groups().create("batch", hal::Priority::Low).id();
    node.knobs().setCores(ml, 0, 0, 4);

    runtime::Bindings bind{&node, ml, cpu, 0};
    auto spec = node::platformFor(accel::Kind::TpuV1);
    runtime::KelpController ctl(
        bind, runtime::defaultProfile(wl::MlWorkload::Rnn1, spec),
        {0, 4, 1, 8}, {0, 4, 4});
    for (int r = 0; r < 20; ++r) {
        for (int t = 0; t < 50; ++t)
            node.tick(t * dt, dt);
        ctl.sample(r);
    }
    EXPECT_EQ(ctl.state().coreNumL, 8);
    EXPECT_EQ(ctl.state().prefetcherNumL, 8);
    EXPECT_EQ(ctl.state().coreNumH, 4);
}

TEST(Robustness, MinimumCoreFloorRespected)
{
    // Even an absurdly heavy aggressor cannot push the low-priority
    // allocation below one core (Algorithm 2's floor).
    node::Node node(node::platformFor(accel::Kind::TpuV1));
    node.setSncEnabled(true);
    auto ml = node.groups().create("ml", hal::Priority::High).id();
    auto cpu = node.groups().create("batch", hal::Priority::Low).id();
    node.knobs().setCores(ml, 0, 0, 4);
    wl::HostPhaseParams agg =
        wl::cpuParams(wl::CpuWorkload::DramAggressor);
    agg.bwPerCore = 40.0;  // pathological
    auto &task = node.add(std::make_unique<wl::BatchTask>(
        "agg", cpu, 16, agg));
    task.setHomeSocket(0);

    runtime::Bindings bind{&node, ml, cpu, 0};
    auto spec = node::platformFor(accel::Kind::TpuV1);
    runtime::KelpController ctl(
        bind, runtime::defaultProfile(wl::MlWorkload::Rnn1, spec),
        {0, 4, 1, 8}, {0, 8, 8});
    for (int r = 0; r < 30; ++r) {
        for (int t = 0; t < 50; ++t)
            node.tick(t * dt, dt);
        ctl.sample(r);
    }
    EXPECT_GE(ctl.state().coreNumL, 1);
    EXPECT_EQ(ctl.state().prefetcherNumL, 0);
}

TEST(Robustness, DeterministicAcrossRuns)
{
    // Identical configurations must reproduce bit-identical results.
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 3;
    cfg.config = exp::ConfigKind::KP;
    cfg.warmup = 10.0;
    cfg.measure = 10.0;
    cfg.samplePeriod = 2.0;
    exp::RunResult a = exp::runScenario(cfg);
    exp::RunResult b = exp::runScenario(cfg);
    EXPECT_EQ(fuzz::resultTextWithCounters(a),
              fuzz::resultTextWithCounters(b));
}

TEST(Robustness, SeedChangesInferenceArrivals)
{
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Rnn1;
    cfg.openLoopQps = 500.0;
    cfg.config = exp::ConfigKind::BL;
    cfg.warmup = 5.0;
    cfg.measure = 10.0;
    exp::RunResult a = exp::runScenario(cfg);
    cfg.seed = 999;
    exp::RunResult b = exp::runScenario(cfg);
    // Same distribution, different sample path.
    EXPECT_NE(a.mlTailP95, b.mlTailP95);
    EXPECT_NEAR(a.mlPerf, b.mlPerf, a.mlPerf * 0.05);
}

// ---------------------------------------------------------------------
// Controller-under-fault coverage: a hardened KP controller behind
// HAL fault injectors, supervised by the manager's watchdog.
// ---------------------------------------------------------------------

namespace {

/**
 * A TpuV1 node with one DRAM aggressor, a hardened KP controller
 * reading through a FaultyCounterSource and actuating through a
 * FaultyKnobSink (both initially fault-free), and a watchdog-armed
 * manager sampling every 10 ms. Tests script fault phases by swapping
 * the injector plans mid-run.
 */
struct FaultHarness
{
    node::Node node{node::platformFor(accel::Kind::TpuV1)};
    sim::GroupId ml, cpu;
    runtime::ConfigLimits limits{0, 4, 1, 8};
    std::unique_ptr<hal::FaultyCounterSource> counters;
    std::unique_ptr<hal::FaultyKnobSink> knobs;
    std::unique_ptr<runtime::RuntimeManager> mgr;
    runtime::KelpController *ctl = nullptr;
    sim::Engine engine{1e-4};

    explicit FaultHarness(int aggressor_threads = 8)
    {
        node.setSncEnabled(true);
        ml = node.groups().create("ml", hal::Priority::High).id();
        cpu = node.groups().create("batch", hal::Priority::Low).id();
        node.knobs().setCores(ml, 0, 0, 4);
        node.knobs().setPrefetchersEnabled(ml, 4);
        auto &task = node.add(std::make_unique<wl::BatchTask>(
            "agg", cpu, aggressor_threads,
            wl::cpuParams(wl::CpuWorkload::DramAggressor)));
        task.setHomeSocket(0);

        sim::Rng rng(7);
        counters = std::make_unique<hal::FaultyCounterSource>(
            std::make_unique<hal::PerfCounters>(node.memSystem()),
            hal::FaultPlan{}, rng.split(1));
        knobs = std::make_unique<hal::FaultyKnobSink>(
            node.knobs(), hal::FaultPlan{}, rng.split(2));

        runtime::Bindings bind{&node, ml, cpu, 0, counters.get(),
                               knobs.get()};
        runtime::Hardening hard;
        hard.enabled = true;
        auto spec = node::platformFor(accel::Kind::TpuV1);
        auto owned = std::make_unique<runtime::KelpController>(
            bind, runtime::defaultProfile(wl::MlWorkload::Rnn1, spec),
            limits, runtime::ResourceState{0, 8, 8}, hard);
        ctl = owned.get();
        mgr = std::make_unique<runtime::RuntimeManager>(
            std::move(owned), 0.01);
        runtime::WatchdogConfig wd;
        wd.enabled = true;  // thresholds 3 / 3
        mgr->setWatchdog(wd);
        node.attach(engine);
        mgr->attach(engine);
    }

    /** Applied (not just targeted) knob state never escapes the
     * configured ML-protection limits. */
    void
    checkAppliedWithinLimits()
    {
        const auto &group = node.groups().get(cpu);
        EXPECT_LE(group.cores().inSubdomain(0, 0), limits.maxCoreH);
        EXPECT_LE(group.cores().inSubdomain(0, 1), limits.maxCoreL);
        EXPECT_GE(group.cores().inSubdomain(0, 1), limits.minCoreL);
        EXPECT_LE(group.prefetchersEnabled(),
                  limits.maxCoreL + limits.maxCoreH);
        // The ML task's own placement is never touched.
        EXPECT_EQ(node.groups().get(ml).cores().inSubdomain(0, 0), 4);
    }
};

} // namespace

TEST(ControllerUnderFault, CounterDropoutTripsFailSafeAndRecovers)
{
    FaultHarness h;
    h.engine.run(0.055);  // clean: primes the guard
    EXPECT_FALSE(h.mgr->inFailSafe());

    // Telemetry goes completely dark mid-run.
    hal::FaultPlan dark;
    dark.dropProb = 1.0;
    h.counters->setPlan(dark);
    h.engine.run(0.03);  // 3 consecutive invalid samples
    EXPECT_TRUE(h.mgr->inFailSafe());
    EXPECT_TRUE(h.ctl->failSafe());
    EXPECT_EQ(h.mgr->failSafeEntries(), 1u);
    // Pinned to the static KP-SD floor: backfill withdrawn, the
    // low-priority subdomain fully populated, prefetchers on.
    EXPECT_EQ(h.ctl->state().coreNumH, h.limits.minCoreH);
    EXPECT_EQ(h.ctl->state().coreNumL, h.limits.maxCoreL);
    EXPECT_EQ(h.ctl->state().prefetcherNumL, h.limits.maxCoreL);
    h.checkAppliedWithinLimits();

    // Held down while telemetry stays dark.
    h.engine.run(0.05);
    EXPECT_TRUE(h.mgr->inFailSafe());
    EXPECT_EQ(h.mgr->failSafeExits(), 0u);

    // Telemetry returns: re-armed after the recovery streak.
    h.counters->setPlan(hal::FaultPlan{});
    h.engine.run(0.035);
    EXPECT_FALSE(h.mgr->inFailSafe());
    EXPECT_FALSE(h.ctl->failSafe());
    EXPECT_EQ(h.mgr->failSafeExits(), 1u);
    EXPECT_GT(h.mgr->timeInFailSafe(), 0.0);

    // Closed-loop control resumed: the controller moves off the
    // fail-safe config under a saturating aggressor.
    h.engine.run(0.1);
    EXPECT_LT(h.ctl->state().prefetcherNumL, h.limits.maxCoreL);
}

TEST(ControllerUnderFault, StuckSaturationSignalTripsFailSafe)
{
    FaultHarness h;
    h.engine.run(0.055);
    EXPECT_FALSE(h.mgr->inFailSafe());

    // The counter wedges: every read repeats the last good sample
    // bit-for-bit (saturation included), which real windowed
    // hardware averages never do.
    hal::FaultPlan wedge;
    wedge.stuckProb = 1.0;
    h.counters->setPlan(wedge);
    h.engine.run(0.07);
    EXPECT_TRUE(h.mgr->inFailSafe());
    EXPECT_GE(h.ctl->rejectedSamples(), 3u);
    h.checkAppliedWithinLimits();

    h.counters->setPlan(hal::FaultPlan{});
    h.engine.run(0.05);
    EXPECT_FALSE(h.mgr->inFailSafe());
    EXPECT_EQ(h.mgr->failSafeExits(), 1u);
}

TEST(ControllerUnderFault, ActuationStormTripsFailSafeAndRecovers)
{
    FaultHarness h;
    h.engine.run(0.055);
    EXPECT_FALSE(h.mgr->inFailSafe());

    // Every knob write is lost: retry backoff escalates, the failed-
    // attempt streak crosses the threshold, the watchdog trips.
    hal::FaultPlan storm;
    storm.knobFailProb = 1.0;
    h.knobs->setPlan(storm);
    h.engine.run(0.1);
    EXPECT_TRUE(h.mgr->inFailSafe());
    EXPECT_GE(h.mgr->failSafeEntries(), 1u);
    // Nothing lands while the storm persists, so the applied state
    // is the last successfully-enforced one: still within limits.
    h.checkAppliedWithinLimits();

    // Writes work again: the pinned fail-safe config lands, health
    // recovers, and the loop re-arms.
    h.knobs->setPlan(hal::FaultPlan{});
    h.engine.run(0.15);
    EXPECT_FALSE(h.mgr->inFailSafe());
    EXPECT_GE(h.mgr->failSafeExits(), 1u);
    // Once re-armed and enforcing cleanly, the applied state tracks
    // the controller's target exactly.
    const auto &group = h.node.groups().get(h.cpu);
    EXPECT_EQ(group.cores().inSubdomain(0, 1),
              h.ctl->state().coreNumL);
    EXPECT_EQ(group.cores().inSubdomain(0, 0),
              h.ctl->state().coreNumH);
    EXPECT_EQ(group.prefetchersEnabled(),
              h.ctl->state().prefetcherNumL + h.ctl->state().coreNumH);
}

TEST(ControllerUnderFault, NoViolatingConfigEverApplied)
{
    FaultHarness h;
    // A sustained mixed fault storm: telemetry corruption plus torn
    // and delayed actuation, heavy enough to trip the watchdog
    // repeatedly.
    hal::FaultPlan mixed;
    mixed.dropProb = 0.3;
    mixed.stuckProb = 0.1;
    mixed.noiseProb = 0.3;
    mixed.spikeProb = 0.1;
    mixed.knobFailProb = 0.3;
    mixed.knobDelayProb = 0.2;
    h.counters->setPlan(mixed);
    h.knobs->setPlan(mixed);

    h.engine.run(0.005);  // keep run boundaries mid-period
    for (int period = 0; period < 80; ++period) {
        h.engine.run(0.01);
        h.checkAppliedWithinLimits();
    }
    EXPECT_EQ(h.mgr->samples(), 80u);
}

TEST(ControllerUnderFault, ModeTraceDeterministicAcrossRuns)
{
    // Same workload seed + same fault seed => identical fail-safe
    // transition trace and bit-identical results, end to end through
    // the scenario layer.
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Cnn1;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 3;
    cfg.config = exp::ConfigKind::KP;
    cfg.warmup = 5.0;
    cfg.measure = 10.0;
    cfg.samplePeriod = 0.5;
    cfg.faults.dropProb = 0.6;
    cfg.faults.knobFailProb = 0.3;
    cfg.faultSeed = 11;

    auto run = [&cfg]() {
        exp::Scenario s = exp::buildScenario(cfg);
        s.engine->run(cfg.warmup + cfg.measure);
        return std::make_pair(s.manager->modeTrace(),
                              s.mlTask->completedWork());
    };
    auto a = run();
    auto b = run();
    EXPECT_GE(a.first.size(), 1u);  // the storm actually tripped it
    ASSERT_EQ(a.first.size(), b.first.size());
    for (size_t i = 0; i < a.first.size(); ++i) {
        EXPECT_EQ(a.first[i].time, b.first[i].time);
        EXPECT_EQ(a.first[i].failSafe, b.first[i].failSafe);
    }
    EXPECT_DOUBLE_EQ(a.second, b.second);
}
