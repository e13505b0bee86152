/**
 * @file
 * Tests for dynamic colocation churn: the task lifecycle engine, the
 * SLO degradation ladder, controller snapshot/restore, restart-time
 * knob reconciliation, and the determinism guarantees of all of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "exp/lifecycle.hh"
#include "exp/scenario.hh"
#include "fuzz/oracle.hh"
#include "kelp/kelp_controller.hh"
#include "kelp/manager.hh"
#include "kelp/slo_guard.hh"
#include "node/node.hh"
#include "node/platform.hh"
#include "workload/batch_task.hh"

using namespace kelp;
using namespace kelp::runtime;

namespace {

AppProfile
testProfile()
{
    AppProfile p;
    p.workload = "test";
    p.socketBw = {70.0, 45.0};
    p.latency = {150.0, 110.0};
    p.saturation = {0.10, 0.02};
    p.hiSubBw = {25.0, 12.0};
    return p;
}

wl::HostPhaseParams
aggressorParams()
{
    wl::HostPhaseParams p;
    p.cpuFrac = 0.05;
    p.bwPerCore = 9.0;
    p.latencySensitivity = 0.15;
    p.prefetch = {0.5, 0.75};
    p.llcFootprintMb = 512.0;
    p.llcHitMax = 0.02;
    return p;
}

/** Node with an ML group (subdomain 0) and a CPU group (sub 1). */
struct ChurnFixture
{
    node::Node node{node::platformFor(accel::Kind::TpuV1)};
    sim::GroupId ml, cpu;
    wl::BatchTask *mlTask = nullptr;
    wl::BatchTask *aggressor = nullptr;

    explicit ChurnFixture(int aggressor_threads = 8,
                          bool with_ml_task = false)
    {
        node.setSncEnabled(true);
        ml = node.groups().create("ml", hal::Priority::High).id();
        cpu = node.groups().create("batch", hal::Priority::Low).id();
        node.knobs().setCores(ml, 0, 0, 4);
        node.knobs().setPrefetchersEnabled(ml, 4);
        if (with_ml_task) {
            wl::HostPhaseParams p;
            p.cpuFrac = 0.8;
            p.bwPerCore = 2.0;
            mlTask = &node.add(std::make_unique<wl::BatchTask>(
                "ml-proxy", ml, 4, p));
        }
        if (aggressor_threads > 0) {
            aggressor = &node.add(std::make_unique<wl::BatchTask>(
                "agg", cpu, aggressor_threads, aggressorParams()));
        }
    }

    void
    runTicks(int ticks, double t0 = 0.0)
    {
        for (int i = 0; i < ticks; ++i)
            node.tick(t0 + i * 1e-4, 1e-4);
    }
};

/** Shortened timing for scenario-level runs. */
exp::RunConfig
quick(wl::MlWorkload ml, exp::ConfigKind kind)
{
    exp::RunConfig cfg;
    cfg.ml = ml;
    cfg.config = kind;
    cfg.warmup = 10.0;
    cfg.measure = 10.0;
    cfg.samplePeriod = 1.0;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------
// Lifecycle engine.

TEST(Lifecycle, SameSeedSameEventLog)
{
    exp::ChurnConfig cfg;
    cfg.enabled = true;
    cfg.arrivalRate = 0.2;
    cfg.crashProb = 0.3;
    cfg.maxLive = 3;
    cfg.seed = 42;

    ChurnFixture a(0), b(0);
    exp::LifecycleEngine ea(a.node, a.cpu, cfg);
    exp::LifecycleEngine eb(b.node, b.cpu, cfg);
    for (double t = 0.5; t <= 200.0; t += 0.5) {
        ea.poll(t);
        eb.poll(t);
    }

    ASSERT_GT(ea.eventLog().size(), 4u);
    ASSERT_EQ(ea.eventLog().size(), eb.eventLog().size());
    for (size_t i = 0; i < ea.eventLog().size(); ++i) {
        const exp::ChurnEvent &x = ea.eventLog()[i];
        const exp::ChurnEvent &y = eb.eventLog()[i];
        EXPECT_DOUBLE_EQ(x.time, y.time);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.task, y.task);
        EXPECT_EQ(x.threads, y.threads);
    }
    EXPECT_EQ(ea.arrivals(), eb.arrivals());
    EXPECT_EQ(ea.crashes(), eb.crashes());
}

TEST(Lifecycle, SeedChangesTheLog)
{
    exp::ChurnConfig cfg;
    cfg.enabled = true;
    cfg.arrivalRate = 0.2;
    cfg.seed = 42;

    ChurnFixture a(0), b(0);
    exp::LifecycleEngine ea(a.node, a.cpu, cfg);
    cfg.seed = 43;
    exp::LifecycleEngine eb(b.node, b.cpu, cfg);
    for (double t = 0.5; t <= 200.0; t += 0.5) {
        ea.poll(t);
        eb.poll(t);
    }
    bool differs = ea.eventLog().size() != eb.eventLog().size();
    for (size_t i = 0;
         !differs && i < ea.eventLog().size(); ++i) {
        differs = ea.eventLog()[i].time != eb.eventLog()[i].time ||
                  ea.eventLog()[i].threads != eb.eventLog()[i].threads;
    }
    EXPECT_TRUE(differs);
}

TEST(Lifecycle, MembershipTracksArrivalsAndDepartures)
{
    exp::ChurnConfig cfg;
    cfg.enabled = true;
    cfg.arrivalRate = 1.0;  // fast arrivals
    cfg.maxLive = 2;
    cfg.seed = 7;

    ChurnFixture f(0);
    exp::LifecycleEngine eng(f.node, f.cpu, cfg);
    eng.poll(30.0);
    ASSERT_GT(eng.arrivals(), 0u);
    ASSERT_EQ(eng.liveTasks().size(), 2u);
    EXPECT_GT(eng.rejected(), 0u);

    // Live threads are exactly what the group reports runnable.
    int live_threads = 0;
    for (int id : eng.liveTasks())
        live_threads += f.node.taskById(id)->threadsWanted();
    EXPECT_EQ(f.node.runnableThreadsInGroup(f.cpu, 0), live_threads);

    // Far future: the first epoch's tasks have all retired, arrivals
    // kept coming, and the membership count tracks whatever is live
    // now -- retirees hold no runnable threads.
    eng.poll(1e6);
    EXPECT_GT(eng.finishes() + eng.crashes(), 0u);
    int live_now = 0;
    for (int id : eng.liveTasks())
        live_now += f.node.taskById(id)->threadsWanted();
    EXPECT_EQ(f.node.runnableThreadsInGroup(f.cpu, 0), live_now);
    EXPECT_EQ(eng.arrivals(), eng.finishes() + eng.crashes() +
                                  eng.liveTasks().size());
}

TEST(Lifecycle, RetiredTasksStopProgressingAndFreeCores)
{
    ChurnFixture f(4);
    f.runTicks(50);
    double work = f.aggressor->completedWork();
    EXPECT_GT(work, 0.0);

    f.aggressor->setLifeState(wl::LifeState::Finished);
    f.runTicks(50, 0.005);
    EXPECT_DOUBLE_EQ(f.aggressor->completedWork(), work);
    EXPECT_DOUBLE_EQ(f.node.lastEnv(*f.aggressor).effCores, 0.0);
    EXPECT_EQ(f.node.runnableThreadsInGroup(f.cpu, 0), 0);
    EXPECT_EQ(f.node.hungriestRunnable(f.cpu), nullptr);
}

TEST(Node, SuspendedTaskFreezesAndResumes)
{
    ChurnFixture f(4);
    f.runTicks(50);
    double work = f.aggressor->completedWork();

    f.aggressor->setLifeState(wl::LifeState::Suspended);
    EXPECT_FALSE(f.aggressor->runnable());
    f.runTicks(50, 0.005);
    EXPECT_DOUBLE_EQ(f.aggressor->completedWork(), work);

    f.aggressor->setLifeState(wl::LifeState::Running);
    f.runTicks(50, 0.010);
    EXPECT_GT(f.aggressor->completedWork(), work);
}

// ---------------------------------------------------------------
// SLO guard ladder.

TEST(SloGuard, EscalatesRungByRungWithFullTrace)
{
    SloConfig cfg;
    cfg.enabled = true;
    cfg.minPerfRatio = 0.85;
    cfg.escalateAfter = 2;
    cfg.deescalateAfter = 3;
    SloGuard g(cfg);

    // Sustained overload: one rung per K violating samples, in
    // strict order, saturating at the top.
    for (int i = 1; i <= 12; ++i)
        g.observe(i, 0.5);
    EXPECT_EQ(g.rung(), kRungEvictAntagonist);
    EXPECT_EQ(g.violations(), 12u);
    ASSERT_EQ(g.trace().size(), 4u);
    for (size_t i = 0; i < g.trace().size(); ++i) {
        EXPECT_EQ(g.trace()[i].from, static_cast<int>(i));
        EXPECT_EQ(g.trace()[i].to, static_cast<int>(i) + 1);
        EXPECT_DOUBLE_EQ(g.trace()[i].time, 2.0 * (i + 1));
    }
}

TEST(SloGuard, DeescalationIsHysteretic)
{
    SloConfig cfg;
    cfg.enabled = true;
    cfg.escalateAfter = 1;
    cfg.deescalateAfter = 3;
    SloGuard g(cfg);

    g.observe(1, 0.1);
    g.observe(2, 0.1);
    ASSERT_EQ(g.rung(), 2);

    // Two healthy samples are not enough...
    g.observe(3, 1.0);
    g.observe(4, 1.0);
    EXPECT_EQ(g.rung(), 2);
    // ...and a violation resets the healthy streak (but a single
    // violation cannot escalate past the streak threshold of the
    // *reset* bad counter either: one bad sample with K=1 does).
    g.observe(5, 0.1);
    EXPECT_EQ(g.rung(), 3);

    // Three consecutive healthy samples step down exactly one rung.
    g.observe(6, 1.0);
    g.observe(7, 1.0);
    g.observe(8, 1.0);
    EXPECT_EQ(g.rung(), 2);
    g.observe(9, 1.0);
    g.observe(10, 1.0);
    g.observe(11, 1.0);
    EXPECT_EQ(g.rung(), 1);

    // Every transition is in the audit trace, in order.
    ASSERT_EQ(g.trace().size(), 5u);
    EXPECT_EQ(g.trace()[3].from, 3);
    EXPECT_EQ(g.trace()[3].to, 2);
}

TEST(SloGuard, RestoreClampsAndRestartsStreaks)
{
    SloConfig cfg;
    cfg.enabled = true;
    cfg.escalateAfter = 2;
    SloGuard g(cfg);
    g.observe(1, 0.1);  // one violation into the streak
    g.restore(99);      // out-of-range checkpoint clamps...
    EXPECT_EQ(g.rung(), kSloRungMax);
    g.restore(2);
    EXPECT_EQ(g.rung(), 2);
    // ...and the pre-restore half-streak is forgotten.
    g.observe(2, 0.1);
    EXPECT_EQ(g.rung(), 2);
    g.observe(3, 0.1);
    EXPECT_EQ(g.rung(), 3);
}

TEST(SloGuard, RapidBoundaryOscillationIsHysteresisBounded)
{
    // Reference fixture for the fuzzer's ladder-thrash oracle: under
    // rapid oscillation around the SLO floor, the streak counters
    // must keep the rung-transition rate bounded -- at most one
    // transition per min(escalateAfter, deescalateAfter) samples --
    // and strict alternation must produce no transitions at all.

    // Strict good/bad alternation: neither streak ever completes.
    {
        SloConfig cfg;
        cfg.enabled = true;
        cfg.minPerfRatio = 0.85;
        cfg.escalateAfter = 2;
        cfg.deescalateAfter = 2;
        SloGuard g(cfg);
        for (int i = 1; i <= 40; ++i)
            g.observe(i, (i % 2) ? 0.5 : 1.0);
        EXPECT_EQ(g.rung(), kRungNormal);
        EXPECT_TRUE(g.trace().empty());
        EXPECT_DOUBLE_EQ(
            fuzz::ladderThrashRate(g.trace().size(), 40.0, 1.0), 0.0);
    }

    // Worst-case square wave tuned to the streak lengths: every
    // completed streak flips the rung, but never faster than the
    // hysteresis allows.
    {
        SloConfig cfg;
        cfg.enabled = true;
        cfg.minPerfRatio = 0.85;
        cfg.escalateAfter = 3;
        cfg.deescalateAfter = 5;
        SloGuard g(cfg);
        const int samples = 160;
        for (int i = 1; i <= samples; ++i) {
            const bool bad = (i - 1) % 8 < 3; // 3 bad, 5 good, repeat
            g.observe(i, bad ? 0.5 : 1.0);
        }
        const double rate = fuzz::ladderThrashRate(
            g.trace().size(), static_cast<double>(samples), 1.0);
        const double bound =
            1.0 / std::min(cfg.escalateAfter, cfg.deescalateAfter);
        EXPECT_LE(rate, bound);
        EXPECT_GT(g.trace().size(), 0u); // the wave does move rungs
        // Adjacent transitions are at least min-streak samples apart.
        for (size_t i = 1; i < g.trace().size(); ++i) {
            EXPECT_GE(g.trace()[i].time - g.trace()[i - 1].time,
                      std::min(cfg.escalateAfter,
                               cfg.deescalateAfter) -
                          1e-9);
        }
    }
}

TEST(KelpController, LadderDrainsThrottlesAndEvicts)
{
    ChurnFixture f(8, true);
    Bindings bind{&f.node, f.ml, f.cpu, 0};
    ConfigLimits limits{0, 4, 1, 8};
    ResourceState init{2, 8, 8};
    KelpController ctl(bind, testProfile(), limits, init);

    SloConfig slo;
    slo.enabled = true;
    slo.minPerfRatio = 0.85;
    slo.escalateAfter = 1;
    // An unreachable reference makes every sample a violation.
    ctl.enableSloGuard(slo, 1e9);

    // Sample 1 only primes the perf baseline.
    f.runTicks(50);
    ctl.sample(1.0);
    ASSERT_NE(ctl.sloGuard(), nullptr);
    EXPECT_EQ(ctl.sloGuard()->rung(), kRungNormal);

    f.runTicks(50, 0.005);
    ctl.sample(2.0);
    EXPECT_EQ(ctl.sloGuard()->rung(), kRungDrainBackfill);
    EXPECT_EQ(ctl.state().coreNumH, 0);

    f.runTicks(50, 0.010);
    ctl.sample(3.0);
    EXPECT_EQ(ctl.sloGuard()->rung(), kRungThrottleCores);
    EXPECT_EQ(ctl.state().coreNumL, 1);

    f.runTicks(50, 0.015);
    ctl.sample(4.0);
    EXPECT_EQ(ctl.sloGuard()->rung(), kRungDisablePrefetch);
    EXPECT_EQ(ctl.state().prefetcherNumL, 0);

    f.runTicks(50, 0.020);
    ctl.sample(5.0);
    EXPECT_EQ(ctl.sloGuard()->rung(), kRungEvictAntagonist);
    ASSERT_EQ(ctl.suspendedIds().size(), 1u);
    wl::Task *victim = f.node.taskById(ctl.suspendedIds()[0]);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->lifeState(), wl::LifeState::Suspended);

    // The applied knobs reflect the fully-escalated ladder.
    const hal::TaskGroup &g = f.node.groups().get(f.cpu);
    EXPECT_EQ(g.cores().inSubdomain(0, 0), 0);
    EXPECT_EQ(g.cores().inSubdomain(0, 1), 1);
    EXPECT_EQ(g.prefetchersEnabled(), 0);
}

// ---------------------------------------------------------------
// Snapshot / restore / reconcile.

TEST(Snapshot, SerializeRoundTrips)
{
    ControllerSnapshot s;
    s.valid = true;
    s.time = 123.4375;
    s.coreNumH = 3;
    s.coreNumL = 5;
    s.prefetcherNumL = 2;
    s.failSafe = true;
    s.rung = 4;
    s.prevH = 0;
    s.prevL = 1;
    s.suspended = {3, 7, 11};

    ControllerSnapshot t;
    ASSERT_TRUE(ControllerSnapshot::deserialize(s.serialize(), t));
    EXPECT_TRUE(t.valid);
    EXPECT_DOUBLE_EQ(t.time, s.time);
    EXPECT_EQ(t.coreNumH, s.coreNumH);
    EXPECT_EQ(t.coreNumL, s.coreNumL);
    EXPECT_EQ(t.prefetcherNumL, s.prefetcherNumL);
    EXPECT_EQ(t.failSafe, s.failSafe);
    EXPECT_EQ(t.rung, s.rung);
    EXPECT_EQ(t.prevH, s.prevH);
    EXPECT_EQ(t.prevL, s.prevL);
    EXPECT_EQ(t.suspended, s.suspended);

    // And the text itself is stable under a second round trip.
    EXPECT_EQ(t.serialize(), s.serialize());

    // Empty suspension list round-trips too.
    s.suspended.clear();
    ASSERT_TRUE(ControllerSnapshot::deserialize(s.serialize(), t));
    EXPECT_TRUE(t.suspended.empty());
}

TEST(Snapshot, CounterWindowRoundTripsExactly)
{
    ControllerSnapshot s;
    s.valid = true;
    s.time = 5.0;
    s.hasCounterWindow = true;
    // Awkward doubles: denormal-ish, negative, huge, and values with
    // no short decimal form -- %.17g must round-trip all of them
    // bit-exactly.
    for (size_t i = 0; i < s.counterWindow.size(); ++i) {
        s.counterWindow[i] =
            (i % 2 ? -1.0 : 1.0) * (0.1 + static_cast<double>(i)) /
            3.0 * 1e3;
    }
    s.counterWindow[0] = 1e-300;
    s.counterWindow[1] = 6.02214076e23;

    ControllerSnapshot t;
    ASSERT_TRUE(ControllerSnapshot::deserialize(s.serialize(), t));
    EXPECT_TRUE(t.hasCounterWindow);
    for (size_t i = 0; i < s.counterWindow.size(); ++i)
        EXPECT_DOUBLE_EQ(t.counterWindow[i], s.counterWindow[i]) << i;
    EXPECT_EQ(t.serialize(), s.serialize());

    // A window-less snapshot keeps the empty cw section.
    s.hasCounterWindow = false;
    ASSERT_TRUE(ControllerSnapshot::deserialize(s.serialize(), t));
    EXPECT_FALSE(t.hasCounterWindow);
    EXPECT_EQ(t.serialize(), s.serialize());
}

TEST(Snapshot, RejectsMalformedText)
{
    ControllerSnapshot t;
    EXPECT_FALSE(ControllerSnapshot::deserialize("", t));
    EXPECT_FALSE(ControllerSnapshot::deserialize("garbage", t));
    EXPECT_FALSE(ControllerSnapshot::deserialize("t=1;h=2", t));
    EXPECT_FALSE(ControllerSnapshot::deserialize(
        "t=1;h=0;l=1;p=1;fs=0;rung=0;ph=2;pl=2;cw=;susp=1|x", t));
    // Truncated counter window: fewer doubles than the cursor state
    // carries.
    EXPECT_FALSE(ControllerSnapshot::deserialize(
        "t=1;h=0;l=1;p=1;fs=0;rung=0;ph=2;pl=2;cw=1|2|3;susp=", t));
    // The legacy pre-counter-window format is not accepted.
    EXPECT_FALSE(ControllerSnapshot::deserialize(
        "t=1;h=0;l=1;p=1;fs=0;rung=0;ph=2;pl=2;susp=1", t));
}

TEST(Restart, ReconcileRepairsKnobDivergence)
{
    ChurnFixture f(8);
    Bindings bind{&f.node, f.ml, f.cpu, 0};
    ConfigLimits limits{0, 4, 1, 8};
    ResourceState init{0, 8, 8};
    AppProfile profile = testProfile();
    auto make = [&f, bind, limits, init, profile]() {
        return std::unique_ptr<Controller>(
            std::make_unique<KelpController>(bind, profile, limits,
                                             init));
    };

    auto mgr = std::make_unique<RuntimeManager>(make(), 0.01);
    mgr->setControllerFactory(make);
    sim::Engine eng(1e-3);
    f.node.attach(eng);
    mgr->attach(eng);
    eng.run(0.1);  // 10 samples under heavy aggressor pressure
    ASSERT_EQ(mgr->samples(), 10u);
    ControllerParams before = mgr->controller().params();

    // Corrupt the hardware behind the (dead) controller's back.
    f.node.knobs().setCores(f.cpu, 0, 1, 3);
    f.node.knobs().setPrefetchersEnabled(f.cpu, 2);
    f.node.knobs().setCatWays(f.cpu, 3);

    ASSERT_TRUE(mgr->restart(eng.now()));
    EXPECT_EQ(mgr->restarts(), 1u);
    ASSERT_EQ(mgr->restartTrace().size(), 1u);
    EXPECT_TRUE(mgr->restartTrace()[0].hadCheckpoint);
    EXPECT_GE(mgr->restartTrace()[0].repairs, 1);

    // Intent recovered exactly...
    ControllerParams after = mgr->controller().params();
    EXPECT_EQ(after.loCores, before.loCores);
    EXPECT_EQ(after.loPrefetchers, before.loPrefetchers);
    EXPECT_EQ(after.hiBackfillCores, before.hiBackfillCores);

    // ...and pushed back into the hardware.
    const hal::TaskGroup &g = f.node.groups().get(f.cpu);
    EXPECT_EQ(g.cores().inSubdomain(0, 1), before.loCores);
    EXPECT_EQ(g.cores().inSubdomain(0, 0), before.hiBackfillCores);
    EXPECT_EQ(g.prefetchersEnabled(),
              before.loPrefetchers + before.hiBackfillCores);
    EXPECT_EQ(g.catWays(), 0);
}

TEST(Restart, NoFactoryMeansNoRestart)
{
    ChurnFixture f(4);
    Bindings bind{&f.node, f.ml, f.cpu, 0};
    auto ctl = std::make_unique<KelpController>(
        bind, testProfile(), ConfigLimits{0, 4, 1, 8},
        ResourceState{0, 4, 4});
    RuntimeManager mgr(std::move(ctl), 1.0);
    EXPECT_FALSE(mgr.restart(5.0));
    EXPECT_EQ(mgr.restarts(), 0u);
}

// ---------------------------------------------------------------
// Scenario-level: determinism and restart recovery end-to-end.

TEST(ChurnScenario, RunIsDeterministicPerSeed)
{
    exp::RunConfig cfg = quick(wl::MlWorkload::Cnn1,
                               exp::ConfigKind::KP);
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 2;
    cfg.measure = 20.0;
    cfg.churn.enabled = true;
    cfg.churn.arrivalRate = 0.25;
    cfg.churn.maxLive = 3;
    cfg.churn.seed = 5;

    exp::RunResult a = exp::runScenario(cfg);
    exp::RunResult b = exp::runScenario(cfg);
    EXPECT_GT(a.churnArrivals, 0u);
    EXPECT_EQ(fuzz::resultTextWithCounters(a),
              fuzz::resultTextWithCounters(b));
}

TEST(ChurnScenario, EventLogsIdenticalAcrossBuilds)
{
    exp::RunConfig cfg = quick(wl::MlWorkload::Cnn1,
                               exp::ConfigKind::KP);
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 2;
    cfg.churn.enabled = true;
    cfg.churn.arrivalRate = 0.5;
    cfg.churn.seed = 11;

    exp::Scenario a = exp::buildScenario(cfg);
    exp::Scenario b = exp::buildScenario(cfg);
    a.engine->run(30.0);
    b.engine->run(30.0);
    ASSERT_TRUE(a.lifecycle && b.lifecycle);
    const auto &la = a.lifecycle->eventLog();
    const auto &lb = b.lifecycle->eventLog();
    ASSERT_GT(la.size(), 0u);
    ASSERT_EQ(la.size(), lb.size());
    for (size_t i = 0; i < la.size(); ++i) {
        EXPECT_DOUBLE_EQ(la[i].time, lb[i].time);
        EXPECT_EQ(la[i].kind, lb[i].kind);
        EXPECT_EQ(la[i].task, lb[i].task);
        EXPECT_EQ(la[i].threads, lb[i].threads);
    }
}

TEST(ChurnScenario, KillAndRestartIsBitNeutralWithoutFaults)
{
    // With a clean HAL the checkpoint replay + reconciliation is
    // exact: killing the controller mid-measurement must leave every
    // reported metric bit-identical to the uninterrupted run. This
    // also pins the ≤5-sample recovery bound at its strongest form
    // (zero divergent samples).
    exp::RunConfig cfg = quick(wl::MlWorkload::Cnn1,
                               exp::ConfigKind::KP);
    cfg.cpu = wl::CpuWorkload::DramAggressor;
    cfg.cpuThreadsOverride = 14;

    exp::RunResult clean = exp::runScenario(cfg);
    cfg.killAt = 15.0;  // mid-measurement
    exp::RunResult killed = exp::runScenario(cfg);

    EXPECT_EQ(clean.restarts, 0u);
    EXPECT_EQ(killed.restarts, 1u);
    // Everything but the restart counter, as the restart-divergence
    // oracle compares; the kill event adds a periodic firing, so the
    // counters differ.
    exp::RunResult masked = clean;
    masked.restarts = killed.restarts;
    EXPECT_EQ(fuzz::resultText(masked), fuzz::resultText(killed));
}

TEST(ChurnScenario, ChurnOffIsBitIdenticalToStaticPath)
{
    // The churn machinery defaults off; a default-config KP run must
    // not be perturbed by its existence, and two identical runs must
    // agree bitwise.
    exp::RunConfig cfg = quick(wl::MlWorkload::Cnn1,
                               exp::ConfigKind::KP);
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 4;
    exp::RunResult a = exp::runScenario(cfg);
    exp::RunResult b = exp::runScenario(cfg);
    EXPECT_EQ(fuzz::resultTextWithCounters(a),
              fuzz::resultTextWithCounters(b));
    EXPECT_EQ(a.churnArrivals, 0u);
    EXPECT_EQ(a.restarts, 0u);
    EXPECT_EQ(a.sloTransitions, 0u);
}
