/**
 * @file
 * Tests for the ML task models: training step graphs and the
 * inference server.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "exp/scenario.hh"
#include "fuzz/oracle.hh"
#include "workload/catalog.hh"
#include "workload/ml_infer_task.hh"
#include "workload/ml_train_task.hh"

using namespace kelp;
using namespace kelp::wl;
using kelp::sim::msec;

namespace {

HostPhaseParams
hostParams(double cpu_frac = 0.3)
{
    HostPhaseParams p;
    p.cpuFrac = cpu_frac;
    p.parallelism = 4;
    return p;
}

ExecEnv
idealEnv(double cores = 8.0)
{
    ExecEnv env;
    env.effCores = cores;
    env.latencyNs = 90.0;
    env.baseLatencyNs = 90.0;
    return env;
}

/** In-feed-style step: host overlapping accel, then a sync hop. */
StepGraph
infeedStep(sim::Time host, sim::Time accel)
{
    StepGraph g;
    g.stages.push_back({{hostSegment(host, hostParams()),
                         accelSegment(accel)}});
    g.stages.push_back({{pcieSegment(0.2 * msec)}});
    return g;
}

} // namespace

TEST(StepGraph, StandaloneDurationIsCriticalPath)
{
    StepGraph g = infeedStep(3.0 * msec, 2.0 * msec);
    EXPECT_NEAR(g.standaloneDuration(), 3.2 * msec, 1e-12);
    EXPECT_NEAR(g.hostTime(), 3.0 * msec, 1e-12);
}

TEST(MlTrainTask, StandaloneStepRate)
{
    MlTrainTask t("cnn", 0, infeedStep(3.0 * msec, 2.0 * msec),
                  nullptr);
    t.advance(3.2 * msec * 10, idealEnv());
    EXPECT_EQ(t.steps(), 10u);
    EXPECT_NEAR(t.completedWork(), 10.0, 1e-6);
}

TEST(MlTrainTask, OverlapHidesFastHost)
{
    // Host shorter than accel: host slowdown up to the slack is free.
    MlTrainTask t("cnn", 0, infeedStep(2.0 * msec, 3.0 * msec),
                  nullptr);
    ExecEnv env = idealEnv();
    env.latencyNs = 120.0;  // mild: host 2.0 -> ~2.5ms, still < 3.0
    t.advance(3.2 * msec * 10, env);
    EXPECT_EQ(t.steps(), 10u);
}

TEST(MlTrainTask, CriticalHostSlowsStep)
{
    MlTrainTask t("cnn", 0, infeedStep(3.0 * msec, 2.0 * msec),
                  nullptr);
    ExecEnv env = idealEnv();
    env.latencyNs = 270.0;  // 3x -> host speed 1/(0.3+0.7*3) = 0.417
    sim::Time horizon = 1.0;
    t.advance(horizon, env);
    double expected_step = 3.0 * msec / 0.4167 + 0.2 * msec;
    EXPECT_NEAR(t.completedWork(), horizon / expected_step,
                t.completedWork() * 0.02);
}

TEST(MlTrainTask, PartialStepFraction)
{
    MlTrainTask t("cnn", 0, infeedStep(3.0 * msec, 2.0 * msec),
                  nullptr);
    t.advance(1.6 * msec, idealEnv());
    EXPECT_EQ(t.steps(), 0u);
    EXPECT_NEAR(t.completedWork(), 0.5, 0.01);
}

TEST(MlTrainTask, AccelUtilizationRecorded)
{
    accel::AcceleratorConfig acfg;
    accel::Accelerator accel(acfg);
    MlTrainTask t("cnn", 0, infeedStep(2.0 * msec, 3.0 * msec),
                  &accel);
    t.advance(3.2 * msec * 100, idealEnv());
    sim::IntervalAccumulator::Snapshot s;
    double util = accel.engineUtil().readSince(s, 0.0);
    EXPECT_NEAR(util, 3.0 / 3.2, 0.02);
}

TEST(MlTrainTask, ThreadsFollowParallelism)
{
    MlTrainTask t("cnn", 0, infeedStep(3.0 * msec, 2.0 * msec),
                  nullptr);
    EXPECT_EQ(t.threadsWanted(), 4);
}

TEST(MlTrainTask, DemandOnlyDuringHostStage)
{
    // Sequential: accel stage first, then host (CNN3 pattern).
    StepGraph g;
    g.stages.push_back({{accelSegment(2.0 * msec)}});
    g.stages.push_back({{hostSegment(2.0 * msec, hostParams())}});
    MlTrainTask t("cnn3", 0, g, nullptr);
    ExecEnv env = idealEnv();
    // At t=0 the accel stage is active: no host demand.
    EXPECT_DOUBLE_EQ(t.bwDemand(env), 0.0);
    t.advance(2.5 * msec, env);
    EXPECT_GT(t.bwDemand(env), 0.0);
}

TEST(MlTrainTask, EmptyStepPanics)
{
    StepGraph g;
    EXPECT_DEATH(MlTrainTask("x", 0, g, nullptr), "stages");
}

namespace {

InferConfig
inferConfig(bool closed = true, int depth = 2)
{
    HostPhaseParams beam;
    beam.cpuFrac = 0.5;
    beam.parallelism = 2;
    InferConfig cfg;
    StepGraph iter;
    iter.stages.push_back({{hostSegment(0.4 * msec, beam)}});
    iter.stages.push_back({{pcieSegment(0.1 * msec)}});
    iter.stages.push_back({{accelSegment(0.3 * msec)}});
    cfg.iteration = iter;
    cfg.itersPerRequest = 4;
    cfg.pipelineDepth = depth;
    cfg.closedLoop = closed;
    cfg.targetQps = 200.0;
    return cfg;
}

} // namespace

TEST(MlInferTask, SerialRequestLatencyIsSumOfPhases)
{
    InferConfig cfg = inferConfig();
    cfg.serial = true;
    MlInferTask t("rnn", 0, cfg, nullptr);
    t.advance(1.0, idealEnv());
    // One request = 4 iterations x 0.8 ms = 3.2 ms.
    EXPECT_NEAR(t.latency().percentile(50.0), 3.2e-3, 3.2e-3 * 0.05);
    EXPECT_NEAR(static_cast<double>(t.completed()), 1.0 / 3.2e-3,
                2.0);
}

TEST(MlInferTask, ClosedLoopKeepsDepthInFlight)
{
    MlInferTask t("rnn", 0, inferConfig(true, 3), nullptr);
    t.advance(0.5, idealEnv());
    // Throughput exceeds the serial rate thanks to pipelining.
    double serial_rate = 1.0 / 3.2e-3;
    EXPECT_GT(t.completed() / 0.5, serial_rate * 1.5);
}

TEST(MlInferTask, ClosedLoopThroughputTimesLatencyIsDepth)
{
    MlInferTask t("rnn", 0, inferConfig(true, 3), nullptr);
    t.advance(2.0, idealEnv());
    double qps = t.completed() / 2.0;
    double mean_lat = t.latency().mean();
    EXPECT_NEAR(qps * mean_lat, 3.0, 0.2);  // Little's law
}

TEST(MlInferTask, SlowHostCutsQpsAndInflatesTail)
{
    MlInferTask fast("rnn", 0, inferConfig(), nullptr);
    MlInferTask slow("rnn", 0, inferConfig(), nullptr);
    ExecEnv env = idealEnv(4.0);
    fast.advance(2.0, env);
    ExecEnv contended = env;
    contended.latencyNs = 360.0;
    slow.advance(2.0, contended);
    EXPECT_LT(slow.completed(), fast.completed() * 0.85);
    EXPECT_GT(slow.latency().percentile(95.0),
              fast.latency().percentile(95.0) * 1.15);
}

TEST(MlInferTask, OpenLoopTracksArrivalRateWhenUnderloaded)
{
    InferConfig cfg = inferConfig(false, 4);
    cfg.targetQps = 100.0;
    MlInferTask t("rnn", 0, cfg, nullptr, 7);
    t.advance(5.0, idealEnv());
    EXPECT_NEAR(t.completed() / 5.0, 100.0, 8.0);
}

TEST(MlInferTask, OpenLoopQueueGrowsWhenOverloaded)
{
    InferConfig cfg = inferConfig(false, 1);
    cfg.targetQps = 1000.0;  // far beyond 1/3.2ms = 312 capacity
    MlInferTask t("rnn", 0, cfg, nullptr, 7);
    t.advance(1.0, idealEnv());
    EXPECT_GT(t.queued(), 100u);
}

TEST(MlInferTask, TraceEventsCoverAllPhases)
{
    InferConfig cfg = inferConfig();
    cfg.serial = true;
    MlInferTask t("rnn", 0, cfg, nullptr);
    std::vector<TraceEvent> events;
    t.setTraceSink([&](const TraceEvent &e) { events.push_back(e); });
    t.advance(3.2e-3 * 2.5, idealEnv());
    int host = 0, pcie = 0, accel = 0;
    for (const auto &e : events) {
        EXPECT_LE(e.start, e.end);
        switch (e.kind) {
          case SegmentKind::Host:
            ++host;
            break;
          case SegmentKind::Pcie:
            ++pcie;
            break;
          case SegmentKind::Accel:
            ++accel;
            break;
        }
    }
    EXPECT_GE(host, 8);
    EXPECT_GE(pcie, 8);
    EXPECT_GE(accel, 8);
}

TEST(MlInferTask, ResetLatencyClearsHistogram)
{
    InferConfig cfg = inferConfig();
    cfg.serial = true;
    MlInferTask t("rnn", 0, cfg, nullptr);
    t.advance(0.1, idealEnv());
    EXPECT_GT(t.latency().count(), 0u);
    t.resetLatency();
    EXPECT_EQ(t.latency().count(), 0u);
}

TEST(MlInferTask, MultiSegmentStagePanics)
{
    InferConfig cfg = inferConfig();
    cfg.iteration.stages[0].segments.push_back(
        accelSegment(1.0 * msec));
    EXPECT_DEATH(MlInferTask("x", 0, cfg, nullptr), "one segment");
}

namespace {

/*
 * Golden bytes for the inference server inside a whole scenario: RNN1
 * at 2 s warmup + 3 s measure in each mode MlInferTask::advance
 * serves. A change to the floating-point operations of its event
 * loop, or to their order, moves them; the perfbench digests would
 * notice too, but they only inform.
 */
exp::RunConfig
goldenConfig()
{
    exp::RunConfig cfg;
    cfg.ml = MlWorkload::Rnn1;
    cfg.config = exp::ConfigKind::BL;
    cfg.warmup = 2.0;
    cfg.measure = 3.0;
    return cfg;
}

/** Result text as every build type prints it. Debug builds recompute
 * each resolve-cache hit to cross-check it (MemSystem::resolve), and
 * the recompute counts memory-controller cache hits of its own. */
std::string
buildNeutral(std::string text)
{
#ifndef NDEBUG
    const size_t at = text.find("mcCacheHits=");
    text.erase(at, text.find('\n', at) + 1 - at);
#endif
    return text;
}

void
expectGolden(const exp::RunConfig &cfg, const char *text)
{
    EXPECT_EQ(buildNeutral(
                  fuzz::resultTextWithCounters(exp::runScenario(cfg))),
              buildNeutral(text));
}

} // namespace

TEST(MlInferGolden, ClosedLoopStandalone)
{
    // Closed-loop BL standalone (the reference's own mode).
    exp::RunConfig cfg = goldenConfig();
    expectGolden(cfg, R"(mlPerf=631.3333333333334
mlTailP95=0.0047737207895847756
cpuThroughput=0
avgLoCores=16
avgLoPrefetchers=16
avgHiBackfill=0
timeInFailSafe=0
failSafeEntries=0
avgSaturation=0
avgSocketBw=6.251908121277357
churnArrivals=0
churnFinishes=0
churnCrashes=0
churnRejected=0
restarts=0
sloViolations=0
sloTransitions=0
sloFinalRung=0
reqArrivals=0
reqAdmitted=0
reqRejected=0
reqShed=0
reqExpired=0
reqCompleted=0
reqInFlight=0
brownoutTransitions=0
brownoutFinal=0
reqP99=0
reqP999=0
reqP9999=0
engineTicks=50000
engineFastTicks=0
engineFullTicks=50000
periodicFires=1
demandCalls=50000
advanceCalls=50000
fastTaskTicks=0
resolveCacheHits=3
resolveCacheMisses=49997
mcCacheHits=99992
mcCacheMisses=99996
memFastTicks=0
)");
}

TEST(MlInferGolden, SerialTrace)
{
    // Serial trace mode: one request in flight.
    exp::RunConfig cfg = goldenConfig();
    cfg.serialInference = true;
    expectGolden(cfg, R"(mlPerf=210.33333333333334
mlTailP95=0.0047737207895847756
cpuThroughput=0
avgLoCores=16
avgLoPrefetchers=16
avgHiBackfill=0
timeInFailSafe=0
failSafeEntries=0
avgSaturation=0
avgSocketBw=2.084173925710808
churnArrivals=0
churnFinishes=0
churnCrashes=0
churnRejected=0
restarts=0
sloViolations=0
sloTransitions=0
sloFinalRung=0
reqArrivals=0
reqAdmitted=0
reqRejected=0
reqShed=0
reqExpired=0
reqCompleted=0
reqInFlight=0
brownoutTransitions=0
brownoutFinal=0
reqP99=0
reqP999=0
reqP9999=0
engineTicks=50000
engineFastTicks=0
engineFullTicks=50000
periodicFires=1
demandCalls=50000
advanceCalls=50000
fastTaskTicks=0
resolveCacheHits=16813
resolveCacheMisses=33187
mcCacheHits=66372
mcCacheMisses=66376
memFastTicks=0
)");
}

TEST(MlInferGolden, OpenLoop)
{
    // Open-loop Poisson arrivals.
    exp::RunConfig cfg = goldenConfig();
    cfg.openLoopQps = 300.0;
    expectGolden(cfg, R"(mlPerf=299
mlTailP95=0.0069514579697586365
cpuThroughput=0
avgLoCores=16
avgLoPrefetchers=16
avgHiBackfill=0
timeInFailSafe=0
failSafeEntries=0
avgSaturation=0
avgSocketBw=2.9548011692653304
churnArrivals=0
churnFinishes=0
churnCrashes=0
churnRejected=0
restarts=0
sloViolations=0
sloTransitions=0
sloFinalRung=0
reqArrivals=0
reqAdmitted=0
reqRejected=0
reqShed=0
reqExpired=0
reqCompleted=0
reqInFlight=0
brownoutTransitions=0
brownoutFinal=0
reqP99=0
reqP999=0
reqP9999=0
engineTicks=50000
engineFastTicks=10084
engineFullTicks=39916
periodicFires=1
demandCalls=39916
advanceCalls=39916
fastTaskTicks=10084
resolveCacheHits=9015
resolveCacheMisses=30901
mcCacheHits=61800
mcCacheMisses=61804
memFastTicks=10084
)");
}

TEST(MlInferGolden, ExternallyDriven)
{
    // Externally driven by the serving layer, default traffic.
    exp::RunConfig cfg = goldenConfig();
    cfg.serving.enabled = true;
    expectGolden(cfg, R"(mlPerf=307
mlTailP95=0.02678483864619567
cpuThroughput=0
avgLoCores=16
avgLoPrefetchers=16
avgHiBackfill=0
timeInFailSafe=0
failSafeEntries=0
avgSaturation=0
avgSocketBw=3.026376575706694
churnArrivals=0
churnFinishes=0
churnCrashes=0
churnRejected=0
restarts=0
sloViolations=0
sloTransitions=0
sloFinalRung=0
reqArrivals=1546
reqAdmitted=1546
reqRejected=0
reqShed=0
reqExpired=0
reqCompleted=1541
reqInFlight=5
brownoutTransitions=0
brownoutFinal=0
reqP99=0.0308422039735602
reqP999=0.045296511240283756
reqP9999=0.04585903881761061
engineTicks=50000
engineFastTicks=18686
engineFullTicks=31314
periodicFires=1001
demandCalls=31314
advanceCalls=31314
fastTaskTicks=18686
resolveCacheHits=9939
resolveCacheMisses=21375
mcCacheHits=42748
mcCacheMisses=42752
memFastTicks=18686
)");
}

TEST(MlInferGolden, ColocatedUnderKelp)
{
    // KP colocated with four Stitch instances.
    exp::RunConfig cfg = goldenConfig();
    cfg.config = exp::ConfigKind::KP;
    cfg.cpu = CpuWorkload::Stitch;
    cfg.cpuInstances = 4;
    expectGolden(cfg, R"(mlPerf=580
mlTailP95=0.005296011988176894
cpuThroughput=4.511904355662961
avgLoCores=8
avgLoPrefetchers=4
avgHiBackfill=1
timeInFailSafe=0
failSafeEntries=0
avgSaturation=0.8522616641108651
avgSocketBw=44.33157195039589
churnArrivals=0
churnFinishes=0
churnCrashes=0
churnRejected=0
restarts=0
sloViolations=0
sloTransitions=0
sloFinalRung=0
reqArrivals=0
reqAdmitted=0
reqRejected=0
reqShed=0
reqExpired=0
reqCompleted=0
reqInFlight=0
brownoutTransitions=0
brownoutFinal=0
reqP99=0
reqP999=0
reqP9999=0
engineTicks=50000
engineFastTicks=0
engineFullTicks=50000
periodicFires=1
demandCalls=250000
advanceCalls=250000
fastTaskTicks=0
resolveCacheHits=801
resolveCacheMisses=49199
mcCacheHits=137577
mcCacheMisses=59219
memFastTicks=0
)");
}
