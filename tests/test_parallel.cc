/**
 * @file
 * Tests for the deterministic worker pool (exp::runJobs) and the
 * sweep helpers built on it: results and side-effect ordering must be
 * bit-identical to the serial reference path for every job count,
 * exceptions must surface exactly as a serial loop would surface
 * them, and the adversarial cases (reverse-staggered job durations)
 * must not reorder commits.
 *
 * Tests are outside the raw-parallelism lint scope on purpose: they
 * stage adversarial schedules with real sleeps and inspect thread
 * identity directly.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/evaluation.hh"
#include "exp/pool.hh"
#include "exp/sweep_runner.hh"
#include "fleet/fleet.hh"
#include "fuzz/oracle.hh"
#include "sim/rng.hh"
#include "workload/catalog.hh"

namespace {

using namespace kelp;

TEST(Pool, HardwareJobsIsPositive)
{
    EXPECT_GE(exp::hardwareJobs(), 1);
    EXPECT_EQ(exp::resolveJobs(0), exp::hardwareJobs());
    EXPECT_EQ(exp::resolveJobs(-3), exp::hardwareJobs());
    EXPECT_EQ(exp::resolveJobs(1), 1);
    EXPECT_EQ(exp::resolveJobs(7), 7);
}

TEST(Pool, SerialPathRunsInOrderOnCallerThread)
{
    std::vector<int> workOrder;
    std::vector<int> commitOrder;
    const auto caller = std::this_thread::get_id();
    bool offThread = false;
    exp::runJobs(
        5, 1,
        [&](int i) {
            workOrder.push_back(i);
            if (std::this_thread::get_id() != caller)
                offThread = true;
        },
        [&](int i) { commitOrder.push_back(i); });
    EXPECT_EQ(workOrder, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(commitOrder, workOrder);
    EXPECT_FALSE(offThread);
}

TEST(Pool, CommitsInIndexOrderOnCallerThread)
{
    // Adversarial schedule: later jobs finish first (job i sleeps
    // proportionally to n-1-i), so a pool that commits in completion
    // order would run 7,6,...,0.
    const int n = 8;
    std::vector<int> commitOrder;
    const auto caller = std::this_thread::get_id();
    bool commitOffThread = false;
    exp::runJobs(
        n, 4,
        [&](int i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2 * (n - 1 - i)));
        },
        [&](int i) {
            commitOrder.push_back(i);
            if (std::this_thread::get_id() != caller)
                commitOffThread = true;
        });
    std::vector<int> expect;
    for (int i = 0; i < n; ++i)
        expect.push_back(i);
    EXPECT_EQ(commitOrder, expect);
    EXPECT_FALSE(commitOffThread);
}

TEST(Pool, RunsEveryJobExactlyOnceWithMoreWorkersThanJobs)
{
    std::vector<std::atomic<int>> counts(3);
    exp::runJobs(3, 16, [&](int i) { counts[i].fetch_add(1); });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(Pool, FirstExceptionInIndexOrderWins)
{
    // Job 5 fails fast; job 1 fails after a delay. A serial loop
    // would have thrown from job 1 first, so the pool must too, and
    // no commit past index 0 may run.
    std::vector<int> committed;
    try {
        exp::runJobs(
            8, 4,
            [&](int i) {
                if (i == 5)
                    throw std::runtime_error("job 5");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
                if (i == 1)
                    throw std::runtime_error("job 1");
            },
            [&](int i) { committed.push_back(i); });
        FAIL() << "expected runJobs to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 1");
    }
    EXPECT_EQ(committed, (std::vector<int>{0}));
}

TEST(Pool, SerialExceptionMatches)
{
    std::vector<int> committed;
    try {
        exp::runJobs(
            4, 1,
            [&](int i) {
                if (i == 2)
                    throw std::runtime_error("job 2");
            },
            [&](int i) { committed.push_back(i); });
        FAIL() << "expected runJobs to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 2");
    }
    EXPECT_EQ(committed, (std::vector<int>{0, 1}));
}

TEST(Pool, ZeroJobsIsANoOp)
{
    bool ran = false;
    exp::runJobs(0, 8, [&](int) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(RngDerive, PureFunctionOfBaseAndIndex)
{
    sim::Rng a = sim::Rng::derive(2019, 7);
    sim::Rng b = sim::Rng::derive(2019, 7);
    EXPECT_EQ(a.next(), b.next());

    // Nearby indices and bases must decorrelate.
    EXPECT_NE(sim::Rng::derive(2019, 7).next(),
              sim::Rng::derive(2019, 8).next());
    EXPECT_NE(sim::Rng::derive(2019, 7).next(),
              sim::Rng::derive(2020, 7).next());
}

TEST(ParallelMap, MatchesSerialForEveryJobCount)
{
    // Deterministic per-index computation with enough mixing that an
    // index/result swap cannot cancel out.
    auto fn = [](int i) {
        sim::Rng rng = sim::Rng::derive(99, static_cast<uint64_t>(i));
        double acc = 0.0;
        for (int k = 0; k < 100; ++k)
            acc += rng.uniform();
        return acc;
    };
    const auto serial = exp::parallelMap<double>(64, 1, fn);
    for (int jobs : {4, 16}) {
        const auto par = exp::parallelMap<double>(64, jobs, fn);
        ASSERT_EQ(par.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(par[i], serial[i]) << "index " << i << " jobs "
                                         << jobs;
    }
}

TEST(SweepRunner, ScenarioSweepIsBitIdenticalAcrossJobCounts)
{
    // A small but heterogeneous sweep: two configs that exercise the
    // controller and one baseline, at short durations.
    std::vector<exp::RunConfig> cfgs;
    for (auto kind : {exp::ConfigKind::BL, exp::ConfigKind::KPSD,
                      exp::ConfigKind::KP}) {
        exp::RunConfig cfg;
        cfg.ml = wl::MlWorkload::Cnn1;
        cfg.cpu = wl::CpuWorkload::Stitch;
        cfg.cpuInstances = 2;
        cfg.config = kind;
        cfg.warmup = 2.0;
        cfg.measure = 2.0;
        cfgs.push_back(cfg);
    }

    const auto serial = exp::runScenarios(cfgs, 1);
    for (int jobs : {4, 16}) {
        const auto par = exp::runScenarios(cfgs, jobs);
        ASSERT_EQ(par.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(fuzz::resultTextWithCounters(par[i]),
                      fuzz::resultTextWithCounters(serial[i]))
                << "run " << i << " jobs " << jobs;
    }
}

TEST(SweepRunner, FleetProfileIsBitIdenticalAcrossJobCounts)
{
    fleet::FleetConfig cfg;
    cfg.servers = 600;
    cfg.samplesPerDay = 48;

    cfg.jobs = 1;
    const auto serial = fleet::profileFleet(cfg).p99PerServer();
    for (int jobs : {3, 8}) {
        cfg.jobs = jobs;
        const auto par = fleet::profileFleet(cfg).p99PerServer();
        ASSERT_EQ(par.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(par[i], serial[i]) << "server " << i << " jobs "
                                         << jobs;
    }
}

/** The config standaloneReference(ml) runs. */
exp::RunConfig
referenceConfig(wl::MlWorkload ml)
{
    exp::RunConfig cfg;
    cfg.ml = ml;
    cfg.config = exp::ConfigKind::BL;
    cfg.cpu.reset();
    return cfg;
}

TEST(ReferenceMemo, OverlappingCallersOnThePoolAgree)
{
    // Four workers race on the memo: two prewarm overlapping sets
    // (one on a nested pool, one on the caller) and two read
    // directly, so one reference may be built by several workers at
    // once. Every caller must get the bytes the memo keeps. No test
    // above builds CNN2 or CNN3, so a whole-binary run (as in the
    // TSan CI job) still starts this one on a cold memo.
    const wl::MlWorkload cnn3 = wl::MlWorkload::Cnn3;
    const wl::MlWorkload cnn2 = wl::MlWorkload::Cnn2;
    const wl::MlWorkload read[] = {cnn3, cnn3, cnn2, cnn2};
    std::vector<std::string> got(4);
    exp::runJobs(4, 4, [&](int i) {
        if (i == 0) {
            exp::prewarmReferences(
                {referenceConfig(cnn3), referenceConfig(cnn2)}, 2);
        } else if (i == 2) {
            exp::prewarmReferences({referenceConfig(cnn2)}, 2);
        }
        got[static_cast<size_t>(i)] = fuzz::resultTextWithCounters(
            exp::standaloneReference(read[i]));
    });
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got[static_cast<size_t>(i)],
                  fuzz::resultTextWithCounters(
                      exp::standaloneReference(read[i])))
            << "worker " << i;
}

TEST(ReferenceMemo, SloRunDuringPrewarmMatchesRunAfter)
{
    // The SLO configure path reads the memo for its reference perf.
    exp::RunConfig slo;
    slo.ml = wl::MlWorkload::Cnn1;
    slo.cpu = wl::CpuWorkload::DramAggressor;
    slo.cpuInstances = 2;
    slo.config = exp::ConfigKind::KP;
    slo.slo.enabled = true;
    slo.warmup = 2.0;
    slo.measure = 4.0;
    std::string during;
    exp::runJobs(2, 2, [&](int i) {
        if (i == 0) {
            exp::prewarmReferences({referenceConfig(wl::MlWorkload::Cnn1),
                                    referenceConfig(wl::MlWorkload::Cnn3)},
                                   2);
        } else {
            during = fuzz::resultTextWithCounters(exp::runScenario(slo));
        }
    });
    EXPECT_TRUE(exp::referenceMemoized(wl::MlWorkload::Cnn1));
    EXPECT_EQ(during, fuzz::resultTextWithCounters(exp::runScenario(slo)));
}

TEST(ReferenceMemo, PoolPrewarmMatchesDirectRuns)
{
    // Whatever the tests above left in the memo, the missing
    // references build on the pool.
    std::vector<exp::RunConfig> cfgs;
    for (wl::MlWorkload ml : wl::allMlWorkloads())
        cfgs.push_back(referenceConfig(ml));
    exp::prewarmReferences(cfgs, 4);
    for (wl::MlWorkload ml : wl::allMlWorkloads()) {
        EXPECT_TRUE(exp::referenceMemoized(ml)) << wl::mlName(ml);
        EXPECT_EQ(fuzz::resultTextWithCounters(exp::standaloneReference(ml)),
                  fuzz::resultTextWithCounters(
                      exp::runScenario(referenceConfig(ml))))
            << wl::mlName(ml);
    }
}

} // namespace
