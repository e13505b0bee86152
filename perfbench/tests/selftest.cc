/**
 * @file
 * The benchmark's own tests: the workload generator is pure in its
 * seed, verification counts injected mismatches, and the span model
 * computes self time and coverage. Exits non-zero on any failure.
 *
 *   .bench_build/perfbench/perfbench_selftest
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "spans.hh"
#include "verify.hh"
#include "workloads.hh"

using namespace kelp;
using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

void
generatorIsPureInTheSeed()
{
    for (const std::string &name : workloadNames()) {
        const std::string a = describe(makeWorkload(name, 7, 4));
        const std::string b = describe(makeWorkload(name, 7, 4));
        expect(a == b, name + ": same seed, same inputs");
        const std::string c = describe(makeWorkload(name, 8, 4));
        if (name == "grid")
            expect(a == c, name + ": seed-invariant");
        else
            expect(a != c, name + ": different seeds diverge");
    }
    expect(makeWorkload("fleet", 3, 4).workers == 1 &&
               makeWorkload("fleet", 3, 4).cells.front().jobs == 1 &&
               makeWorkload("serve", 3, 4).workers == 1 &&
               makeWorkload("churn", 3, 4).workers == 1,
           "serial workloads use one worker");
    expect(makeWorkload("grid", 3, 4).grid.jobs == 2 &&
               makeWorkload("grid", 3, 1).grid.jobs == 1,
           "the grid uses two workers, or fewer when given fewer");
}

exp::RunResult
goodRun()
{
    exp::RunResult r;
    r.mlPerf = 10.0;
    r.reqArrivals = 10;
    r.reqAdmitted = 8;
    r.reqRejected = 2;
    r.reqCompleted = 6;
    r.reqShed = 1;
    r.reqInFlight = 1;
    return r;
}

void
mismatchesCountAsFailed()
{
    Verifier v;
    const exp::RunResult r = goodRun();
    v.checkRun("good", r, 0);
    expect(v.failed() == 0 && v.attempted() == 1, "a good run passes");

    exp::RunResult drifted = r;
    drifted.mlPerf = std::nextafter(r.mlPerf, 11.0);
    v.compareReplay("injected", runText(r), runText(drifted));
    expect(v.failed() == 1 && v.attempted() == 2,
           "an injected one-ulp replay mismatch is counted");
    expect(static_cast<double>(v.failed()) /
                   static_cast<double>(v.attempted()) ==
               0.5,
           "failed_frac = failed / attempted");

    exp::RunResult lost = r;
    lost.reqCompleted = 5;
    v.checkRun("lost request", lost, 0);
    expect(v.failed() == 2, "broken request conservation is counted");

    exp::RunResult nan = r;
    nan.avgSaturation = std::numeric_limits<double>::quiet_NaN();
    v.checkRun("nan", nan, 0);
    expect(v.failed() == 3, "a non-finite metric is counted");

    v.checkRun("contract", r, 1);
    expect(v.failed() == 4, "a contract violation is counted");

    cluster::ClusterResult c;
    c.arrivals = 5;
    c.placed = 4;
    c.rejected = 1;
    c.finished = 2;
    c.runningAtEnd = 2;
    c.nodeHours = 4;
    c.evaluations = 1;
    v.checkCluster("cell", c, 0);
    expect(v.failed() == 4, "a conserved cluster passes");
    c.runningAtEnd = 1;
    v.checkCluster("cell", c, 0);
    expect(v.failed() == 5, "broken job conservation is counted");

    exp::MixResult m;
    m.mlPerf[0] = 1.0;
    m.cpuTput[0] = 1.0;
    v.checkMix("mix", m, 0);
    exp::MixResult m2 = m;
    m2.cpuTput[3] = 0.5;
    v.compareReplay("mix replay", mixText(m), mixText(m2));
    expect(v.failed() == 6 && v.attempted() == 9,
           "a MixResult field mismatch is counted");
}

void
spanModel()
{
    std::vector<Span> s(4);
    s[0] = {"body", "exp", 0.0, 10.0, -1, 0};
    s[1] = {"build", "exp", 1.0, 3.0, 0, 0};
    s[2] = {"measure", "sim", 2.0, 6.0, 0, 0};
    s[3] = {"other", "cluster", 20.0, 21.0, -1, 1};
    const auto self = selfTimes(s);
    // body: 10 - union([1,3],[2,6]) = 5; build 2 + measure 4 (the
    // overlap is a layer's own time in each).
    expect(std::abs(self.at("exp") - 7.0) < 1e-12, "self time of exp");
    expect(std::abs(self.at("sim") - 4.0) < 1e-12, "self time of sim");
    expect(std::abs(topLevelCoverage(s, 0.0) - 11.0) < 1e-12,
           "coverage is the union of top-level spans");
    expect(std::abs(topLevelCoverage(s, 5.0) - 1.0) < 1e-12,
           "coverage counts only spans starting after `from`");

    SpanLog log;
    const int outer = log.begin("outer", "exp", log.newScenario());
    const int inner = log.begin("inner", "sim");
    log.end(inner);
    log.end(outer);
    const std::vector<Span> rec = log.spans();
    expect(rec.size() == 2 && rec[1].parent == outer &&
               rec[1].scenario == rec[0].scenario && rec[1].end >= rec[1].start,
           "nested spans record parent and inherit the scenario id");
}

} // namespace

int
main()
{
    generatorIsPureInTheSeed();
    mismatchesCountAsFailed();
    spanModel();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
