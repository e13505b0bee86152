/**
 * @file
 * perfbench: host-time benchmark of the simulator, one workload per
 * invocation.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--setup-only] [--spans PATH] [--list-metrics]
 *
 * --trace 0 sets up once, then repeats the workload's timed body until
 * S seconds have passed (at least kMinReps times), verifies every
 * operation, replays a deterministic subset on the reference path, and
 * prints the end-to-end metrics (the times of each operation's
 * fastest repetition, summed over the body's operations).
 *
 * --trace 1 sets up, runs the body once untraced, once with spans
 * around each call into the simulator's modules, then runs the
 * attribution passes and unit-cost probes, and prints the per-layer
 * metrics and each layer's self time. --spans writes the spans.
 *
 * --setup-only prints the set-up time and exits (the runner takes the
 * median over several processes).
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "exp/pool.hh"
#include "exp/sweep_runner.hh"
#include "layers.hh"
#include "metrics.hh"
#include "spans.hh"
#include "verify.hh"
#include "workloads.hh"

using namespace kelp;
using namespace perfbench;

namespace {

/** Repetitions of the timed body, at least, whatever --seconds says. */
constexpr int kMinReps = 3;

/** Longest measure window, simulated seconds, of a probe rerun. */
constexpr double kProbeMeasure = 40.0;

/** Pool workers of the parallel workloads: all cores, at most four. */
int
poolWorkers()
{
    return std::min(4, exp::hardwareJobs());
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    bool listMetrics = false;
    std::string spansPath;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        std::string v;
        if (k == "--setup-only") {
            a.setupOnly = true;
        } else if (k == "--list-metrics") {
            a.listMetrics = true;
        } else if (k == "--workload" && value(v)) {
            a.workload = v;
        } else if (k == "--seed" && value(v)) {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds" && value(v)) {
            a.seconds = std::atof(v.c_str());
        } else if (k == "--trace" && value(v)) {
            a.trace = v == "1";
        } else if (k == "--spans" && value(v)) {
            a.spansPath = v;
        } else {
            std::fprintf(stderr, "perfbench: bad argument '%s'\n",
                         k.c_str());
            return false;
        }
    }
    if (!a.listMetrics && !knownWorkload(a.workload)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return false;
    }
    return true;
}

/**
 * Peak resident set of this process image, MiB: VmHWM from
 * /proc/self/status. (getrusage's ru_maxrss survives exec on Linux,
 * so it would report the launching interpreter's peak instead.)
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb / 1024.0;
}

/** Nearest-rank percentile (0 < p <= 100) of a non-empty sample. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** The CPUs this thread may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                out.push_back(c);
        }
    }
    return out;
}

/** Restrict the calling thread to `cpus`. */
void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The MixResult a mix's four runs (BL, CT, KP-SD, KP) give: their ML
 * perf and CPU throughput, with the slowdowns copied from `orig` (they
 * are ratios of those values to the standalone memo), so comparing the
 * text with `orig` compares the runs.
 */
exp::MixResult
mixFromRuns(const exp::MixResult &orig, const exp::RunResult (&runs)[4])
{
    exp::MixResult m = orig;
    for (int k = 0; k < 4; ++k) {
        m.mlPerf[k] = runs[k].mlPerf;
        m.cpuTput[k] = runs[k].cpuThroughput;
    }
    return m;
}

/** Check one body's outputs; returns their canonical text. */
std::string
verifyBody(const BodyResult &r, Verifier &v, const std::string &tag)
{
    std::string text;
    for (size_t i = 0; i < r.mixes.size(); ++i) {
        v.checkMix(tag + " mix " + std::to_string(i), r.mixes[i],
                   r.contractDeltas[i]);
        text += mixText(r.mixes[i]);
    }
    for (size_t i = 0; i < r.clusters.size(); ++i) {
        v.checkCluster(tag + " cell " + std::to_string(i), r.clusters[i],
                       r.contractDeltas[i]);
        text += r.clusters[i].canonicalText();
    }
    for (size_t i = 0; i < r.runs.size(); ++i) {
        v.checkRun(tag + " run " + std::to_string(i), r.runs[i],
                   r.contractDeltas[i]);
        text += runText(r.runs[i]);
    }
    return text;
}

/** Replay one seed-chosen operation on the reference path (jobs 1,
 * eventDriven=false where the input allows it) and byte-compare. */
void
replayReference(const Workload &w, const BodyResult &r, Verifier &v)
{
    if (w.isGrid()) {
        // The mix's four runs, serially on the full-tick engine.
        const size_t i = w.seed % r.mixes.size();
        const std::vector<exp::RunConfig> cfgs = gridRunConfigs(w.grid);
        const uint64_t before = sim::contractViolationsHere();
        exp::RunResult runs[4];
        for (size_t k = 0; k < 4; ++k) {
            exp::RunConfig c = cfgs[i * 4 + k];
            c.eventDriven = false;
            runs[k] = exp::runScenario(c);
        }
        const exp::MixResult m = mixFromRuns(r.mixes[i], runs);
        v.checkMix("replay mix " + std::to_string(i), m,
                   sim::contractViolationsHere() - before);
        v.compareReplay("replay mix " + std::to_string(i),
                        mixText(r.mixes[i]), mixText(m));
    } else if (w.isFleet()) {
        const size_t i = w.seed % w.cells.size();
        cluster::ClusterConfig c = w.cells[i];
        c.jobs = 1;
        const uint64_t before = sim::contractViolationsHere();
        const cluster::ClusterResult cr = cluster::simulateCluster(c);
        v.checkCluster("replay cell " + std::to_string(i), cr,
                       sim::contractViolationsHere() - before);
        v.compareReplay("replay cell " + std::to_string(i),
                        r.clusters[i].canonicalText(), cr.canonicalText());
        // The cell builds its signature runs inside simulateCluster, out
        // of reach of the engine switch: run one of its signature
        // configs on both engines instead.
        const std::vector<exp::RunConfig> sigs = signatureConfigs(c);
        exp::RunConfig sig = sigs[w.seed % sigs.size()];
        const exp::RunResult fast = exp::runScenario(sig);
        sig.eventDriven = false;
        const uint64_t sigBefore = sim::contractViolationsHere();
        const exp::RunResult full = exp::runScenario(sig);
        v.checkRun("replay signature", full,
                   sim::contractViolationsHere() - sigBefore);
        v.compareReplay("replay signature", runText(fast), runText(full));
    } else {
        const size_t i = w.seed % w.runs.size();
        exp::RunConfig c = w.runs[i];
        c.eventDriven = false;
        const uint64_t before = sim::contractViolationsHere();
        const exp::RunResult rr = exp::runScenario(c);
        v.checkRun("replay run " + std::to_string(i), rr,
                   sim::contractViolationsHere() - before);
        v.compareReplay("replay run " + std::to_string(i),
                        runText(r.runs[i]), runText(rr));
    }
}

void
printResult(const Verifier &v, const std::map<std::string, double> &values,
            const MetricDef *defs, size_t n)
{
    for (const std::string &f : v.failures())
        std::printf("FAILED: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                v.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(v.attempted()),
                static_cast<unsigned long long>(v.failed()));
    for (size_t i = 0; i < n; ++i) {
        const double x = values.at(defs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, std::isfinite(x) ? x : 0.0,
                    defs[i].unit);
    }
    std::printf("}}\n");
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics.
// ---------------------------------------------------------------------

int
runUntraced(const Workload &w, const Args &a, double setupS)
{
    Verifier v;
    std::vector<double> walls;
    std::vector<double> opWall;
    std::vector<double> opCpu;
    BodyResult first;
    std::string firstText;
    // Each repetition runs pinned to the next `workers` CPUs in turn
    // (pool threads inherit the mask): other tenants slow one core at a
    // time, so the fastest repetition comes from the least disturbed.
    const std::vector<int> cores = allowedCpus();
    const size_t width = static_cast<size_t>(w.workers);
    const bool rotate = cores.size() > width;
    const double start = nowSeconds();
    for (int rep = 0; rep < kMinReps || nowSeconds() - start < a.seconds;
         ++rep) {
        if (rotate) {
            std::vector<int> window;
            for (size_t k = 0; k < width; ++k)
                window.push_back(cores[(static_cast<size_t>(rep) + k) %
                                       cores.size()]);
            pinTo(window);
        }
        const double t0 = nowSeconds();
        BodyResult r = runBody(w);
        walls.push_back(nowSeconds() - t0);
        if (rep == 0) {
            opWall = r.opWall;
            opCpu = r.opCpu;
        }
        for (size_t i = 0; i < opWall.size(); ++i) {
            opWall[i] = std::min(opWall[i], r.opWall[i]);
            opCpu[i] = std::min(opCpu[i], r.opCpu[i]);
        }

        const std::string tag = "rep " + std::to_string(rep);
        const std::string text = verifyBody(r, v, tag);
        if (rep == 0) {
            first = std::move(r);
            firstText = text;
        } else {
            v.compareReplay(tag + " repeats rep 0", firstText, text);
        }
    }
    if (rotate)
        pinTo(cores);
    replayReference(w, first, v);

    // Each operation's fastest repetition, summed over the body's
    // operations: tenants sharing the host's cores slow stretches of
    // a few seconds, by up to 1.8x, and never speed one up, so the
    // minimum tracks the program and a median the neighbours. Taking it
    // per operation (the grid is one) lets each find its own quiet
    // stretch.
    std::map<std::string, double> m;
    m["setup_s"] = setupS;
    m["wall_s"] = std::accumulate(opWall.begin(), opWall.end(), 0.0);
    m["cpu_s"] = std::accumulate(opCpu.begin(), opCpu.end(), 0.0);
    m["peak_rss_mb"] = peakRssMb();

    std::printf("perfbench %s seed=%llu workers=%d reps=%zu\n",
                w.name.c_str(), static_cast<unsigned long long>(w.seed),
                w.workers, walls.size());
    for (const MetricDef &d : kEndToEnd)
        std::printf("  %-12s %12.6f %s\n", d.name, m.at(d.name), d.unit);
    std::printf("  wall_s per rep:");
    for (double x : walls)
        std::printf(" %.4f", x);
    std::printf("\n  result digest %016llx (information only)\n",
                static_cast<unsigned long long>(fnv1a(firstText)));
    std::printf("  verified %llu operations, %llu failed\n",
                static_cast<unsigned long long>(v.attempted()),
                static_cast<unsigned long long>(v.failed()));
    printResult(v, m, kEndToEnd, std::size(kEndToEnd));
    return 0;
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics.
// ---------------------------------------------------------------------

/** One single-node run driven through build + measure with spans. */
struct RunStats
{
    exp::RunResult result;
    uint64_t samples = 0;
    double buildS = 0.0;
    double measureS = 0.0;
    double serverTicks = 0.0;
};

RunStats
measured(SpanLog &log, const exp::RunConfig &cfg, const std::string &label)
{
    RunStats st;
    const int id = log.newScenario();
    Scoped scenario(&log, label, "exp", id);
    double t0 = nowSeconds();
    exp::Scenario s = [&] {
        Scoped sp(&log, "exp.buildScenario", "exp");
        return exp::buildScenario(cfg);
    }();
    st.buildS = nowSeconds() - t0;
    t0 = nowSeconds();
    {
        Scoped sp(&log, "exp.measureScenario", "sim");
        st.result = exp::measureScenario(s, cfg);
    }
    st.measureS = nowSeconds() - t0;
    if (s.manager)
        st.samples = s.manager->samples();
    if (s.server) {
        st.serverTicks =
            std::floor((cfg.warmup + cfg.measure) / cfg.serving.tick);
    }
    return st;
}

/** Sums of the simulator counters over a set of measured runs. */
struct Counters
{
    double ticks = 0, fast = 0, full = 0, periodic = 0;
    double demand = 0, advance = 0, fastTask = 0;
    double rHit = 0, rMiss = 0, mcHit = 0, mcMiss = 0, memFast = 0;
    double samples = 0, measureS = 0;
    double requests = 0, drops = 0, serverTicks = 0, churn = 0;

    void add(const RunStats &st)
    {
        const exp::RunResult &r = st.result;
        ticks += static_cast<double>(r.engineTicks);
        fast += static_cast<double>(r.engineFastTicks);
        full += static_cast<double>(r.engineFullTicks);
        periodic += static_cast<double>(r.periodicFires);
        demand += static_cast<double>(r.demandCalls);
        advance += static_cast<double>(r.advanceCalls);
        fastTask += static_cast<double>(r.fastTaskTicks);
        rHit += static_cast<double>(r.resolveCacheHits);
        rMiss += static_cast<double>(r.resolveCacheMisses);
        mcHit += static_cast<double>(r.mcCacheHits);
        mcMiss += static_cast<double>(r.mcCacheMisses);
        memFast += static_cast<double>(r.memFastTicks);
        samples += static_cast<double>(st.samples);
        measureS += st.measureS;
        requests += static_cast<double>(r.reqArrivals);
        drops += static_cast<double>(r.reqRejected + r.reqShed + r.reqExpired);
        serverTicks += st.serverTicks;
        churn += static_cast<double>(r.churnArrivals + r.churnFinishes +
                                     r.churnCrashes + r.churnRejected);
    }
};

/** The workload's configs the probes size themselves from, and the
 * representative subset the per-tick and per-sample probes rerun. */
struct ProbeSet
{
    std::vector<exp::RunConfig> all;
    std::vector<exp::RunConfig> ticks;
    exp::RunConfig managed;
};

ProbeSet
probeSet(const Workload &w)
{
    ProbeSet p;
    if (w.isGrid()) {
        p.all = gridRunConfigs(w.grid);
        // KP on each ML workload's first mix (12 configs per ML).
        for (size_t i = 3; i < p.all.size(); i += 12)
            p.ticks.push_back(p.all[i]);
        p.managed = p.all[7];  // first ML, second mix, KP
    } else if (w.isFleet()) {
        for (const cluster::ClusterConfig &c : w.cells) {
            if (c.placement != cluster::Placement::BinPack)
                continue;
            for (const exp::RunConfig &rc : signatureConfigs(c))
                p.all.push_back(rc);
        }
        // The KP cell's signatures: idle, widest Stitch, widest Stream.
        const std::vector<exp::RunConfig> kp =
            signatureConfigs(w.cells[2]);
        p.ticks = {kp[0], kp[6], kp[9]};
        p.managed = kp[5];
    } else {
        // The serial workloads' windows are long; the probes rerun the
        // first config over a shorter one (the cache-off and full-tick
        // reruns are up to ten times slower than the body).
        p.all = w.runs;
        exp::RunConfig first = w.runs[0];
        first.measure = std::min(first.measure, kProbeMeasure);
        p.ticks = {first};
        p.managed = first;
    }
    return p;
}

int
runTraced(const Workload &w, const Args &a, SpanLog &log, double prewarmS)
{
    Verifier v;
    std::map<std::string, double> m;
    for (const MetricDef &d : kPerLayer)
        m[d.name] = 0.0;
    m["exp.prewarm_s"] = prewarmS;

    // Untraced body: the base for the overhead and efficiency ratios.
    double t0 = nowSeconds();
    const BodyResult base = runBody(w);
    const double untracedWall = nowSeconds() - t0;
    verifyBody(base, v, "untraced");

    // Traced body: the same calls, with a span around each.
    Counters ctr;
    std::vector<double> builds;
    std::vector<double> jobs;
    const double tracedStart = nowSeconds();
    if (w.isGrid()) {
        const std::vector<exp::Mix> mixes = exp::evaluationMixes();
        std::vector<exp::MixResult> out(mixes.size());
        exp::runJobs(static_cast<int>(mixes.size()), w.workers, [&](int i) {
            const size_t k = static_cast<size_t>(i);
            Scoped sp(&log, "exp.runMix", "exp", log.newScenario());
            out[k] = exp::runMix(mixes[k], w.grid);
        });
        for (size_t i = 0; i < out.size(); ++i) {
            v.compareReplay("traced mix " + std::to_string(i),
                            mixText(base.mixes[i]), mixText(out[i]));
        }
    } else if (w.isFleet()) {
        for (size_t i = 0; i < w.cells.size(); ++i) {
            const double c0 = nowSeconds();
            cluster::ClusterResult cr = [&] {
                Scoped sp(&log, "cluster.simulateCluster", "cluster",
                          log.newScenario());
                return cluster::simulateCluster(w.cells[i]);
            }();
            m["cluster.simulate_s"] += nowSeconds() - c0;
            v.compareReplay("traced cell " + std::to_string(i),
                            base.clusters[i].canonicalText(),
                            cr.canonicalText());
        }
    } else {
        for (size_t i = 0; i < w.runs.size(); ++i) {
            const RunStats st = measured(log, w.runs[i], "exp.scenario");
            ctr.add(st);
            builds.push_back(st.buildS * 1e3);
            jobs.push_back(st.buildS + st.measureS);
            v.compareReplay("traced run " + std::to_string(i),
                            runText(base.runs[i]), runText(st.result));
        }
    }
    const double tracedWall = nowSeconds() - tracedStart;
    const double covered =
        topLevelCoverage(log.spans(), tracedStart) / tracedWall;
    m["trace.overhead_frac"] = tracedWall / untracedWall - 1.0;

    // Serial attribution pass: the pool's jobs one at a time.
    {
        Scoped attr(&log, "attr.serial", "bench");
        if (w.isGrid()) {
            const std::vector<exp::RunConfig> cfgs = gridRunConfigs(w.grid);
            for (size_t mix = 0; mix < base.mixes.size(); ++mix) {
                const double j0 = nowSeconds();
                exp::RunResult runs[4];
                {
                    Scoped job(&log, "pool.job", "exp", log.newScenario());
                    for (size_t k = 0; k < 4; ++k) {
                        const RunStats st =
                            measured(log, cfgs[mix * 4 + k], "exp.scenario");
                        ctr.add(st);
                        builds.push_back(st.buildS * 1e3);
                        runs[k] = st.result;
                    }
                }
                jobs.push_back(nowSeconds() - j0);
                const exp::MixResult &orig = base.mixes[mix];
                v.compareReplay("serial mix " + std::to_string(mix),
                                mixText(orig),
                                mixText(mixFromRuns(orig, runs)));
            }
        } else if (w.isFleet()) {
            for (size_t i = 0; i < w.cells.size(); ++i) {
                cluster::ClusterConfig c = w.cells[i];
                c.jobs = 1;
                const double j0 = nowSeconds();
                cluster::ClusterResult cr = [&] {
                    Scoped job(&log, "pool.job", "cluster", log.newScenario());
                    return cluster::simulateCluster(c);
                }();
                jobs.push_back(nowSeconds() - j0);
                v.compareReplay("serial cell " + std::to_string(i),
                                base.clusters[i].canonicalText(),
                                cr.canonicalText());
            }
        }
    }
    m["pool.jobs"] = static_cast<double>(jobs.size());
    double work = 0.0;
    for (double j : jobs)
        work += j;
    m["pool.work_s"] = work;
    m["pool.critical_path_s"] =
        jobs.empty() ? 0.0 : *std::max_element(jobs.begin(), jobs.end());
    m["pool.efficiency"] = ratio(work, w.workers * untracedWall);

    const ProbeSet ps = probeSet(w);

    // Cluster: representative signature evaluations and the per-epoch
    // overhead the evaluations do not explain.
    if (w.isFleet()) {
        Scoped attr(&log, "attr.signatures", "bench");
        std::vector<double> evals;
        for (const exp::RunConfig &rc : ps.all) {
            const RunStats st = measured(log, rc, "cluster.evaluate");
            ctr.add(st);
            builds.push_back(st.buildS * 1e3);
            evals.push_back((st.buildS + st.measureS) * 1e3);
        }
        double evaluations = 0.0;
        double nodeHours = 0.0;
        for (const cluster::ClusterResult &cr : base.clusters) {
            evaluations += static_cast<double>(cr.evaluations);
            nodeHours += static_cast<double>(cr.nodeHours);
        }
        m["cluster.evaluations"] = evaluations;
        m["cluster.memo_hit_frac"] = 1.0 - ratio(evaluations, nodeHours);
        m["cluster.eval_ms"] = median(evals);
        m["cluster.overhead_frac"] =
            1.0 - ratio(evaluations * m["cluster.eval_ms"] / 1e3, work);
        m["cluster.place_ns"] = placeNs(w.cells.front().nodes,
                                        w.cells.front().capacityThreads);
    }

    // Unit costs at the workload's own sizes.
    {
        Scoped attr(&log, "attr.probes", "bench");
        for (int rep = 0; rep < 3; ++rep) {
            for (const exp::RunConfig &rc : ps.all) {
                const double b0 = nowSeconds();
                Scoped sp(&log, "exp.buildScenario", "exp");
                exp::Scenario s = exp::buildScenario(rc);
                builds.push_back((nowSeconds() - b0) * 1e3);
            }
        }
        const NodeSize size = nodeSize(ps.all);
        m["mem.resolve_ns"] = resolveNs(ps.managed, size.flows, false);
        m["mem.resolve_cached_ns"] = resolveNs(ps.managed, size.flows, true);
        m["cpu.llc_apportion_ns"] = apportionNs(ps.managed, size.groups, false);
        m["cpu.llc_cache_hit_ns"] = apportionNs(ps.managed, size.groups, true);
        const RefHitCost ref = refHitCost(ps.managed.ml, poolWorkers());
        m["exp.ref_hit_us_1"] = ref.oneUs;
        m["exp.ref_hit_us_n"] = ref.manyUs;
        const TickCost tc = tickCost(ps.ticks);
        m["sim.full_tick_ns"] = tc.fullNs;
        m["sim.fast_tick_ns"] = tc.fastNs;
        m["kelp.sample_us"] = sampleUs(ps.managed);
        m["mem.cache_gain"] = cacheGain(ps.managed);
        std::printf("  probe sizes: %d flows, %d LLC groups\n", size.flows,
                    size.groups);
    }

    m["exp.build_ms_p50"] = percentile(builds, 50.0);
    m["exp.build_ms_p90"] = percentile(builds, 90.0);
    m["exp.measure_s"] = ctr.measureS;
    m["exp.churn_events"] = ctr.churn;
    m["sim.ticks"] = ctr.ticks;
    m["sim.ticks_per_s"] = ratio(ctr.ticks, ctr.measureS);
    m["sim.fast_frac"] = ratio(ctr.fast, ctr.ticks);
    m["sim.ticks_per_periodic"] = ratio(ctr.ticks, ctr.periodic);
    m["node.demand_calls"] = ctr.demand;
    m["node.advance_calls"] = ctr.advance;
    m["node.fast_task_ticks"] = ctr.fastTask;
    m["mem.resolve_hit_frac"] = ratio(ctr.rHit, ctr.rHit + ctr.rMiss);
    m["mem.mc_hit_frac"] = ratio(ctr.mcHit, ctr.mcHit + ctr.mcMiss);
    m["mem.fast_ticks"] = ctr.memFast;
    m["kelp.samples"] = ctr.samples;
    m["kelp.full_ticks_per_sample"] = ratio(ctr.full, ctr.samples);
    m["serve.requests"] = ctr.requests;
    m["serve.drop_frac"] = ratio(ctr.drops, ctr.requests);
    m["serve.periodic_frac"] = ratio(ctr.serverTicks, ctr.periodic);

    // Report.
    const std::vector<Span> all = log.spans();
    std::printf("perfbench %s seed=%llu workers=%d (traced)\n",
                w.name.c_str(), static_cast<unsigned long long>(w.seed),
                w.workers);
    std::printf("  traced body %.4f s, untraced %.4f s; top-level spans "
                "cover %.1f%% of the traced body\n",
                tracedWall, untracedWall, 100.0 * covered);
    std::printf("  self time by layer (span time minus child spans):\n");
    for (const auto &[layer, s] : selfTimes(all))
        std::printf("    %-8s %10.4f s\n", layer.c_str(), s);
    for (const MetricDef &d : kPerLayer)
        std::printf("  %-28s %14.6g %s\n", d.name, m.at(d.name), d.unit);

    if (!a.spansPath.empty() && !log.writeJson(a.spansPath)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.spansPath.c_str());
        return 1;
    }
    printResult(v, m, kPerLayer, std::size(kPerLayer));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const double processStart = nowSeconds();
    Args a;
    if (!parseArgs(argc, argv, a))
        return 2;
    if (a.listMetrics) {
        for (const MetricDef &d : kEndToEnd)
            std::printf("end_to_end %s %s\n", d.name, d.unit);
        for (const MetricDef &d : kPerLayer)
            std::printf("per_layer %s %s\n", d.name, d.unit);
        return 0;
    }

    // Set-up: generate the inputs and warm the standalone-reference
    // memo the body reads.
    SpanLog log;
    const Workload w = makeWorkload(a.workload, a.seed, poolWorkers());
    double prewarmS = 0.0;
    {
        Scoped setup(a.trace ? &log : nullptr, "setup", "bench");
        Scoped sp(a.trace ? &log : nullptr, "exp.prewarmReferences", "exp");
        const double t0 = nowSeconds();
        exp::prewarmReferences(referenceConfigs(w));
        prewarmS = nowSeconds() - t0;
    }
    const double setupS = nowSeconds() - processStart;
    if (a.setupOnly) {
        std::printf("{\"setup_s\": %.9f}\n", setupS);
        return 0;
    }
    return a.trace ? runTraced(w, a, log, prewarmS)
                   : runUntraced(w, a, setupS);
}
