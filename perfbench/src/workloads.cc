#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "exp/sweep_runner.hh"
#include "fuzz/oracle.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "spans.hh"
#include "verify.hh"

namespace perfbench {

using namespace kelp;

namespace {

/** Fixed input sizes. Each body runs for a few seconds of host time
 * on a 4-core x86 container, so a 10 s run repeats it several times. */
constexpr double kGridWarmup = 1.0;
constexpr double kGridMeasure = 2.0;
constexpr int kGridWorkers = 2;

/** bench_fleet's cluster size, with short signature windows so the
 * body stays near a second. The node's batch capacity is half of
 * bench_fleet's 12 threads: that leaves 14 distinct node signatures
 * (idle, cpuml x1-6, stitch x1, stream x1-6), which 24 nodes x 12
 * epochs nearly always exhaust, so the number evaluated -- the body's
 * cost -- is 76-79 over the six cells on seeds 1-10, where 12 threads
 * (28 signatures) gave 125-142. */
constexpr int kFleetNodes = 24;
constexpr int kFleetEpochs = 12;
constexpr int kFleetCapacityThreads = 6;
constexpr double kFleetEvalWarmup = 0.5;
constexpr double kFleetEvalMeasure = 0.5;
constexpr double kFleetEvalSamplePeriod = 0.5;

constexpr int kServeRuns = 6;
constexpr double kServeWarmup = 10.0;
constexpr double kServeMeasure = 100.0;

constexpr int kChurnRuns = 6;
constexpr double kChurnWarmup = 4.0;
constexpr double kChurnMeasure = 12.0;

/*
 * The seed moves only random streams and small timing jitters. Which
 * configurations run, their sizes and their rates are fixed per run
 * index, so the host cost of a serve or churn body is nearly the same
 * for every seed. A fleet body's cost follows how many distinct node
 * signatures its arrival streams produce, which varies a little.
 */

void
makeFleet(Workload &w, sim::Rng &rng)
{
    // The bench_fleet cells: {bin-pack, interference-aware} x
    // {BL, KP-SD, KP}, each on its own seeded arrival stream.
    const cluster::Placement placements[] = {
        cluster::Placement::BinPack,
        cluster::Placement::InterferenceAware};
    const exp::ConfigKind configs[] = {exp::ConfigKind::BL,
                                       exp::ConfigKind::KPSD,
                                       exp::ConfigKind::KP};
    for (cluster::Placement p : placements) {
        for (exp::ConfigKind c : configs) {
            cluster::ClusterConfig cfg;
            cfg.nodes = kFleetNodes;
            cfg.epochs = kFleetEpochs;
            cfg.capacityThreads = kFleetCapacityThreads;
            cfg.evalWarmup = kFleetEvalWarmup;
            cfg.evalMeasure = kFleetEvalMeasure;
            cfg.evalSamplePeriod = kFleetEvalSamplePeriod;
            cfg.placement = p;
            cfg.config = c;
            cfg.seed = rng.next();
            cfg.jobs = w.workers;
            w.cells.push_back(cfg);
        }
    }
}

void
makeServe(Workload &w, sim::Rng &rng)
{
    // Open-loop traffic at low rates: the node idles between requests
    // and the 5 ms serving periodic bounds the fast-forward chunks.
    // Even runs are diurnal, odd runs burst.
    const double qps[kServeRuns] = {4.0, 6.0, 8.0, 10.0, 5.0, 12.0};
    for (int i = 0; i < kServeRuns; ++i) {
        exp::RunConfig cfg;
        cfg.ml = wl::MlWorkload::Rnn1;
        cfg.config = exp::ConfigKind::KP;
        cfg.cpu = i % 2 ? wl::CpuWorkload::Stitch : wl::CpuWorkload::Cpuml;
        cfg.cpuInstances = 1 + (i / 2) % 2;
        cfg.warmup = kServeWarmup;
        cfg.measure = kServeMeasure;
        cfg.seed = rng.next();
        cfg.serving.enabled = true;
        serve::TrafficSpec &t = cfg.serving.traffic;
        t.qps = qps[i];
        if (i % 2 == 0) {
            t.shape = serve::TrafficSpec::Shape::Diurnal;
            t.diurnalAmp = 0.5;
            t.diurnalPeriod = rng.uniform(18.0, 22.0);
        } else {
            t.shape = serve::TrafficSpec::Shape::Burst;
            t.spikeFactor = 4.0;
            t.spikeStart = rng.uniform(1.0, 3.0);
            t.spikePeriod = 10.0;
            t.spikeLen = 2.0;
        }
        w.runs.push_back(cfg);
    }
}

void
makeChurn(Workload &w, sim::Rng &rng)
{
    struct Mix
    {
        wl::MlWorkload ml;
        wl::CpuWorkload cpu;
        int instances;
    };
    const Mix mixes[kChurnRuns] = {
        {wl::MlWorkload::Cnn1, wl::CpuWorkload::Stitch, 3},
        {wl::MlWorkload::Cnn2, wl::CpuWorkload::Stream, 2},
        {wl::MlWorkload::Cnn3, wl::CpuWorkload::DramAggressor, 2},
        {wl::MlWorkload::Cnn1, wl::CpuWorkload::DramAggressor, 1},
        {wl::MlWorkload::Cnn2, wl::CpuWorkload::Stitch, 2},
        {wl::MlWorkload::Cnn3, wl::CpuWorkload::Stream, 1},
    };
    const double span = kChurnWarmup + kChurnMeasure;
    // A time in [lo, hi) of the run, on a millisecond grid plus half a
    // tick, so a kill never lands on a periodic boundary.
    auto midTick = [&](double lo, double hi) {
        return std::floor(rng.uniform(lo, hi) * span * 1e3) / 1e3 + 0.00005;
    };
    for (const Mix &mix : mixes) {
        exp::RunConfig cfg;
        cfg.ml = mix.ml;
        cfg.config = exp::ConfigKind::KP;
        cfg.cpu = mix.cpu;
        cfg.cpuInstances = mix.instances;
        cfg.warmup = kChurnWarmup;
        cfg.measure = kChurnMeasure;
        cfg.samplePeriod = 1.0;
        cfg.seed = rng.next();
        cfg.churn.enabled = true;
        cfg.churn.arrivalRate = 0.5;
        cfg.churn.lifetimeScale = 0.1;
        cfg.churn.seed = rng.next();
        cfg.slo.enabled = true;
        cfg.faults.dropProb = 0.05;
        cfg.faults.knobFailProb = 0.1;
        cfg.faultSeed = rng.next();
        cfg.killAt = midTick(0.3, 0.5);
        cfg.kills.push_back(midTick(0.6, 0.9));
        w.runs.push_back(cfg);
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"grid", "fleet",
                                                   "serve", "churn"};
    return names;
}

bool
knownWorkload(const std::string &name)
{
    const auto &n = workloadNames();
    return std::find(n.begin(), n.end(), name) != n.end();
}

Workload
makeWorkload(const std::string &name, uint64_t seed, int workers)
{
    KELP_ASSERT(knownWorkload(name), "unknown workload ", name);
    Workload w;
    w.name = name;
    w.seed = seed;
    // Only the grid fans out, on two workers. The fleet's per-epoch
    // fan-outs hold a few signature misses each: at 4 jobs its body ran
    // only 1.3x faster than serially, and its time varied 25% from run
    // to run on a shared 4-vCPU host, against a few percent serially.
    // The grid at 4 jobs ran 2x faster than at 2 but varied 25% from
    // run to run there, against about 5% at 2.
    w.workers = name == "grid" ? std::min(kGridWorkers, workers) : 1;
    // The name salts the stream, so one seed gives unrelated inputs on
    // different workloads.
    sim::Rng rng = sim::Rng::derive(seed, fnv1a(name));
    if (name == "grid") {
        w.grid.verbose = false;
        w.grid.jobs = w.workers;
        w.grid.warmup = kGridWarmup;
        w.grid.measure = kGridMeasure;
    } else if (name == "fleet") {
        makeFleet(w, rng);
    } else if (name == "serve") {
        makeServe(w, rng);
    } else {
        makeChurn(w, rng);
    }
    return w;
}

namespace {

std::string
configText(const exp::RunConfig &c)
{
    std::ostringstream os;
    os << "ml=" << wl::mlName(c.ml) << " config=" << exp::configName(c.config)
       << " cpu=" << (c.cpu ? wl::cpuName(*c.cpu) : "none")
       << " instances=" << c.cpuInstances
       << " threads=" << c.cpuThreadsOverride << " warmup=" << c.warmup
       << " measure=" << c.measure << " sample=" << c.samplePeriod
       << " seed=" << c.seed << " faults=" << c.faults.toString()
       << " faultSeed=" << c.faultSeed << " killAt=" << c.killAt
       << " kills=";
    for (double k : c.kills)
        os << k << ";";
    os << " churn=" << c.churn.enabled << "/" << c.churn.arrivalRate << "/"
       << c.churn.lifetimeScale << "/" << c.churn.seed
       << " slo=" << c.slo.enabled << " serving=" << c.serving.enabled;
    if (c.serving.enabled)
        os << "/" << c.serving.traffic.toString();
    return os.str();
}

} // namespace

std::string
describe(const Workload &w)
{
    std::ostringstream os;
    os.precision(17);
    os << "workload=" << w.name << " workers=" << w.workers << "\n";
    if (w.isGrid()) {
        os << "grid jobs=" << w.grid.jobs << " warmup=" << w.grid.warmup
           << " measure=" << w.grid.measure << "\n";
    }
    for (const cluster::ClusterConfig &c : w.cells) {
        os << "cell placement=" << cluster::placementName(c.placement)
           << " config=" << exp::configName(c.config)
           << " nodes=" << c.nodes << " epochs=" << c.epochs
           << " capacity=" << c.capacityThreads
           << " arrivals=" << c.arrivalsPerEpoch << " seed=" << c.seed
           << " jobs=" << c.jobs << "\n";
    }
    for (const exp::RunConfig &c : w.runs)
        os << "run " << configText(c) << "\n";
    return os.str();
}

std::vector<exp::RunConfig>
gridRunConfigs(const exp::GridOptions &opt)
{
    const exp::ConfigKind kinds[] = {exp::ConfigKind::BL, exp::ConfigKind::CT,
                                     exp::ConfigKind::KPSD,
                                     exp::ConfigKind::KP};
    std::vector<exp::RunConfig> out;
    for (const exp::Mix &mix : exp::evaluationMixes()) {
        for (exp::ConfigKind kind : kinds) {
            exp::RunConfig cfg;
            cfg.ml = mix.ml;
            cfg.cpu = mix.cpu;
            cfg.cpuInstances = mix.cpuInstances;
            cfg.cpuThreadsOverride = mix.cpuThreadsOverride;
            cfg.config = kind;
            if (opt.warmup >= 0.0)
                cfg.warmup = opt.warmup;
            if (opt.measure >= 0.0)
                cfg.measure = opt.measure;
            out.push_back(cfg);
        }
    }
    return out;
}

std::vector<exp::RunConfig>
signatureConfigs(const cluster::ClusterConfig &cfg)
{
    exp::RunConfig base;
    base.ml = cfg.ml;
    base.config = cfg.config;
    base.warmup = cfg.evalWarmup;
    base.measure = cfg.evalMeasure;
    base.samplePeriod = cfg.evalSamplePeriod;
    base.seed = cfg.seed;
    std::vector<exp::RunConfig> out = {base};
    const wl::CpuWorkload kinds[] = {wl::CpuWorkload::Cpuml,
                                     wl::CpuWorkload::Stitch,
                                     wl::CpuWorkload::Stream};
    for (wl::CpuWorkload kind : kinds) {
        for (int n = 1; n <= cfg.maxJobInstances; ++n) {
            exp::RunConfig rc = base;
            rc.cpu = kind;
            rc.cpuInstances = n;
            out.push_back(rc);
        }
    }
    return out;
}

std::vector<exp::RunConfig>
referenceConfigs(const Workload &w)
{
    if (w.isGrid())
        return gridRunConfigs(w.grid);
    std::vector<exp::RunConfig> out = w.runs;
    for (const cluster::ClusterConfig &c : w.cells)
        out.push_back(signatureConfigs(c).front());
    return out;
}

BodyResult
runBody(const Workload &w)
{
    BodyResult out;
    double wall0 = 0.0;
    double cpu0 = 0.0;
    auto start = [&] {
        cpu0 = cpuSeconds();
        wall0 = nowSeconds();
    };
    auto stop = [&] {
        out.opWall.push_back(nowSeconds() - wall0);
        out.opCpu.push_back(cpuSeconds() - cpu0);
    };
    if (w.isGrid()) {
        const uint64_t before = sim::contractViolations();
        start();
        out.mixes = exp::runEvaluationGrid(w.grid);
        stop();
        const uint64_t delta = sim::contractViolations() - before;
        out.contractDeltas.assign(out.mixes.size(), delta);
        return out;
    }
    for (const cluster::ClusterConfig &c : w.cells) {
        // Cells run one after another, so the process-wide counter
        // attributes violations on pool workers to this cell exactly.
        const uint64_t before = sim::contractViolations();
        start();
        out.clusters.push_back(cluster::simulateCluster(c));
        stop();
        out.contractDeltas.push_back(sim::contractViolations() - before);
    }
    for (const exp::RunConfig &c : w.runs) {
        const uint64_t before = sim::contractViolationsHere();
        start();
        out.runs.push_back(exp::runScenario(c));
        stop();
        out.contractDeltas.push_back(sim::contractViolationsHere() - before);
    }
    return out;
}

} // namespace perfbench
