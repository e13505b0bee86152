#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "cluster/scheduler.hh"
#include "cpu/llc.hh"
#include "exp/pool.hh"
#include "mem/mem_system.hh"
#include "node/platform.hh"
#include "sim/log.hh"
#include "spans.hh"

namespace perfbench {

using namespace kelp;

namespace {

/** Keeps probe results observable so the loops are not elided. */
std::atomic<double> g_sink{0.0};

/**
 * Host ns per call of `fn`: calibrate a batch to about 5 ms, then
 * report the median of seven batches.
 */
double
timePerCall(const std::function<void()> &fn)
{
    uint64_t iters = 16;
    for (;;) {
        const double t0 = nowSeconds();
        for (uint64_t i = 0; i < iters; ++i)
            fn();
        if (nowSeconds() - t0 > 0.005 || iters > (1ull << 30))
            break;
        iters *= 2;
    }
    std::vector<double> batches;
    for (int b = 0; b < 7; ++b) {
        const double t0 = nowSeconds();
        for (uint64_t i = 0; i < iters; ++i)
            fn();
        batches.push_back((nowSeconds() - t0) * 1e9 /
                          static_cast<double>(iters));
    }
    return median(batches);
}

node::PlatformSpec
platformOf(const exp::RunConfig &cfg)
{
    return node::platformFor(wl::mlDesc(cfg.ml).platform);
}

/** KP and KP-SD run with NUMA subdomains on (two domains per socket),
 * the other configurations with them off. */
bool
usesSubdomains(const exp::RunConfig &cfg)
{
    return cfg.config == exp::ConfigKind::KP ||
           cfg.config == exp::ConfigKind::KPSD;
}

} // namespace

NodeSize
nodeSize(const std::vector<exp::RunConfig> &cfgs)
{
    NodeSize out;
    for (const exp::RunConfig &cfg : cfgs) {
        exp::Scenario s = exp::buildScenario(cfg);
        out.flows = std::max(out.flows,
                             static_cast<int>(s.node->tasks().size()));
        out.groups = std::max(out.groups, s.node->groups().size());
    }
    return out;
}

double
resolveNs(const exp::RunConfig &cfg, int flows, bool cached)
{
    mem::MemSystem mem(platformOf(cfg).mem);
    mem.setSncEnabled(usesSubdomains(cfg));
    mem.setResolveCacheEnabled(cached);
    std::vector<mem::Route> routes;
    for (int i = 0; i < flows; ++i) {
        mem::Route r;
        r.reqSub = i % 2;
        r.homeSub = i % 2;
        routes.push_back(r);
    }
    const double dt = cfg.tick;
    return timePerCall([&] {
        mem.beginTick();
        for (int i = 0; i < flows; ++i)
            mem.addFlow(i, routes[static_cast<size_t>(i)], 2.0 + i, i == 0);
        mem.resolve(dt);
        g_sink.store(mem.saturation(0), std::memory_order_relaxed);
    });
}

double
apportionNs(const exp::RunConfig &cfg, int groups, bool cached)
{
    const cpu::TopologyConfig &topo = platformOf(cfg).topo;
    const cpu::Llc llc(topo.llcMbPerSocket, topo.llcWays);
    std::vector<cpu::LlcRequest> reqs;
    for (int g = 0; g < groups; ++g) {
        cpu::LlcRequest r;
        r.group = g;
        r.footprintMb = 8.0 + 12.0 * g;
        r.weight = 1.0 + g;
        // The ML group holds dedicated CAT ways; the rest share.
        r.dedicatedWays = g == 0 ? 2 : 0;
        r.hitMax = 0.9;
        reqs.push_back(r);
    }
    cpu::ApportionCache cache;
    return timePerCall([&] {
        const auto &shares = cached ? cache.get(llc, reqs)
                                    : llc.apportion(reqs);
        g_sink.store(shares.at(0).hitRate, std::memory_order_relaxed);
    });
}

double
placeNs(int nodes, int capacity)
{
    std::vector<cluster::NodeView> views;
    for (int i = 0; i < nodes; ++i) {
        cluster::NodeView v;
        v.index = i;
        v.capacityThreads = capacity;
        v.usedThreads = (i * 5) % capacity;
        v.hasKind = v.usedThreads > 0;
        v.kind = static_cast<wl::CpuWorkload>(i % 3);
        v.saturation = 0.05 * (i % 10);
        v.perfRatio = 1.0 - 0.01 * (i % 7);
        views.push_back(v);
    }
    cluster::PolicyConfig pc;
    cluster::PlacementRequest req;
    req.kind = wl::CpuWorkload::Stitch;
    req.threads = 4;
    req.bwEstimate = 6.0;
    return timePerCall([&] {
        const int a = cluster::placeJob(cluster::Placement::BinPack, pc,
                                        views, req);
        const int b = cluster::placeJob(
            cluster::Placement::InterferenceAware, pc, views, req);
        g_sink.store(a + b, std::memory_order_relaxed);
    }) / 2.0;
}

RefHitCost
refHitCost(wl::MlWorkload ml, int workers)
{
    constexpr int kCalls = 20000;
    auto calls = [ml] {
        double acc = 0.0;
        for (int i = 0; i < kCalls; ++i)
            acc += exp::standaloneReference(ml).mlPerf;
        g_sink.store(acc, std::memory_order_relaxed);
    };
    RefHitCost out;
    exp::standaloneReference(ml);
    std::vector<double> one;
    for (int r = 0; r < 3; ++r) {
        const double t0 = nowSeconds();
        calls();
        one.push_back((nowSeconds() - t0) * 1e6 / kCalls);
    }
    out.oneUs = median(one);
    // `workers` callers at once: per-call latency each caller sees.
    std::vector<double> many;
    for (int r = 0; r < 3; ++r) {
        const double t0 = nowSeconds();
        exp::runJobs(workers, workers, [&](int) { calls(); });
        many.push_back((nowSeconds() - t0) * 1e6 / kCalls);
    }
    out.manyUs = median(many);
    return out;
}

double
sampleUs(const exp::RunConfig &cfg)
{
    constexpr int kSamples = 8;
    exp::Scenario s = exp::buildScenario(cfg);
    KELP_ASSERT(s.manager, "sample probe needs a managed config");
    sim::Engine &eng = *s.engine;
    const double dt = cfg.tick;
    const double period = s.manager->period();
    std::vector<double> with;
    std::vector<double> without;
    auto chunk = [&] {
        const uint64_t before = s.manager->samples();
        const double t0 = nowSeconds();
        eng.run(dt);
        const double us = (nowSeconds() - t0) * 1e6;
        (s.manager->samples() > before ? with : without).push_back(us);
    };
    for (int k = 1; k <= kSamples; ++k) {
        // Two chunks well before the sample, then the two around its
        // boundary: whichever of those holds the sample is sorted by
        // the counter, not by assuming which side of it fires.
        const double at = k * period;
        eng.runUntil(at - 4.0 * dt);
        chunk();
        chunk();
        eng.runUntil(at - dt);
        chunk();
        chunk();
    }
    if (with.empty() || without.empty())
        return 0.0;
    return std::max(0.0, median(with) - median(without));
}

TickCost
tickCost(const std::vector<exp::RunConfig> &cfgs)
{
    double fullWall = 0.0;
    double fullTicks = 0.0;
    double edWall = 0.0;
    double edFull = 0.0;
    double edFast = 0.0;
    for (exp::RunConfig cfg : cfgs) {
        double t0 = nowSeconds();
        const exp::RunResult ed = exp::runScenario(cfg);
        edWall += nowSeconds() - t0;
        edFull += static_cast<double>(ed.engineFullTicks);
        edFast += static_cast<double>(ed.engineFastTicks);
        cfg.eventDriven = false;
        t0 = nowSeconds();
        const exp::RunResult full = exp::runScenario(cfg);
        fullWall += nowSeconds() - t0;
        fullTicks += static_cast<double>(full.engineTicks);
    }
    TickCost out;
    if (fullTicks > 0.0)
        out.fullNs = fullWall * 1e9 / fullTicks;
    if (edFast > 0.0)
        out.fastNs =
            std::max(0.0, (edWall * 1e9 - edFull * out.fullNs) / edFast);
    return out;
}

double
cacheGain(const exp::RunConfig &cfg)
{
    double on = 1e300;
    double off = 1e300;
    for (int r = 0; r < 2; ++r) {
        for (bool enabled : {true, false}) {
            exp::Scenario s = exp::buildScenario(cfg);
            s.node->memSystem().setResolveCacheEnabled(enabled);
            const double t0 = nowSeconds();
            exp::measureScenario(s, cfg);
            const double wall = nowSeconds() - t0;
            double &best = enabled ? on : off;
            best = std::min(best, wall);
        }
    }
    return off / on;
}

} // namespace perfbench
