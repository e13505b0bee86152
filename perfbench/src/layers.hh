/**
 * @file
 * Unit-cost probes of single layers, measured from outside through
 * their public functions, at the sizes a workload's own configs use.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <vector>

#include "exp/scenario.hh"

namespace perfbench {

/** Flow and LLC group counts of the largest node a workload builds. */
struct NodeSize
{
    int flows = 1;
    int groups = 1;
};

/** Largest task count (one flow per task) and group count over the
 * scenarios built from `cfgs`. */
NodeSize nodeSize(const std::vector<kelp::exp::RunConfig> &cfgs);

/** Host ns per MemSystem tick (beginTick + `flows` addFlow + resolve)
 * on `cfg`'s platform, with the resolve cache off or on (every tick
 * repeats the last, so "on" measures the cache-hit path). */
double resolveNs(const kelp::exp::RunConfig &cfg, int flows, bool cached);

/** Host ns per Llc::apportion over `groups` requests on `cfg`'s
 * platform, or per ApportionCache::get hit when `cached`. */
double apportionNs(const kelp::exp::RunConfig &cfg, int groups,
                   bool cached);

/** Host ns per cluster::placeJob over a `nodes`-node fleet view of
 * `capacity` batch threads per node. */
double placeNs(int nodes, int capacity);

/** Host µs per standaloneReference memo hit, from one caller and from
 * `workers` concurrent callers on the experiment pool. */
struct RefHitCost
{
    double oneUs = 0.0;
    double manyUs = 0.0;
};
RefHitCost refHitCost(kelp::wl::MlWorkload ml, int workers);

/** Controller-sample cost: host µs of a one-tick Engine::run chunk
 * containing a RuntimeManager sample minus one without. */
double sampleUs(const kelp::exp::RunConfig &cfg);

/** Per-tick host costs from rerunning configs with and without the
 * event-driven engine. */
struct TickCost
{
    /** Wall per tick with eventDriven=false (all ticks full). */
    double fullNs = 0.0;

    /** Event-driven wall minus its full ticks at fullNs, per fast
     * tick (0 when nothing fast-forwarded). */
    double fastNs = 0.0;
};
TickCost tickCost(const std::vector<kelp::exp::RunConfig> &cfgs);

/** Wall of one run with the MemSystem resolve cache disabled over the
 * wall with it enabled (same scenario; min of two runs each). */
double cacheGain(const kelp::exp::RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
