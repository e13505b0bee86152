#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "exp/report.hh"
#include "exp/sweep_runner.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "trace/decision_log.hh"

namespace kelp {
namespace cluster {

namespace {

/** Salts decorrelating the simulator's derived RNG stream families
 * (arrivals per epoch vs heterogeneity jitter per node-hour). */
constexpr uint64_t kArrivalSalt = 0x636c7573746572ull; // "cluster"
constexpr uint64_t kJitterSalt = 0x6a69747465720aull;  // "jitter"

/** Per-node-hour heterogeneity: multiplicative perf jitter stddev
 * and its clamp range (machines differ a little; the fleet-level
 * distributions should not be a single repeated value). */
constexpr double kJitterStddev = 0.015;
constexpr double kJitterLo = 0.94;
constexpr double kJitterHi = 1.06;

/** Seconds per epoch for DecisionLog timestamps (one node-hour). */
constexpr double kEpochSeconds = 3600.0;

/** Poisson draw via Knuth's product method -- a pure function of the
 * passed stream, cheap at the small means the simulator uses. */
uint64_t
poisson(sim::Rng &rng, double mean)
{
    KELP_EXPECTS(mean >= 0.0 && mean <= 64.0,
                 "cluster arrival rate out of the supported range");
    double limit = std::exp(-mean);
    uint64_t k = 0;
    double product = rng.uniform();
    while (product > limit) {
        ++k;
        product *= rng.uniform();
    }
    return k;
}

/** The batch-job population arriving at the cluster: the same WSC
 * antagonist kinds the single-node experiments colocate, weighted
 * toward the benign end (most batch work is compute-bound; the
 * bandwidth-hungry stitchers are the minority that makes placement
 * interesting). Weights must sum to 1. */
struct Archetype
{
    wl::CpuWorkload kind;
    double weight;
};

constexpr Archetype kArchetypes[] = {
    {wl::CpuWorkload::Cpuml, 0.45},
    {wl::CpuWorkload::Stitch, 0.35},
    {wl::CpuWorkload::Stream, 0.20},
};

wl::CpuWorkload
pickKind(double pick)
{
    constexpr size_t n = sizeof(kArchetypes) / sizeof(kArchetypes[0]);
    double weight_sum = 0.0;
    for (const Archetype &a : kArchetypes)
        weight_sum += a.weight;
    KELP_ASSERT(std::abs(weight_sum - 1.0) < 1e-9,
                "cluster archetype weights must sum to 1");
    // Explicit last-archetype fallback: a pick of exactly 1.0 (or
    // accumulated rounding) must land somewhere.
    double acc = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
        acc += kArchetypes[i].weight;
        if (pick <= acc)
            return kArchetypes[i].kind;
    }
    return kArchetypes[n - 1].kind;
}

/** One node's colocation signature: the batch kind it hosts (-1 =
 * idle) and how many instances. Config/ML/seed/windows are fixed per
 * simulation, so they stay out of the key. */
using EvalKey = std::pair<int, int>;

/** What one single-node scenario evaluation feeds back to the
 * cluster scheduler: the node's Kelp telemetry. */
struct EvalResult
{
    double mlPerf = 0.0;
    double tailP95 = 0.0;
    double saturation = 0.0;
};

/** Live per-node scheduler state. */
struct NodeState
{
    int usedThreads = 0;

    /** Kind hosted (meaningful only when instances > 0). */
    wl::CpuWorkload kind = wl::CpuWorkload::Stream;
    int instances = 0;

    /** SLO-ladder rung: consecutive violating epochs. */
    int rung = 0;

    /** Telemetry from the last evaluated epoch (optimistic before
     * the first one: empty node at standalone performance). */
    double saturation = 0.0;
    double perfRatio = 1.0;
};

exp::RunConfig
signatureConfig(const ClusterConfig &cfg, const EvalKey &key)
{
    exp::RunConfig rc;
    rc.ml = cfg.ml;
    rc.config = cfg.config;
    if (key.first >= 0) {
        rc.cpu = static_cast<wl::CpuWorkload>(key.first);
        rc.cpuInstances = key.second;
    }
    rc.warmup = cfg.evalWarmup;
    rc.measure = cfg.evalMeasure;
    rc.samplePeriod = cfg.evalSamplePeriod;
    rc.seed = cfg.seed;
    return rc;
}

void
logEvent(trace::DecisionLog *log, int epoch, const char *kind,
         std::string reason, double perf_ratio = -1.0)
{
    if (!log)
        return;
    trace::DecisionEvent ev;
    ev.time = static_cast<double>(epoch) * kEpochSeconds;
    ev.kind = kind;
    ev.reason = std::move(reason);
    ev.perfRatio = perf_ratio;
    log->append(std::move(ev));
}

std::string
jobText(const BatchJob &job)
{
    std::ostringstream os;
    os << "job " << job.id << " (" << wl::cpuName(job.kind) << " x"
       << job.instances << ", " << job.threads << " threads)";
    return os.str();
}

} // namespace

double
ClusterResult::sloFraction() const
{
    return nodeHours == 0 ? 0.0
                          : static_cast<double>(sloNodeHours) /
                                static_cast<double>(nodeHours);
}

double
ClusterResult::strandedRatio() const
{
    if (capacityThreadHours == 0)
        return 0.0;
    return 1.0 - static_cast<double>(usedThreadHours) /
                     static_cast<double>(capacityThreadHours);
}

fleet::FleetResult
ClusterResult::tails() const
{
    return fleet::FleetResult(tailSamples);
}

std::string
ClusterResult::canonicalText() const
{
    std::ostringstream os;
    os << "arrivals=" << arrivals << " placed=" << placed
       << " rejected=" << rejected << " migrations=" << migrations
       << " evictions=" << evictions << " finished=" << finished
       << " running=" << runningAtEnd << "\n";
    os << "node-hours=" << nodeHours
       << " slo-node-hours=" << sloNodeHours
       << " slo-fraction=" << exp::fmt(sloFraction(), 6) << "\n";
    os << "thread-hours used=" << usedThreadHours
       << " capacity=" << capacityThreadHours
       << " stranded=" << exp::fmt(strandedRatio(), 6) << "\n";
    os << "evaluations=" << evaluations << "\n";
    if (!tailSamples.empty()) {
        std::vector<double> sorted(tailSamples);
        std::sort(sorted.begin(), sorted.end());
        os << "tail-ms p50="
           << exp::fmt(sim::percentileSorted(sorted, 50.0) * 1e3, 4)
           << " p90="
           << exp::fmt(sim::percentileSorted(sorted, 90.0) * 1e3, 4)
           << " p99="
           << exp::fmt(sim::percentileSorted(sorted, 99.0) * 1e3, 4)
           << "\n";
    }
    os << "epoch arr plc rej mig evi fin run slo used cap\n";
    for (const EpochRow &row : epochs) {
        os << row.epoch << " " << row.arrivals << " " << row.placed
           << " " << row.rejected << " " << row.migrations << " "
           << row.evictions << " " << row.finished << " "
           << row.running << " " << row.sloNodes << " "
           << row.usedThreads << " " << row.capacityThreads << "\n";
    }
    return os.str();
}

void
ClusterResult::checkConservation() const
{
    KELP_INVARIANT(arrivals == placed + rejected,
                   "cluster lost a job between arrival and placement");
    KELP_INVARIANT(placed == finished + evictions + runningAtEnd,
                   "a placed job is in no terminal or running state");
    uint64_t ledger_finished = 0, ledger_evicted = 0,
             ledger_running = 0;
    for (const BatchJob &job : jobLedger) {
        if (job.node < 0 && job.state == JobState::Running) {
            // Rejected at arrival: never placed.
            continue;
        }
        switch (job.state) {
          case JobState::Running:
            ++ledger_running;
            break;
          case JobState::Finished:
            ++ledger_finished;
            break;
          case JobState::Evicted:
            ++ledger_evicted;
            break;
        }
    }
    KELP_INVARIANT(ledger_finished == finished &&
                       ledger_evicted == evictions &&
                       ledger_running == runningAtEnd,
                   "cluster job ledger disagrees with the totals");
}

ClusterResult
simulateCluster(const ClusterConfig &cfg, trace::DecisionLog *log)
{
    KELP_EXPECTS(cfg.nodes > 0 && cfg.epochs > 0,
                 "cluster needs at least one node and one epoch");
    KELP_EXPECTS(cfg.minJobEpochs >= 1 &&
                     cfg.maxJobEpochs >= cfg.minJobEpochs,
                 "bad batch-job lifetime range");
    KELP_EXPECTS(cfg.maxJobInstances >= 1,
                 "bad batch-job width range");
    KELP_EXPECTS(cfg.capacityThreads >= 1,
                 "node needs batch thread capacity");

    ClusterResult result;

    PolicyConfig policy;
    policy.peakBw = cfg.peakBw;
    policy.satCap = cfg.satCap;
    policy.sloFloor = cfg.sloFloor;
    policy.sloMargin = cfg.sloMargin;

    // Pre-warm the standalone-reference memo (one reference, built
    // on the caller) so the evaluations below only ever read it, and
    // evaluate the idle signature: the same-windows baseline every
    // colocated measurement normalizes against.
    const EvalKey idle_key{-1, 0};
    exp::prewarmReferences({signatureConfig(cfg, idle_key)});

    std::map<EvalKey, EvalResult> memo;
    auto evaluate = [&cfg](const EvalKey &key) {
        exp::RunResult rr = exp::runScenario(signatureConfig(cfg, key));
        EvalResult er;
        er.mlPerf = rr.mlPerf;
        er.tailP95 = rr.mlTailP95;
        er.saturation = rr.avgSaturation;
        return er;
    };
    memo[idle_key] = evaluate(idle_key);
    ++result.evaluations;

    const double ref_perf = memo[idle_key].mlPerf;
    KELP_ASSERT(ref_perf > 0.0,
                "idle-node evaluation produced no ML performance");

    std::vector<NodeState> nodes(static_cast<size_t>(cfg.nodes));
    std::vector<BatchJob> &jobs = result.jobLedger;

    auto nodeViews = [&]() {
        std::vector<NodeView> views(nodes.size());
        for (size_t i = 0; i < nodes.size(); ++i) {
            const NodeState &n = nodes[i];
            NodeView &v = views[i];
            v.index = static_cast<int>(i);
            v.usedThreads = n.usedThreads;
            v.capacityThreads = cfg.capacityThreads;
            v.hasKind = n.instances > 0;
            v.kind = n.kind;
            v.rung = n.rung;
            v.saturation = n.saturation;
            v.perfRatio = n.perfRatio;
        }
        return views;
    };

    auto requestFor = [](const BatchJob &job, int exclude) {
        PlacementRequest req;
        req.kind = job.kind;
        req.threads = job.threads;
        req.bwEstimate = static_cast<double>(job.threads) *
                         wl::cpuParams(job.kind).bwPerCore;
        req.excludeNode = exclude;
        return req;
    };

    auto placeOn = [&](BatchJob &job, int node_index) {
        NodeState &n = nodes[static_cast<size_t>(node_index)];
        KELP_ASSERT(n.instances == 0 || n.kind == job.kind,
                    "placement broke the one-kind-per-node model");
        n.kind = job.kind;
        n.instances += job.instances;
        n.usedThreads += job.threads;
        job.node = node_index;
    };

    auto removeFrom = [&](BatchJob &job) {
        KELP_ASSERT(job.node >= 0, "removing an unplaced job");
        NodeState &n = nodes[static_cast<size_t>(job.node)];
        n.instances -= job.instances;
        n.usedThreads -= job.threads;
        KELP_ASSERT(n.instances >= 0 && n.usedThreads >= 0,
                    "node accounting went negative");
        job.node = -1;
    };

    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        EpochRow row;
        row.epoch = epoch;

        // 1. Arrivals: the epoch's own derived stream, independent
        // of every other epoch and of the node jitter streams.
        sim::Rng arrival_rng = sim::Rng::derive(
            cfg.seed ^ kArrivalSalt, static_cast<uint64_t>(epoch));
        uint64_t n_arrivals = poisson(arrival_rng, cfg.arrivalsPerEpoch);
        row.arrivals = n_arrivals;

        for (uint64_t a = 0; a < n_arrivals; ++a) {
            BatchJob job;
            job.id = static_cast<int>(jobs.size());
            job.kind = pickKind(arrival_rng.uniform());
            job.instances = 1 + static_cast<int>(arrival_rng.below(
                                    static_cast<uint64_t>(
                                        cfg.maxJobInstances)));
            job.threads =
                job.instances * wl::threadsPerInstance(job.kind);
            job.arrivalEpoch = epoch;
            job.remainingEpochs =
                cfg.minJobEpochs +
                static_cast<int>(arrival_rng.below(
                    static_cast<uint64_t>(cfg.maxJobEpochs -
                                          cfg.minJobEpochs + 1)));

            int target = placeJob(cfg.placement, policy, nodeViews(),
                                  requestFor(job, -1));
            if (target < 0) {
                ++row.rejected;
                job.node = -1;
                logEvent(log, epoch, "cluster-reject",
                         jobText(job) + ": no feasible node");
            } else {
                ++row.placed;
                placeOn(job, target);
                logEvent(log, epoch, "cluster-place",
                         jobText(job) + " -> node " +
                             std::to_string(target));
            }
            jobs.push_back(job);
        }

        // 2. Capacity snapshot for the epoch (what stranded-capacity
        // accounting integrates: threads busy while the epoch runs).
        for (const NodeState &n : nodes) {
            row.usedThreads += static_cast<uint64_t>(n.usedThreads);
            row.capacityThreads +=
                static_cast<uint64_t>(cfg.capacityThreads);
        }

        // 3. Evaluate every node's colocation. Collect the memo
        // misses in node order and fan them out on the worker pool;
        // commits insert into the memo in strict index order, so the
        // memo's contents -- and everything derived from them -- are
        // byte-identical for any cfg.jobs.
        std::vector<EvalKey> misses;
        std::set<EvalKey> staged;
        for (const NodeState &n : nodes) {
            EvalKey key = n.instances > 0
                              ? EvalKey{static_cast<int>(n.kind),
                                        n.instances}
                              : idle_key;
            if (memo.find(key) == memo.end() && staged.insert(key).second)
                misses.push_back(key);
        }
        std::vector<EvalResult> miss_results(misses.size());
        exp::runJobs(
            static_cast<int>(misses.size()), cfg.jobs,
            [&](int i) {
                miss_results[static_cast<size_t>(i)] =
                    evaluate(misses[static_cast<size_t>(i)]);
            },
            [&](int i) {
                memo[misses[static_cast<size_t>(i)]] =
                    miss_results[static_cast<size_t>(i)];
                ++result.evaluations;
            });

        // 4. Score each node-hour: signature telemetry, per-node
        // heterogeneity jitter (a pure function of (seed, node,
        // epoch)), SLO check, ladder rung.
        for (size_t i = 0; i < nodes.size(); ++i) {
            NodeState &n = nodes[i];
            EvalKey key = n.instances > 0
                              ? EvalKey{static_cast<int>(n.kind),
                                        n.instances}
                              : idle_key;
            const EvalResult &er = memo.at(key);

            sim::Rng jitter_rng = sim::Rng::derive(
                cfg.seed ^ kJitterSalt,
                (static_cast<uint64_t>(i) << 24) |
                    static_cast<uint64_t>(epoch));
            double factor = std::clamp(
                1.0 + jitter_rng.gaussian(0.0, kJitterStddev),
                kJitterLo, kJitterHi);

            n.perfRatio = er.mlPerf / ref_perf * factor;
            n.saturation = er.saturation;
            double tail = er.tailP95 / factor;
            result.tailSamples.push_back(tail);

            if (n.perfRatio >= cfg.sloFloor) {
                ++row.sloNodes;
                n.rung = 0;
            } else {
                ++n.rung;
            }
        }

        // 5. SLO-ladder actions: an escalated node sheds its widest
        // batch job -- migrated when any node will take it, evicted
        // at the top rung or when nothing will.
        for (size_t i = 0; i < nodes.size(); ++i) {
            NodeState &n = nodes[i];
            if (n.rung < cfg.migrateRung || n.instances == 0)
                continue;
            BatchJob *widest = nullptr;
            for (BatchJob &job : jobs) {
                if (job.state != JobState::Running ||
                    job.node != static_cast<int>(i))
                    continue;
                if (!widest || job.threads > widest->threads)
                    widest = &job;
            }
            if (!widest)
                continue;
            int target = -1;
            if (n.rung < cfg.evictRung) {
                target = placeJob(
                    cfg.placement, policy, nodeViews(),
                    requestFor(*widest, static_cast<int>(i)));
            }
            if (target >= 0) {
                removeFrom(*widest);
                placeOn(*widest, target);
                ++widest->migrations;
                ++row.migrations;
                logEvent(log, epoch, "cluster-migrate",
                         jobText(*widest) + ": node " +
                             std::to_string(i) + " rung " +
                             std::to_string(n.rung) + " -> node " +
                             std::to_string(target),
                         n.perfRatio);
            } else {
                removeFrom(*widest);
                widest->state = JobState::Evicted;
                ++row.evictions;
                logEvent(log, epoch, "cluster-evict",
                         jobText(*widest) + ": node " +
                             std::to_string(i) + " rung " +
                             std::to_string(n.rung) +
                             ", no feasible target",
                         n.perfRatio);
            }
        }

        // 6. Progress running jobs; finish the expiring ones.
        for (BatchJob &job : jobs) {
            if (job.state != JobState::Running || job.node < 0)
                continue;
            --job.remainingEpochs;
            if (job.remainingEpochs <= 0) {
                removeFrom(job);
                job.state = JobState::Finished;
                ++row.finished;
            } else {
                ++row.running;
            }
        }

        result.arrivals += row.arrivals;
        result.placed += row.placed;
        result.rejected += row.rejected;
        result.migrations += row.migrations;
        result.evictions += row.evictions;
        result.finished += row.finished;
        result.nodeHours += static_cast<uint64_t>(cfg.nodes);
        result.sloNodeHours += row.sloNodes;
        result.usedThreadHours += row.usedThreads;
        result.capacityThreadHours += row.capacityThreads;
        result.epochs.push_back(row);

        // Per-epoch conservation: every arrival so far is placed or
        // rejected; every placed job is running, finished or evicted.
        uint64_t running_now = 0;
        for (const BatchJob &job : jobs)
            if (job.state == JobState::Running && job.node >= 0)
                ++running_now;
        KELP_INVARIANT(result.arrivals ==
                           result.placed + result.rejected,
                       "epoch lost a job between arrival and verdict");
        KELP_INVARIANT(result.placed == result.finished +
                                            result.evictions +
                                            running_now,
                       "epoch lost a placed job");
    }

    for (const BatchJob &job : jobs)
        if (job.state == JobState::Running && job.node >= 0)
            ++result.runningAtEnd;

    result.checkConservation();
    return result;
}

} // namespace cluster
} // namespace kelp
