/**
 * @file
 * The benchmark's workloads: a pure function from (name, seed,
 * workers) to the simulator inputs one run feeds the program, and the
 * timed body that feeds them.
 *
 *  grid   the Figure 13 evaluation grid (12 mixes x BL/CT/KP-SD/KP)
 *         through exp::runEvaluationGrid at `workers` jobs, with
 *         shortened windows. GridOptions has no seed: seed-invariant.
 *  fleet  cluster::simulateCluster over the six bench_fleet cells,
 *         serially, on a seeded arrival stream.
 *  serve  serial open-loop diurnal and burst serving runs on one
 *         colocated KP node (RNN1 inference server).
 *  churn  serial single-node runs with churn, the SLO ladder, a fault
 *         plan and controller kills.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "exp/evaluation.hh"
#include "exp/scenario.hh"

namespace perfbench {

/** Everything one workload run feeds the simulator. Exactly one of
 * the three input lists is in use, by kind. */
struct Workload
{
    std::string name;
    uint64_t seed = 0;

    /** Pool workers of the parallel body (grid); 1 for the serial
     * ones. */
    int workers = 1;

    /** grid: the grid's execution knobs (jobs = workers). */
    kelp::exp::GridOptions grid;

    /** fleet: one cluster simulation per cell. */
    std::vector<kelp::cluster::ClusterConfig> cells;

    /** serve, churn: single-node runs, executed in order. */
    std::vector<kelp::exp::RunConfig> runs;

    bool isGrid() const { return name == "grid"; }
    bool isFleet() const { return name == "fleet"; }
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

bool knownWorkload(const std::string &name);

/** Generate a workload. Pure in its arguments. */
Workload makeWorkload(const std::string &name, uint64_t seed,
                      int workers);

/** Canonical text of every generated input (purity tests, logs). */
std::string describe(const Workload &w);

/** The single-node configs whose standalone references the body
 * needs: prewarming them is the workload's one-time set-up. */
std::vector<kelp::exp::RunConfig> referenceConfigs(const Workload &w);

/**
 * The RunConfigs the grid body runs, in (mix, BL/CT/KP-SD/KP) order,
 * as exp::runMix builds them from a Mix and the grid's window
 * overrides.
 */
std::vector<kelp::exp::RunConfig>
gridRunConfigs(const kelp::exp::GridOptions &opt);

/**
 * The single-node signature configs a cluster evaluates: the idle
 * node and every (batch kind, instances) colocation, built from the
 * public ClusterConfig fields.
 */
std::vector<kelp::exp::RunConfig>
signatureConfigs(const kelp::cluster::ClusterConfig &cfg);

/** What one execution of the timed body produced. */
struct BodyResult
{
    std::vector<kelp::exp::MixResult> mixes;
    std::vector<kelp::cluster::ClusterResult> clusters;
    std::vector<kelp::exp::RunResult> runs;

    /** Contract violations per operation (mix, cell or run). For the
     * grid, whose operations run on pool workers, every mix carries
     * the process-wide delta over the whole grid. */
    std::vector<uint64_t> contractDeltas;

    /** Host wall and process CPU seconds of each operation, in
     * order: the whole grid (one operation), each cell or each run. */
    std::vector<double> opWall;
    std::vector<double> opCpu;
};

/** Run the timed body once. */
BodyResult runBody(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
