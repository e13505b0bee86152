/**
 * @file
 * Deterministic fan-out helpers for experiment sweeps.
 *
 * Builds on the worker pool (pool.hh) with the shapes the bench
 * drivers actually use: map a function over indices with results
 * stored by index, and run a pre-collected list of RunConfigs in
 * parallel with the standalone-reference memo pre-warmed (itself on
 * the pool) so the parallel phase only ever reads it.
 */

#ifndef KELP_EXP_SWEEP_RUNNER_HH
#define KELP_EXP_SWEEP_RUNNER_HH

#include <functional>
#include <vector>

#include "exp/pool.hh"
#include "exp/scenario.hh"

namespace kelp {
namespace exp {

/**
 * Evaluate fn(0..n-1) on up to `jobs` workers and return the results
 * indexed by input -- identical to a serial loop for any job count.
 * The optional `committed` callback runs on the calling thread in
 * index order (for progress output).
 */
template <typename T>
std::vector<T>
parallelMap(int n, int jobs, const std::function<T(int)> &fn,
            const std::function<void(int)> &committed = nullptr)
{
    std::vector<T> out(static_cast<size_t>(n < 0 ? 0 : n));
    runJobs(
        n, jobs, [&](int i) { out[static_cast<size_t>(i)] = fn(i); },
        committed);
    return out;
}

/**
 * Compute (and memoize) the standalone reference for every ML
 * workload the given configs touch -- the SLO-enabled configure path
 * needs the same ones -- so that concurrent runScenario calls only
 * read the memo. Missing references build on up to `jobs` workers
 * (resolveJobs semantics: <= 0 means all cores); a single missing one
 * builds on the caller.
 */
void prewarmReferences(const std::vector<RunConfig> &cfgs, int jobs = 0);

/** Run each config through runScenario, `jobs` at a time. */
std::vector<RunResult> runScenarios(const std::vector<RunConfig> &cfgs,
                                    int jobs);

} // namespace exp
} // namespace kelp

#endif // KELP_EXP_SWEEP_RUNNER_HH
