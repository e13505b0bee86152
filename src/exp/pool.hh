/**
 * @file
 * Deterministic worker pool for independent experiment jobs.
 *
 * All parallelism in the repository goes through this pool (enforced
 * by the kelp-lint `raw-parallelism` rule). The job model keeps the
 * parallel path bit-identical to the serial one:
 *
 *  - jobs are indexed 0..n-1 and must be mutually independent; any
 *    randomness a job needs comes from sim::Rng::derive(base, index),
 *    a pure function of the base seed and the job index, never from
 *    shared generator state;
 *  - workers may finish in any order, but the optional commit
 *    callback runs on the calling thread in strict job-index order,
 *    so side effects (stdout, result vectors) are sequenced exactly
 *    as a serial loop would sequence them;
 *  - with one effective worker the pool degenerates to a plain
 *    in-order loop on the calling thread -- the reference path the
 *    parallel one is diffed against.
 *
 * Exceptions: if jobs throw, the first exception in commit (index)
 * order is rethrown on the calling thread after all workers have
 * drained -- again matching what a serial loop would have surfaced.
 */

#ifndef KELP_EXP_POOL_HH
#define KELP_EXP_POOL_HH

#include <functional>

namespace kelp {
namespace exp {

/** Number of jobs to use when the caller asks for "all cores". */
int hardwareJobs();

/**
 * Resolve a --jobs style request: values >= 1 pass through, anything
 * else (0, negative) means hardwareJobs().
 */
int resolveJobs(int requested);

/**
 * Run `jobCount` independent jobs on up to `workers` threads
 * (resolveJobs semantics: <= 0 means all cores).
 *
 * `work(i)` runs on an arbitrary pool thread (or on the caller when
 * the effective worker count is 1). `commit(i)` -- if non-null --
 * runs on the calling thread in ascending job-index order as results
 * become available; use it for anything order-sensitive (printing,
 * appending).
 */
void runJobs(int jobCount, int workers,
             const std::function<void(int)> &work,
             const std::function<void(int)> &commit = nullptr);

/**
 * Serialise access to lazily initialised shared caches (for example
 * the standalone-reference memo in scenario.cc) without letting that
 * code name a mutex directly. Not re-entrant: hold it only around
 * reads and inserts of the cache, never around the computation that
 * fills it, so values for different keys can build concurrently.
 */
class InitGuard
{
  public:
    InitGuard();
    ~InitGuard();
    InitGuard(const InitGuard &) = delete;
    InitGuard &operator=(const InitGuard &) = delete;
};

} // namespace exp
} // namespace kelp

#endif // KELP_EXP_POOL_HH
