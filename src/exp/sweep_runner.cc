#include "exp/sweep_runner.hh"

#include <set>

namespace kelp {
namespace exp {

void
prewarmReferences(const std::vector<RunConfig> &cfgs, int jobs)
{
    std::set<wl::MlWorkload> mls;
    for (const RunConfig &cfg : cfgs)
        mls.insert(cfg.ml);
    std::vector<wl::MlWorkload> missing;
    for (wl::MlWorkload ml : mls)
        if (!referenceMemoized(ml))
            missing.push_back(ml);
    runJobs(static_cast<int>(missing.size()), jobs, [&](int i) {
        standaloneReference(missing[static_cast<size_t>(i)]);
    });
}

std::vector<RunResult>
runScenarios(const std::vector<RunConfig> &cfgs, int jobs)
{
    prewarmReferences(cfgs, jobs);
    return parallelMap<RunResult>(
        static_cast<int>(cfgs.size()), jobs,
        [&](int i) { return runScenario(cfgs[static_cast<size_t>(i)]); });
}

} // namespace exp
} // namespace kelp
