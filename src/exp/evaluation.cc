#include "exp/evaluation.hh"

#include <cmath>
#include <cstdio>

#include "exp/sweep_runner.hh"
#include "node/platform.hh"
#include "sim/log.hh"
#include "trace/run_manifest.hh"

namespace kelp {
namespace exp {

int
configIndex(ConfigKind kind)
{
    switch (kind) {
      case ConfigKind::BL:
        return 0;
      case ConfigKind::CT:
        return 1;
      case ConfigKind::KPSD:
        return 2;
      case ConfigKind::KP:
        return 3;
      case ConfigKind::FG:
        break;
    }
    sim::panic("config not part of the evaluation grid");
}

std::vector<Mix>
evaluationMixes()
{
    std::vector<Mix> mixes;
    for (auto ml : wl::allMlWorkloads()) {
        wl::MlDesc desc = wl::mlDesc(ml);
        node::PlatformSpec spec = node::platformFor(desc.platform);
        int half = spec.topo.coresPerSocket / 2;
        int spare = spec.topo.coresPerSocket - desc.mlCores;
        for (auto cpu : wl::evaluationCpuWorkloads()) {
            Mix m;
            m.ml = ml;
            m.cpu = cpu;
            switch (cpu) {
              case wl::CpuWorkload::Stream:
                // Streaming threads on every core the ML task does
                // not hold: the heaviest mix.
                m.cpuInstances = spare;
                break;
              case wl::CpuWorkload::Stitch:
                m.cpuInstances = 4;  // 16 threads
                break;
              case wl::CpuWorkload::Cpuml:
                m.cpuThreadsOverride = half;
                m.cpuInstances = half;
                break;
              default:
                sim::panic("unexpected evaluation CPU workload");
            }
            mixes.push_back(m);
        }
    }
    return mixes;
}

MixResult
runMix(const Mix &mix, const GridOptions &opt)
{
    const ConfigKind kinds[] = {ConfigKind::BL, ConfigKind::CT,
                                ConfigKind::KPSD, ConfigKind::KP};
    MixResult out;
    out.mix = mix;

    RunResult ref = standaloneReference(mix.ml);
    for (ConfigKind kind : kinds) {
        RunConfig cfg;
        cfg.ml = mix.ml;
        cfg.cpu = mix.cpu;
        cfg.cpuInstances = mix.cpuInstances;
        cfg.cpuThreadsOverride = mix.cpuThreadsOverride;
        cfg.config = kind;
        if (opt.warmup >= 0.0)
            cfg.warmup = opt.warmup;
        if (opt.measure >= 0.0)
            cfg.measure = opt.measure;
        RunResult r = runScenario(cfg);
        int i = configIndex(kind);
        out.mlPerf[i] = r.mlPerf;
        out.cpuTput[i] = r.cpuThroughput;
        out.mlSlowdown[i] =
            r.mlPerf > 0.0 ? ref.mlPerf / r.mlPerf : 1e9;
    }
    double bl_tput = out.cpuTput[0];
    for (int i = 0; i < 4; ++i) {
        out.cpuSlowdown[i] = out.cpuTput[i] > 0.0 ?
            bl_tput / out.cpuTput[i] : 1e9;
    }
    return out;
}

MixResult
runMix(const Mix &mix)
{
    return runMix(mix, GridOptions{});
}

namespace {

/** Grid manifest: settings + per-config geomean slowdowns. */
void
writeGridManifest(const std::vector<MixResult> &results,
                  const GridOptions &opt)
{
    trace::RunManifest man;
    man.set("tool", "evaluation-grid");
    man.set("mixes", static_cast<uint64_t>(results.size()));
    man.set("jobs", opt.jobs);
    man.set("warmup_s", opt.warmup);
    man.set("measure_s", opt.measure);
    man.set("contract_violations", sim::contractViolations());
    const char *names[4] = {"bl", "ct", "kpsd", "kp"};
    for (int c = 0; c < 4; ++c) {
        double ml_log = 0.0;
        double cpu_log = 0.0;
        for (const MixResult &r : results) {
            ml_log += std::log(r.mlSlowdown[c]);
            cpu_log += std::log(r.cpuSlowdown[c]);
        }
        double n = results.empty() ?
            1.0 : static_cast<double>(results.size());
        man.set(std::string("ml_slowdown_geomean_") + names[c],
                std::exp(ml_log / n));
        man.set(std::string("cpu_slowdown_geomean_") + names[c],
                std::exp(cpu_log / n));
    }
    if (!man.writeJson(opt.manifestPath)) {
        sim::fatal("cannot write grid manifest to ",
                   opt.manifestPath);
    }
}

} // namespace

std::vector<MixResult>
runEvaluationGrid(const GridOptions &opt)
{
    const std::vector<Mix> mixes = evaluationMixes();

    // Pre-warm the standalone-reference memo on the pool, one
    // reference per worker, so the fan-out only reads it: otherwise
    // every worker that reaches a mix whose reference is missing
    // would build that same reference again.
    {
        std::vector<RunConfig> cfgs;
        for (const Mix &mix : mixes) {
            RunConfig cfg;
            cfg.ml = mix.ml;
            cfgs.push_back(cfg);
        }
        prewarmReferences(cfgs, opt.jobs);
    }

    std::vector<MixResult> results = parallelMap<MixResult>(
        static_cast<int>(mixes.size()), opt.jobs,
        [&](int i) { return runMix(mixes[static_cast<size_t>(i)], opt); },
        [&](int i) {
            if (!opt.verbose)
                return;
            const Mix &mix = mixes[static_cast<size_t>(i)];
            std::printf("  running %s + %s ...\n", wl::mlName(mix.ml),
                        wl::cpuName(mix.cpu));
            std::fflush(stdout);
        });
    if (!opt.manifestPath.empty())
        writeGridManifest(results, opt);
    return results;
}

std::vector<MixResult>
runEvaluationGrid(bool verbose)
{
    GridOptions opt;
    opt.verbose = verbose;
    return runEvaluationGrid(opt);
}

double
efficiency(const MixResult &r, ConfigKind kind)
{
    int i = configIndex(kind);
    double ml_gain = r.mlPerf[0] > 0.0 ?
        r.mlPerf[i] / r.mlPerf[0] - 1.0 : 0.0;
    double cpu_loss = r.cpuTput[0] > 0.0 ?
        1.0 - r.cpuTput[i] / r.cpuTput[0] : 0.0;
    if (cpu_loss < 1e-3)
        return ml_gain > 0.0 ? 99.0 : 0.0;
    return ml_gain / cpu_loss;
}

} // namespace exp
} // namespace kelp
