#include "exp/scenario.hh"

// kelp: allow-file(knob-discipline): scenario construction does
// the one-time static placement (paper Section V-A) before any
// controller exists; there is no retry/snapshot/reconciliation state
// to bypass yet, and the controllers take ownership of the knobs the
// moment the run starts.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <tuple>
#include <utility>

#include "exp/pool.hh"
#include "hal/counters.hh"
#include "kelp/baseline.hh"
#include "kelp/core_throttle.hh"
#include "kelp/kelp_controller.hh"
#include "kelp/profile.hh"
#include "node/platform.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "trace/decision_log.hh"
#include "trace/telemetry.hh"
#include "trace/trace_recorder.hh"

namespace kelp {
namespace exp {

const char *
configName(ConfigKind kind)
{
    switch (kind) {
      case ConfigKind::BL:
        return "BL";
      case ConfigKind::CT:
        return "CT";
      case ConfigKind::KPSD:
        return "KP-SD";
      case ConfigKind::KP:
        return "KP";
      case ConfigKind::FG:
        return "FG";
    }
    return "?";
}

namespace {

/** Converts to any member type, to count RunResult's members. */
struct AnyMember
{
    template <typename T>
    constexpr operator T() const
    {
        return T{};
    }
};

/** True when RunResult can be brace-initialized from sizeof...(I)
 * values. */
template <size_t... I>
constexpr bool
takesInitializers(std::index_sequence<I...>)
{
    return requires { RunResult{(static_cast<void>(I), AnyMember{})...}; };
}

constexpr size_t kFields = std::tuple_size_v<decltype(kResultFields)>;

// Tripwire: RunResult takes exactly as many initializers as the table
// has entries, so a field added to the struct alone fails here. (A
// sizeof check would miss an int that fills the padding after
// sloFinalRung or brownoutFinal.)
static_assert(takesInitializers(std::make_index_sequence<kFields>{}) &&
                  !takesInitializers(std::make_index_sequence<kFields + 1>{}),
              "every RunResult field needs an entry in kResultFields");

/** Dedicated CAT ways for the ML task in a domain of `ways` ways. */
int
mlCatWays(int domain_ways)
{
    return std::max(2, static_cast<int>(domain_ways * 0.5));
}

/** Create the ML task of a scenario. */
void
placeMlTask(Scenario &s, const wl::MlDesc &desc, const RunConfig &cfg)
{
    if (desc.inference) {
        wl::InferConfig infer = desc.infer;
        infer.serial = cfg.serialInference;
        if (cfg.openLoopQps > 0.0) {
            infer.closedLoop = false;
            infer.targetQps = cfg.openLoopQps;
            infer.pipelineDepth = 4;
        }
        if (cfg.serving.enabled) {
            // The serving layer owns arrival generation and batch
            // admission; the pipeline is sized to take one dispatch
            // batch at a time.
            infer.externalArrivals = true;
            infer.serial = false;
            infer.pipelineDepth = cfg.serving.maxBatch;
        }
        auto task = std::make_unique<wl::MlInferTask>(
            desc.name, s.mlGroup, infer,
            &s.node->accelerator(), cfg.seed);
        s.inferTask = &s.node->add(std::move(task));
        s.mlTask = s.inferTask;
    } else {
        auto task = std::make_unique<wl::MlTrainTask>(
            desc.name, s.mlGroup, desc.step, &s.node->accelerator());
        s.mlTask = &s.node->add(std::move(task));
    }
    s.mlTask->setHomeSocket(0);
}

/** Create the colocated CPU tasks of a scenario. */
void
placeCpuTasks(Scenario &s, const RunConfig &cfg)
{
    if (!cfg.cpu)
        return;
    wl::CpuWorkload kind = *cfg.cpu;
    double llc_mb = s.node->topology().config().llcMbPerSocket;
    wl::HostPhaseParams params = wl::cpuParams(kind, llc_mb);

    auto add_batch = [&](const std::string &name, int threads,
                         sim::SocketId socket) -> wl::BatchTask * {
        if (threads <= 0)
            return nullptr;
        auto t = std::make_unique<wl::BatchTask>(name, s.cpuGroup,
                                                 threads, params);
        wl::BatchTask &ref = s.node->add(std::move(t));
        ref.setHomeSocket(socket);
        s.cpuTasks.push_back(&ref);
        return &ref;
    };

    switch (kind) {
      case wl::CpuWorkload::Stitch:
      case wl::CpuWorkload::Stream: {
        int per = wl::threadsPerInstance(kind);
        for (int i = 0; i < cfg.cpuInstances; ++i) {
            add_batch(std::string(wl::cpuName(kind)) + "." +
                          std::to_string(i),
                      per, 0);
        }
        break;
      }
      case wl::CpuWorkload::Cpuml: {
        int threads = cfg.cpuThreadsOverride > 0 ?
            cfg.cpuThreadsOverride : cfg.cpuInstances;
        add_batch("CPUML", threads, 0);
        break;
      }
      case wl::CpuWorkload::LlcAggressor: {
        // Oversubscribed threads exercise SMT/pipeline contention
        // alongside cache occupancy (Section III-B).
        int threads = cfg.cpuThreadsOverride > 0 ?
            cfg.cpuThreadsOverride :
            s.node->topology().coresPerSocket() * 5 / 4;
        add_batch("LLC-aggressor", threads, 0);
        break;
      }
      case wl::CpuWorkload::DramAggressor: {
        int threads = cfg.cpuThreadsOverride > 0 ?
            cfg.cpuThreadsOverride :
            wl::aggressorThreads(
                cfg.aggressorLevel,
                s.node->spec().mem.socket.peakBw / 2.0);
        int local = static_cast<int>(
            std::lround(threads * cfg.aggressorThreadsLocal));
        local = std::clamp(local, 0, threads);
        wl::BatchTask *t0 =
            add_batch("DRAM-aggressor.local", local, 0);
        wl::BatchTask *t1 =
            add_batch("DRAM-aggressor.remote", threads - local, 1);
        // Data split across sockets (Remote DRAM experiments).
        if (cfg.aggressorDataLocal < 1.0 || threads - local > 0) {
            std::vector<wl::DataShare> placement;
            if (cfg.aggressorDataLocal > 0.0) {
                placement.push_back(
                    {0, 1, cfg.aggressorDataLocal});
            }
            if (cfg.aggressorDataLocal < 1.0) {
                placement.push_back(
                    {1, 1, 1.0 - cfg.aggressorDataLocal});
            }
            if (t0)
                t0->setDataPlacement(placement);
            if (t1)
                t1->setDataPlacement(placement);
        }
        break;
      }
    }
}

/** Total threads the low-priority tasks want on socket 0. */
int
cpuThreadsOnMlSocket(const Scenario &s)
{
    int threads = 0;
    for (const auto *t : s.cpuTasks)
        if (t->homeSocket() == 0)
            threads += t->threadsWanted();
    return threads;
}

/** Apply the per-configuration placement and controller. */
void
configure(Scenario &s, const wl::MlDesc &desc, const RunConfig &cfg)
{
    node::Node &node = *s.node;
    hal::ResourceKnobs &knobs = node.knobs();
    const cpu::Topology &topo = node.topology();
    int ml_cores = desc.mlCores;
    int per_socket = topo.coresPerSocket();
    int per_sub = topo.coresPerSubdomain();

    runtime::Bindings bind{&node, s.mlGroup, s.cpuGroup, 0};
    runtime::AppProfile profile =
        runtime::defaultProfile(cfg.ml, node.spec());

    // Chaos runs interpose the fault injector between the controller
    // and the HAL; placement-time knob writes above/below go straight
    // to the real knobs (the scheduler's setup is not under test).
    runtime::Hardening hardening;
    if (cfg.faults.any()) {
        sim::Rng faultRng(cfg.faultSeed);
        s.faultyCounters = std::make_unique<hal::FaultyCounterSource>(
            std::make_unique<hal::PerfCounters>(node.memSystem()),
            cfg.faults, faultRng.split(1));
        s.faultyKnobs = std::make_unique<hal::FaultyKnobSink>(
            knobs, cfg.faults, faultRng.split(2));
        bind.counters = s.faultyCounters.get();
        bind.knobs = s.faultyKnobs.get();

        hardening.enabled = cfg.hardened;
        hardening.maxBwGibps = 3.0 * node.spec().mem.socket.peakBw;
        hardening.maxLatencyNs =
            10.0 * node.spec().mem.socket.baseLatency;
    }

    std::unique_ptr<runtime::Controller> controller;

    // Rebuild recipe for crash/restart recovery (Kelp configs only).
    std::function<std::unique_ptr<runtime::Controller>()> make_kelp;

    switch (cfg.config) {
      case ConfigKind::BL:
        // Everything floats; contention is unmanaged.
        node.setSncEnabled(false);
        controller = std::make_unique<runtime::BaselineController>(bind);
        break;

      case ConfigKind::FG: {
        // Section VI-D what-if: request-priority memory controllers
        // plus per-priority backpressure (Section VI-C). Static
        // placement, no software feedback loop at all.
        node.setSncEnabled(false);
        node.memSystem().setArbitration(
            mem::Arbitration::RequestPriority);
        node.setPriorityAwareBackpressure(true);
        knobs.setCores(s.mlGroup, 0, 0, (ml_cores + 1) / 2);
        knobs.setCores(s.mlGroup, 0, 1, ml_cores / 2);
        knobs.setPrefetchersEnabled(s.mlGroup, ml_cores);
        knobs.setCatWays(s.mlGroup, mlCatWays(topo.config().llcWays));
        if (s.cpuGroup != sim::invalidId && !s.cpuTasks.empty()) {
            int cpu_cores = per_socket - ml_cores;
            knobs.setCores(s.cpuGroup, 0, 0, (cpu_cores + 1) / 2);
            knobs.setCores(s.cpuGroup, 0, 1, cpu_cores / 2);
            knobs.setPrefetchersEnabled(s.cpuGroup, cpu_cores);
        }
        break;
      }

      case ConfigKind::CT: {
        node.setSncEnabled(false);
        // ML task: pinned cores spread across the socket + dedicated
        // LLC partition via CAT.
        knobs.setCores(s.mlGroup, 0, 0, (ml_cores + 1) / 2);
        knobs.setCores(s.mlGroup, 0, 1, ml_cores / 2);
        knobs.setPrefetchersEnabled(s.mlGroup, ml_cores);
        knobs.setCatWays(s.mlGroup, mlCatWays(topo.config().llcWays));
        int max_cores = per_socket - ml_cores;
        if (s.cpuGroup != sim::invalidId && !s.cpuTasks.empty()) {
            controller =
                std::make_unique<runtime::CoreThrottleController>(
                    bind,
                    runtime::coreThrottleProfile(cfg.ml, node.spec()),
                    1, max_cores, max_cores, hardening);
        }
        break;
      }

      case ConfigKind::KPSD:
      case ConfigKind::KP: {
        node.setSncEnabled(true);
        // ML task owns the high-priority subdomain (0) with a CAT
        // partition in that subdomain's LLC.
        knobs.setCores(s.mlGroup, 0, 0, ml_cores);
        knobs.setPrefetchersEnabled(s.mlGroup, ml_cores);
        knobs.setCatWays(s.mlGroup,
                         mlCatWays(topo.llcWaysPerSubdomain()));

        if (s.cpuGroup != sim::invalidId &&
            (!s.cpuTasks.empty() || cfg.churn.enabled)) {
            runtime::ConfigLimits limits;
            limits.minCoreL = 1;
            limits.maxCoreL = per_sub;
            limits.minCoreH = 0;
            limits.maxCoreH = cfg.config == ConfigKind::KP ?
                per_sub - ml_cores : 0;

            runtime::ResourceState initial;
            initial.coreNumL = std::min(
                per_sub,
                std::max(1, cpuThreadsOnMlSocket(s)));
            initial.prefetcherNumL = initial.coreNumL;
            initial.coreNumH = 0;

            if (cfg.forcedPrefetcherFraction >= 0.0) {
                // Hardware-mechanism sweep (Figure 7): fixed knobs,
                // no controller.
                knobs.setCores(s.cpuGroup, 0, 1, initial.coreNumL);
                int enabled = static_cast<int>(std::lround(
                    cfg.forcedPrefetcherFraction * initial.coreNumL));
                knobs.setPrefetchersEnabled(s.cpuGroup, enabled);
            } else {
                // SLO reference: the workload's standalone work
                // rate, resolved before the factory is captured so a
                // restart rebuild never re-enters the scenario
                // machinery.
                double ref_perf = cfg.slo.enabled ?
                    standaloneReference(cfg.ml).mlPerf : 0.0;
                bool dynamic = cfg.churn.enabled;
                runtime::SloConfig slo = cfg.slo;
                make_kelp = [bind, profile, limits, initial,
                             hardening, dynamic, slo, ref_perf]() {
                    auto c =
                        std::make_unique<runtime::KelpController>(
                            bind, profile, limits, initial,
                            hardening);
                    if (dynamic)
                        c->setDynamicMembership(true);
                    if (slo.enabled)
                        c->enableSloGuard(slo, ref_perf);
                    return std::unique_ptr<runtime::Controller>(
                        std::move(c));
                };
                controller = make_kelp();
            }
        }
        break;
      }
    }

    if (controller) {
        s.manager = std::make_unique<runtime::RuntimeManager>(
            std::move(controller), cfg.samplePeriod);
        if (hardening.enabled) {
            runtime::WatchdogConfig wd;
            wd.enabled = true;
            s.manager->setWatchdog(wd);
        }
        if (make_kelp)
            s.manager->setControllerFactory(make_kelp);
        s.manager->attach(*s.engine);
    }
}

/**
 * The standard probe set every instrumented run records: the four
 * hardware signals the controller acts on plus its knob state and the
 * process-wide contract-violation counter. Probes only read; they
 * never perturb the simulated system.
 */
void
installStandardProbes(Scenario &s, trace::Telemetry &tel)
{
    auto counters =
        std::make_shared<hal::PerfCounters>(s.node->memSystem());
    auto sample = std::make_shared<hal::CounterSample>();
    tel.addProbe("socket_bw_gibps", [counters, sample]() {
        *sample = counters->sample(0);
        return sample->socketBw;
    });
    tel.addProbe("mem_latency_ns",
                 [sample]() { return sample->memLatency; });
    tel.addProbe("saturation",
                 [sample]() { return sample->saturation; });
    tel.addProbe("contract_violations", []() {
        return static_cast<double>(sim::contractViolations());
    });
    if (s.manager) {
        auto *mgr = s.manager.get();
        tel.addProbe("lo_cores", [mgr]() {
            return mgr->controller().params().loCores;
        });
        tel.addProbe("lo_prefetchers", [mgr]() {
            return mgr->controller().params().loPrefetchers;
        });
        tel.addProbe("hi_backfill", [mgr]() {
            return mgr->controller().params().hiBackfillCores;
        });
    }
}

} // namespace

Scenario
buildScenario(const RunConfig &cfg)
{
    Scenario s;
    wl::MlDesc desc = wl::mlDesc(cfg.ml);
    node::PlatformSpec spec = node::platformFor(desc.platform);

    s.node = std::make_unique<node::Node>(spec);
    s.engine = std::make_unique<sim::Engine>(cfg.tick);

    s.mlGroup =
        s.node->groups().create("ml", hal::Priority::High).id();
    s.cpuGroup =
        s.node->groups().create("batch", hal::Priority::Low).id();

    placeMlTask(s, desc, cfg);
    placeCpuTasks(s, cfg);
    configure(s, desc, cfg);

    if (cfg.churn.enabled) {
        s.lifecycle = std::make_unique<LifecycleEngine>(
            *s.node, s.cpuGroup, cfg.churn);
        s.lifecycle->attach(*s.engine);
    }

    // Open-loop serving layer: only inference workloads have a
    // request stream to serve; a traffic spec on a training workload
    // is ignored rather than fatal so fuzzed configs stay runnable.
    if (cfg.serving.enabled && s.inferTask) {
        s.server = std::make_unique<serve::RequestServer>(
            cfg.serving, *s.inferTask, cfg.seed);
        s.server->attach(*s.engine);
    }

    if (s.manager) {
        // Crash/restart schedule: killAt plus any extra kill times,
        // each registered as a periodic whose period is far beyond
        // any run length so it fires exactly once. Sorted so the
        // registration order (which breaks same-tick ties in the
        // engine) is a pure function of the config, not of how the
        // caller assembled the list.
        std::vector<sim::Time> kills;
        if (cfg.killAt > 0.0)
            kills.push_back(cfg.killAt);
        for (sim::Time t : cfg.kills) {
            KELP_EXPECTS(t > 0.0, "kill times must be positive");
            kills.push_back(t);
        }
        std::sort(kills.begin(), kills.end());
        runtime::RuntimeManager *mgr = s.manager.get();
        for (sim::Time at : kills) {
            s.engine->every(1e18,
                            [mgr](sim::Time t) { mgr->restart(t); },
                            at);
        }
    }

    s.node->setEventDrivenEnabled(cfg.eventDriven);
    s.node->attach(*s.engine);
    return s;
}

Scenario
buildScenario(const RunConfig &cfg, const Observability &obs)
{
    Scenario s = buildScenario(cfg);
    if (obs.decisions && s.manager)
        s.manager->controller().setDecisionLog(obs.decisions);
    if (obs.decisions && s.server)
        s.server->setDecisionLog(obs.decisions);
    if (obs.recorder && s.inferTask)
        s.inferTask->setTraceSink(obs.recorder->phaseSink());
    if (obs.telemetry) {
        installStandardProbes(s, *obs.telemetry);
        sim::Time period = obs.telemetryPeriod > 0.0 ?
            obs.telemetryPeriod : cfg.samplePeriod;
        obs.telemetry->attach(*s.engine, period);
    }
    return s;
}

RunResult
measureScenario(Scenario &s, const RunConfig &cfg)
{
    s.engine->run(cfg.warmup);

    // Start the measurement window.
    double ml_work0 = s.mlTask->completedWork();
    std::vector<double> cpu_work0;
    for (const auto *t : s.cpuTasks)
        cpu_work0.push_back(t->completedWork());
    if (s.inferTask)
        s.inferTask->resetLatency();
    if (s.server)
        s.server->resetLatency();
    hal::PerfCounters counters(s.node->memSystem());
    counters.sample(0);  // reset the window cursor

    s.engine->run(cfg.measure);

    RunResult r;
    r.mlPerf =
        (s.mlTask->completedWork() - ml_work0) / cfg.measure;
    if (s.inferTask)
        r.mlTailP95 = s.inferTask->latency().percentile(95.0);
    for (size_t i = 0; i < s.cpuTasks.size(); ++i) {
        r.cpuThroughput +=
            (s.cpuTasks[i]->completedWork() - cpu_work0[i]) /
            cfg.measure;
    }
    if (s.manager) {
        r.avgLoCores = s.manager->avgLoCores();
        r.avgLoPrefetchers = s.manager->avgLoPrefetchers();
        r.avgHiBackfill = s.manager->avgHiBackfill();
        r.timeInFailSafe = s.manager->timeInFailSafe();
        r.failSafeEntries = s.manager->failSafeEntries();
        r.restarts = s.manager->restarts();
        auto *kelp = dynamic_cast<runtime::KelpController *>(
            &s.manager->controller());
        if (kelp && kelp->sloGuard()) {
            const runtime::SloGuard &g = *kelp->sloGuard();
            r.sloViolations = g.violations();
            r.sloTransitions = g.trace().size();
            r.sloFinalRung = g.rung();
        }
    }
    if (s.server) {
        s.server->checkConservation();
        const serve::ServeStats st = s.server->stats();
        r.reqArrivals = st.arrivals;
        r.reqAdmitted = st.admitted;
        r.reqRejected = st.rejected;
        r.reqShed = st.shed;
        r.reqExpired = st.expired;
        r.reqCompleted = st.completed;
        r.reqInFlight = st.inFlight;
        r.brownoutTransitions = st.brownoutTransitions;
        r.brownoutFinal = st.brownoutLevel;
        r.reqP99 = s.server->latency().percentile(99.0);
        r.reqP999 = s.server->latency().percentile(99.9);
        r.reqP9999 = s.server->latency().percentile(99.99);
    }
    if (s.lifecycle) {
        r.churnArrivals = s.lifecycle->arrivals();
        r.churnFinishes = s.lifecycle->finishes();
        r.churnCrashes = s.lifecycle->crashes();
        r.churnRejected = s.lifecycle->rejected();
    }
    hal::CounterSample cs = counters.sample(0);
    r.avgSaturation = cs.saturation;
    r.avgSocketBw = cs.socketBw;

    // Tick-engine cost breakdown (whole run, warmup included --
    // these are lifetime counters, not window deltas).
    r.engineTicks = s.engine->tickCount();
    r.engineFastTicks = s.engine->fastTickCount();
    r.engineFullTicks = s.engine->fullTickCount();
    r.periodicFires = s.engine->periodicFireCount();
    r.demandCalls = s.node->demandCalls();
    r.advanceCalls = s.node->advanceCalls();
    r.fastTaskTicks = s.node->fastTaskTicks();
    r.resolveCacheHits = s.node->memSystem().resolveCacheHits();
    r.resolveCacheMisses = s.node->memSystem().resolveCacheMisses();
    r.mcCacheHits = s.node->memSystem().mcCacheHits();
    r.mcCacheMisses = s.node->memSystem().mcCacheMisses();
    r.memFastTicks = s.node->memSystem().fastTicks();
    return r;
}

RunResult
runScenario(const RunConfig &cfg)
{
    Scenario s = buildScenario(cfg);
    return measureScenario(s, cfg);
}

namespace {

/** The standalone references, keyed by workload; read and written
 * only under InitGuard. Insert-once: a stored entry never changes. */
std::map<wl::MlWorkload, RunResult> &
referenceMemo()
{
    static std::map<wl::MlWorkload, RunResult> memo;
    return memo;
}

} // namespace

bool
referenceMemoized(wl::MlWorkload ml)
{
    InitGuard guard;
    return referenceMemo().count(ml) != 0;
}

RunResult
standaloneReference(wl::MlWorkload ml)
{
    {
        InitGuard guard;
        auto it = referenceMemo().find(ml);
        if (it != referenceMemo().end())
            return it->second;
    }

    // Run outside the guard so references for different workloads
    // build concurrently. The run never reads the memo: BL takes no
    // SLO configure path. Callers that race on one workload compute
    // identical results, and the first to finish stores its copy.
    RunConfig cfg;
    cfg.ml = ml;
    cfg.config = ConfigKind::BL;
    cfg.cpu.reset();
    RunResult r = runScenario(cfg);
    InitGuard guard;
    return referenceMemo().emplace(ml, r).first->second;
}

double
baselineCpuThroughput(const RunConfig &cfg)
{
    RunConfig bl = cfg;
    bl.config = ConfigKind::BL;
    return runScenario(bl).cpuThroughput;
}

} // namespace exp
} // namespace kelp
