/**
 * @file
 * kelpsim: command-line driver for single experiments.
 *
 * Runs one workload mix under one runtime configuration and reports
 * the normalized results; optionally records a telemetry CSV of the
 * controller's knobs and the hardware signals, a Perfetto-compatible
 * JSON trace, a controller decision audit log (JSONL), and a run
 * manifest over the run.
 *
 * Examples:
 *   kelpsim --ml=cnn1 --cpu=stitch --instances=4 --config=kp
 *   kelpsim --ml=rnn1 --cpu=cpuml --threads=12 --config=ct
 *   kelpsim --ml=cnn2 --cpu=dram --level=high --config=kpsd \
 *           --telemetry=run.csv --trace=run.trace.json \
 *           --decisions=run.decisions.jsonl --manifest=run.json
 */

#include <chrono>  // kelp: allow(determinism): --perf wall-clock line
#include <cstdio>
#include <optional>
#include <string>

#include "cluster/cluster.hh"
#include "exp/pool.hh"
#include "exp/report.hh"
#include "exp/scenario.hh"
#include "hal/counters.hh"
#include "hal/fault_injector.hh"
#include "sim/log.hh"
#include "sim/options.hh"
#include "trace/decision_log.hh"
#include "trace/run_manifest.hh"
#include "trace/telemetry.hh"
#include "trace/trace_recorder.hh"

using namespace kelp;

namespace {

wl::MlWorkload
parseMl(const std::string &name)
{
    if (name == "rnn1")
        return wl::MlWorkload::Rnn1;
    if (name == "cnn1")
        return wl::MlWorkload::Cnn1;
    if (name == "cnn2")
        return wl::MlWorkload::Cnn2;
    if (name == "cnn3")
        return wl::MlWorkload::Cnn3;
    sim::fatal("unknown ML workload '", name,
               "' (rnn1|cnn1|cnn2|cnn3)");
}

wl::CpuWorkload
parseCpu(const std::string &name)
{
    if (name == "stream")
        return wl::CpuWorkload::Stream;
    if (name == "stitch")
        return wl::CpuWorkload::Stitch;
    if (name == "cpuml")
        return wl::CpuWorkload::Cpuml;
    if (name == "llc")
        return wl::CpuWorkload::LlcAggressor;
    if (name == "dram")
        return wl::CpuWorkload::DramAggressor;
    sim::fatal("unknown CPU workload '", name,
               "' (stream|stitch|cpuml|llc|dram)");
}

exp::ConfigKind
parseConfig(const std::string &name)
{
    if (name == "bl")
        return exp::ConfigKind::BL;
    if (name == "ct")
        return exp::ConfigKind::CT;
    if (name == "kpsd" || name == "kp-sd")
        return exp::ConfigKind::KPSD;
    if (name == "kp")
        return exp::ConfigKind::KP;
    if (name == "fg")
        return exp::ConfigKind::FG;
    sim::fatal("unknown config '", name, "' (bl|ct|kpsd|kp|fg)");
}

cluster::Placement
parsePlacement(const std::string &name)
{
    if (name == "binpack" || name == "bin-pack")
        return cluster::Placement::BinPack;
    if (name == "interference" || name == "interference-aware")
        return cluster::Placement::InterferenceAware;
    sim::fatal("unknown placement '", name,
               "' (binpack|interference)");
}

wl::AggressorLevel
parseLevel(const std::string &name)
{
    if (name == "low" || name == "l")
        return wl::AggressorLevel::Low;
    if (name == "medium" || name == "m")
        return wl::AggressorLevel::Medium;
    if (name == "high" || name == "h")
        return wl::AggressorLevel::High;
    sim::fatal("unknown aggressor level '", name, "' (low|medium|high)");
}

} // namespace

int
main(int argc, char **argv)
{
    sim::Options opts("kelpsim",
                      "run one colocation experiment on a simulated "
                      "accelerated node");
    opts.addString("ml", "cnn1", "ML workload: rnn1|cnn1|cnn2|cnn3");
    opts.addString("cpu", "",
                   "colocated CPU workload: "
                   "stream|stitch|cpuml|llc|dram (empty = standalone)");
    opts.addString("config", "kp", "runtime: bl|ct|kpsd|kp|fg");
    opts.addInt("instances", 1, "CPU workload instances");
    opts.addInt("threads", 0, "CPU thread-count override (0 = auto)");
    opts.addString("level", "high",
                   "dram aggressor level: low|medium|high");
    opts.addDouble("warmup", 80.0, "warmup simulated seconds");
    opts.addDouble("measure", 60.0, "measured simulated seconds");
    opts.addDouble("period", 4.0, "controller sampling period, s");
    opts.addInt("seed", 12345, "random seed");
    opts.addString("faults", "",
                   "HAL fault plan, e.g. "
                   "drop=0.1,stuck=0.05,noise=0.1,spike=0.02,"
                   "knobfail=0.2,knobdelay=0.1 (empty = no faults)");
    opts.addInt("fault-seed", 1, "fault-injection random seed");
    opts.addBool("naive", false,
                 "disable controller hardening and the fail-safe "
                 "watchdog under --faults");
    opts.addString("telemetry", "",
                   "write knob/signal time series to this CSV file");
    opts.addString("trace", "",
                   "write a Perfetto/chrome://tracing JSON trace "
                   "(phase spans, decision instants, counter tracks) "
                   "to this file");
    opts.addString("decisions", "",
                   "write the controller decision audit log (JSONL) "
                   "to this file");
    opts.addString("manifest", "",
                   "write a run manifest (seed, config, build, "
                   "result summary) JSON to this file");
    opts.addBool("churn", false,
                 "dynamic colocation churn: seeded task arrival/"
                 "departure/crash events mid-run");
    opts.addDouble("churn-rate", 1.0 / 20.0,
                   "mean churn arrivals per second");
    opts.addDouble("churn-crash", 0.1,
                   "probability a churned task crashes");
    opts.addInt("churn-max", 4, "max concurrently-live churned tasks");
    opts.addInt("churn-seed", 99, "churn random seed");
    opts.addDouble("kill-at", 0.0,
                   "crash + restart the controller at this time, s "
                   "(0 = never)");
    opts.addBool("slo", false,
                 "arm the SLO degradation ladder (kp/kpsd)");
    opts.addDouble("slo-floor", 0.85,
                   "SLO floor: min acceptable ML perf ratio");
    opts.addInt("cluster", 0,
                "simulate a cluster of this many Kelp-managed nodes "
                "instead of one node (uses --ml, --config, --seed, "
                "--jobs, --slo-floor, --manifest, --decisions)");
    opts.addInt("cluster-epochs", 12,
                "simulated node-hours per node (--cluster runs)");
    opts.addString("cluster-placement", "interference",
                   "cluster scheduler: binpack|interference");
    opts.addString("traffic", "",
                   "open-loop request traffic spec, e.g. "
                   "shape=poisson,qps=300 or "
                   "shape=burst,qps=300,factor=8 (empty = "
                   "closed-loop ML task, the paper's setup)");
    opts.addBool("contract-selftest", false,
                 "deliberately violate one contract before the run "
                 "(verifies the release-mode violation counter "
                 "end-to-end)");
    opts.addBool("full-tick", false,
                 "disable the event-driven fast path: every tick "
                 "runs the full pipeline (results are bit-identical; "
                 "this is the A/B reference for perf work)");
    opts.addBool("perf", false,
                 "print wall-clock simulation throughput "
                 "(nondeterministic; excluded from byte-diff flows)");
    opts.addInt("jobs", 0,
                "worker threads (0 = all cores, 1 = serial); the "
                "standalone reference and the measured run are "
                "independent jobs");
    if (!opts.parse(argc, argv))
        return 0;
    if (!opts.positional().empty()) {
        // A bare word is a mistyped flag or scenario name; running
        // the default experiment instead (and exiting 0) would let
        // scripted sweeps silently collect the wrong data.
        std::fprintf(stderr,
                     "kelpsim: unexpected argument '%s'\n\n%s",
                     opts.positional().front().c_str(),
                     opts.usage().c_str());
        return 2;
    }

    if (opts.getInt("cluster") > 0) {
        cluster::ClusterConfig ccfg;
        ccfg.nodes = static_cast<int>(opts.getInt("cluster"));
        ccfg.epochs = static_cast<int>(opts.getInt("cluster-epochs"));
        ccfg.placement =
            parsePlacement(opts.getString("cluster-placement"));
        ccfg.ml = parseMl(opts.getString("ml"));
        ccfg.config = parseConfig(opts.getString("config"));
        ccfg.sloFloor = opts.getDouble("slo-floor");
        ccfg.seed = static_cast<uint64_t>(opts.getInt("seed"));
        ccfg.jobs = static_cast<int>(opts.getInt("jobs"));

        trace::DecisionLog clog;
        std::string clusterDecisions = opts.getString("decisions");
        cluster::ClusterResult cr = cluster::simulateCluster(
            ccfg, clusterDecisions.empty() ? nullptr : &clog);

        std::printf("cluster: %d nodes x %d node-hours, %s "
                    "scheduler, %s nodes (%s)\n",
                    ccfg.nodes, ccfg.epochs,
                    cluster::placementName(ccfg.placement),
                    exp::configName(ccfg.config),
                    wl::mlName(ccfg.ml));
        std::printf("%s", cr.canonicalText().c_str());

        if (!clusterDecisions.empty()) {
            if (!clog.writeJsonl(clusterDecisions))
                sim::fatal("cannot write decision log to ",
                           clusterDecisions);
            std::printf("decision log written to %s (%zu events)\n",
                        clusterDecisions.c_str(), clog.size());
        }
        std::string clusterManifest = opts.getString("manifest");
        if (!clusterManifest.empty()) {
            trace::RunManifest man;
            man.set("tool", "kelpsim-cluster");
            man.set("ml", wl::mlName(ccfg.ml));
            man.set("config", exp::configName(ccfg.config));
            man.set("placement",
                    cluster::placementName(ccfg.placement));
            man.set("nodes", ccfg.nodes);
            man.set("epochs", ccfg.epochs);
            man.set("seed", ccfg.seed);
            man.set("slo_floor", ccfg.sloFloor);
            man.set("arrivals", cr.arrivals);
            man.set("placed", cr.placed);
            man.set("rejected", cr.rejected);
            man.set("migrations", cr.migrations);
            man.set("evictions", cr.evictions);
            man.set("finished", cr.finished);
            man.set("running_at_end", cr.runningAtEnd);
            man.set("node_hours", cr.nodeHours);
            man.set("slo_node_hours", cr.sloNodeHours);
            man.set("slo_fraction", cr.sloFraction());
            man.set("stranded_ratio", cr.strandedRatio());
            man.set("evaluations", cr.evaluations);
            man.set("contract_violations", sim::contractViolations());
            man.addSamples("node_tail_p95_s", cr.tailSamples);
            if (!man.writeJson(clusterManifest))
                sim::fatal("cannot write manifest to ",
                           clusterManifest);
            std::printf("manifest written to %s\n",
                        clusterManifest.c_str());
        }
        return 0;
    }

    exp::RunConfig cfg;
    cfg.ml = parseMl(opts.getString("ml"));
    cfg.config = parseConfig(opts.getString("config"));
    if (!opts.getString("cpu").empty())
        cfg.cpu = parseCpu(opts.getString("cpu"));
    cfg.cpuInstances = static_cast<int>(opts.getInt("instances"));
    cfg.cpuThreadsOverride = static_cast<int>(opts.getInt("threads"));
    cfg.aggressorLevel = parseLevel(opts.getString("level"));
    cfg.warmup = opts.getDouble("warmup");
    cfg.measure = opts.getDouble("measure");
    cfg.samplePeriod = opts.getDouble("period");
    cfg.seed = static_cast<uint64_t>(opts.getInt("seed"));
    cfg.faults = hal::FaultPlan::parse(opts.getString("faults"));
    cfg.faultSeed = static_cast<uint64_t>(opts.getInt("fault-seed"));
    cfg.hardened = !opts.getBool("naive");
    cfg.churn.enabled = opts.getBool("churn");
    cfg.churn.arrivalRate = opts.getDouble("churn-rate");
    cfg.churn.crashProb = opts.getDouble("churn-crash");
    cfg.churn.maxLive = static_cast<int>(opts.getInt("churn-max"));
    cfg.churn.seed = static_cast<uint64_t>(opts.getInt("churn-seed"));
    cfg.killAt = opts.getDouble("kill-at");
    cfg.slo.enabled = opts.getBool("slo");
    cfg.slo.minPerfRatio = opts.getDouble("slo-floor");
    if (!opts.getString("traffic").empty()) {
        std::string terr;
        std::optional<serve::TrafficSpec> traffic =
            serve::TrafficSpec::tryParse(opts.getString("traffic"),
                                         &terr);
        if (!traffic)
            sim::fatal("bad --traffic spec: ", terr);
        cfg.serving.enabled = true;
        cfg.serving.traffic = *traffic;
    }
    cfg.eventDriven = !opts.getBool("full-tick");

    if (opts.getBool("contract-selftest")) {
        // Count mode regardless of build type so the violation is
        // recorded (not fatal) and shows up in the report below.
        sim::setContractMode(sim::ContractMode::Count);
        KELP_INVARIANT(false, "contract self-test (--contract-selftest)");
    }

    std::string csv = opts.getString("telemetry");
    std::string tracePath = opts.getString("trace");
    std::string decisionsPath = opts.getString("decisions");
    std::string manifestPath = opts.getString("manifest");

    trace::Telemetry tel;
    trace::TraceRecorder recorder;
    trace::DecisionLog decisions;
    exp::Observability obs;
    // A trace wants the telemetry counter tracks too, so the probes
    // run whenever either output is requested.
    if (!csv.empty() || !tracePath.empty())
        obs.telemetry = &tel;
    if (!tracePath.empty())
        obs.recorder = &recorder;
    if (!decisionsPath.empty() || !tracePath.empty())
        obs.decisions = &decisions;

    exp::RunResult ref;
    exp::RunResult r;
    // kelp: allow(determinism): wall time feeds only the --perf line
    auto wall0 = std::chrono::steady_clock::now();
    if (!obs.any() && manifestPath.empty()) {
        // The standalone reference and the measured run share no
        // state (the reference memo is guarded), so they are two
        // independent jobs; --jobs 1 reproduces the serial order.
        exp::runJobs(2, static_cast<int>(opts.getInt("jobs")),
                     [&](int i) {
                         if (i == 0)
                             ref = exp::standaloneReference(cfg.ml);
                         else
                             r = exp::runScenario(cfg);
                     });
    } else {
        // Instrumented run. measureScenario is the same measurement
        // body runScenario uses, so the observability sinks never
        // change the reported numbers.
        ref = exp::standaloneReference(cfg.ml);
        exp::Scenario s = exp::buildScenario(cfg, obs);
        r = exp::measureScenario(s, cfg);

        if (!csv.empty()) {
            if (!tel.writeCsv(csv))
                sim::fatal("cannot write telemetry to ", csv);
            std::printf("telemetry written to %s\n", csv.c_str());
        }
        if (!tracePath.empty()) {
            recorder.importTelemetry(tel);
            recorder.importDecisions(decisions);
            if (!recorder.writeJson(tracePath))
                sim::fatal("cannot write trace to ", tracePath);
            std::printf("trace written to %s (%zu events)\n",
                        tracePath.c_str(), recorder.size());
        }
        if (!decisionsPath.empty()) {
            if (!decisions.writeJsonl(decisionsPath))
                sim::fatal("cannot write decision log to ",
                           decisionsPath);
            std::printf("decision log written to %s (%zu events)\n",
                        decisionsPath.c_str(), decisions.size());
        }
        if (!manifestPath.empty()) {
            trace::RunManifest man;
            man.set("tool", "kelpsim");
            man.set("ml", wl::mlName(cfg.ml));
            man.set("cpu", cfg.cpu ? wl::cpuName(*cfg.cpu) : "");
            man.set("config", exp::configName(cfg.config));
            man.set("cpu_instances", cfg.cpuInstances);
            man.set("seed", cfg.seed);
            man.set("tick_s", cfg.tick);
            man.set("warmup_s", cfg.warmup);
            man.set("measure_s", cfg.measure);
            man.set("sample_period_s", cfg.samplePeriod);
            man.set("faults", cfg.faults.any());
            man.set("hardened", cfg.hardened);
            man.set("churn", cfg.churn.enabled);
            man.set("slo", cfg.slo.enabled);
            man.set("contract_violations", sim::contractViolations());
            exp::forEachField([&](const auto &field) {
                man.set(field.name, r.*field.member);
            });
            man.set("ml_perf_ref", ref.mlPerf);
            man.set("decision_events", decisions.size());
            man.set("engine_skip_ratio", r.skipRatio());
            if (s.inferTask) {
                man.addHistogram("ml_request_latency_s",
                                 s.inferTask->latency());
            }
            if (s.server) {
                man.set("traffic", cfg.serving.traffic.toString());
                man.addHistogram("request_latency_s",
                                 s.server->latency());
            }
            if (!man.writeJson(manifestPath))
                sim::fatal("cannot write manifest to ", manifestPath);
            std::printf("manifest written to %s\n",
                        manifestPath.c_str());
        }
    }

    std::printf("%s %s%s under %s:\n", wl::mlName(cfg.ml),
                cfg.cpu ? "+ " : "(standalone)",
                cfg.cpu ? wl::cpuName(*cfg.cpu) : "",
                exp::configName(cfg.config));
    std::printf("  ML performance : %.2f /s (%.0f%% of standalone)\n",
                r.mlPerf, 100.0 * r.mlPerf / ref.mlPerf);
    if (r.mlTailP95 > 0.0) {
        std::printf("  p95 latency    : %.2f ms (standalone %.2f)\n",
                    1e3 * r.mlTailP95, 1e3 * ref.mlTailP95);
    }
    std::printf("  CPU throughput : %.2f units/s\n", r.cpuThroughput);
    std::printf("  knobs (avg)    : lo cores %.1f, prefetchers %.1f, "
                "backfill %.1f\n",
                r.avgLoCores, r.avgLoPrefetchers, r.avgHiBackfill);
    if (cfg.faults.any()) {
        std::printf("  faults         : %s controller, fail-safe "
                    "entries %llu, time in fail-safe %.0f s\n",
                    cfg.hardened ? "hardened" : "naive",
                    static_cast<unsigned long long>(r.failSafeEntries),
                    r.timeInFailSafe);
    }
    if (cfg.churn.enabled) {
        std::printf("  churn          : %llu arrivals, %llu finished, "
                    "%llu crashed, %llu rejected\n",
                    static_cast<unsigned long long>(r.churnArrivals),
                    static_cast<unsigned long long>(r.churnFinishes),
                    static_cast<unsigned long long>(r.churnCrashes),
                    static_cast<unsigned long long>(r.churnRejected));
    }
    if (cfg.serving.enabled) {
        std::printf(
            "  traffic        : %s\n",
            cfg.serving.traffic.toString().c_str());
        std::printf(
            "  requests       : %llu arrived, %llu admitted, "
            "%llu rejected, %llu shed, %llu expired, "
            "%llu completed, %llu in flight\n",
            static_cast<unsigned long long>(r.reqArrivals),
            static_cast<unsigned long long>(r.reqAdmitted),
            static_cast<unsigned long long>(r.reqRejected),
            static_cast<unsigned long long>(r.reqShed),
            static_cast<unsigned long long>(r.reqExpired),
            static_cast<unsigned long long>(r.reqCompleted),
            static_cast<unsigned long long>(r.reqInFlight));
        std::printf("  request tails  : p99 %.2f ms, p99.9 %.2f ms, "
                    "p99.99 %.2f ms\n",
                    1e3 * r.reqP99, 1e3 * r.reqP999,
                    1e3 * r.reqP9999);
        std::printf("  brownout       : %llu transitions, final "
                    "level %d\n",
                    static_cast<unsigned long long>(
                        r.brownoutTransitions),
                    r.brownoutFinal);
    }
    if (cfg.killAt > 0.0) {
        std::printf("  restarts       : %llu (kill at %.0f s)\n",
                    static_cast<unsigned long long>(r.restarts),
                    cfg.killAt);
    }
    if (cfg.slo.enabled) {
        std::printf("  SLO ladder     : %llu violations, %llu rung "
                    "transitions, final rung %s\n",
                    static_cast<unsigned long long>(r.sloViolations),
                    static_cast<unsigned long long>(r.sloTransitions),
                    runtime::sloRungName(r.sloFinalRung));
    }
    if (sim::contractViolations() > 0) {
        std::printf("  contracts      : %llu violation(s) recorded "
                    "(counted, not fatal)\n",
                    static_cast<unsigned long long>(
                        sim::contractViolations()));
    }
    // Tick-engine cost breakdown: how much of the run the
    // event-driven engine proved quiescent and skipped, and what the
    // full-path ticks actually paid for. Deterministic counters --
    // safe inside the CI byte-diff.
    std::printf("  tick engine    : %llu ticks (%llu fast-forwarded, "
                "%llu executed), skip %.1f%%\n",
                static_cast<unsigned long long>(r.engineTicks),
                static_cast<unsigned long long>(r.engineFastTicks),
                static_cast<unsigned long long>(r.engineFullTicks),
                100.0 * r.skipRatio());
    std::printf("  full-path cost : %llu demand + %llu advance calls, "
                "%llu periodic fires, %llu fast task-ticks\n",
                static_cast<unsigned long long>(r.demandCalls),
                static_cast<unsigned long long>(r.advanceCalls),
                static_cast<unsigned long long>(r.periodicFires),
                static_cast<unsigned long long>(r.fastTaskTicks));
    std::printf("  resolve cache  : mem %llu hit / %llu miss, "
                "mc %llu hit / %llu miss, %llu mem fast ticks\n",
                static_cast<unsigned long long>(r.resolveCacheHits),
                static_cast<unsigned long long>(r.resolveCacheMisses),
                static_cast<unsigned long long>(r.mcCacheHits),
                static_cast<unsigned long long>(r.mcCacheMisses),
                static_cast<unsigned long long>(r.memFastTicks));
    if (opts.getBool("perf")) {
        // kelp: allow(determinism): --perf opts into wall clocks
        auto wall1 = std::chrono::steady_clock::now();
        double wall_s =
            std::chrono::duration<double>(wall1 - wall0).count();
        double tps = wall_s > 0.0
                         ? static_cast<double>(r.engineTicks) / wall_s
                         : 0.0;
        std::printf("  throughput     : %.3g ticks/s wall "
                    "(%.2f s wall for %.0f s simulated)\n",
                    tps, wall_s, cfg.warmup + cfg.measure);
    }
    return 0;
}
