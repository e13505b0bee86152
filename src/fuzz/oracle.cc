#include "fuzz/oracle.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "sim/log.hh"
#include "trace/decision_log.hh"

namespace kelp {
namespace fuzz {

namespace {

/** One executed run: summary, audit log, and per-thread contract
 * delta, plus the watchdog recovery threshold the run was built
 * with (for the stuck-watchdog runway computation). */
struct RunCapture
{
    exp::RunResult result;
    trace::DecisionLog log;
    uint64_t contractDelta = 0;
    int recoverThreshold = 3;
};

/**
 * Execute one config with a decision log attached. Contract
 * violations are measured with the calling thread's counter, so
 * concurrent trials on pool workers attribute violations exactly.
 * With @p mem_reuse false the memory system reuses nothing across
 * ticks (no resolve cache, flow-plan reuse, or arbitration skip).
 *
 * Never writes ContractMode from a worker: parallel callers must have
 * set Count mode up front. The serial fallback here keeps one-off
 * callers (corpus replay of a single spec, tests) honest.
 */
RunCapture
execute(const exp::RunConfig &cfg, bool mem_reuse = true)
{
    if (sim::contractMode() != sim::ContractMode::Count)
        sim::setContractMode(sim::ContractMode::Count);

    RunCapture cap;
    exp::Observability obs;
    obs.decisions = &cap.log;

    const uint64_t before = sim::contractViolationsHere();
    exp::Scenario s = exp::buildScenario(cfg, obs);
    if (!mem_reuse)
        s.node->memSystem().setResolveCacheEnabled(false);
    cap.result = exp::measureScenario(s, cfg);
    cap.contractDelta = sim::contractViolationsHere() - before;
    if (s.manager)
        cap.recoverThreshold = s.manager->watchdog().recoverThreshold;
    return cap;
}

void
field(std::ostringstream &os, const char *key, double v)
{
    os << key << "=" << formatDouble(v) << "\n";
}

void
field(std::ostringstream &os, const char *key, uint64_t v)
{
    os << key << "=" << v << "\n";
}

/** '+', '-', or '=' for one knob delta. */
char
direction(int oldV, int newV)
{
    if (newV > oldV)
        return '+';
    if (newV < oldV)
        return '-';
    return '=';
}

bool
badDouble(double v)
{
    return !std::isfinite(v) || v < 0.0;
}

/** First summary field that is NaN/inf/negative, or "" if none. */
std::string
firstBadMetric(const exp::RunResult &r)
{
    const struct
    {
        const char *name;
        double value;
    } checks[] = {
        {"mlPerf", r.mlPerf},
        {"mlTailP95", r.mlTailP95},
        {"cpuThroughput", r.cpuThroughput},
        {"avgLoCores", r.avgLoCores},
        {"avgLoPrefetchers", r.avgLoPrefetchers},
        {"avgHiBackfill", r.avgHiBackfill},
        {"timeInFailSafe", r.timeInFailSafe},
        {"avgSaturation", r.avgSaturation},
        {"avgSocketBw", r.avgSocketBw},
        {"reqP99", r.reqP99},
        {"reqP999", r.reqP999},
        {"reqP9999", r.reqP9999},
    };
    for (const auto &c : checks) {
        if (badDouble(c.value))
            return std::string(c.name) + "=" + formatDouble(c.value);
    }
    if (r.sloFinalRung < 0)
        return "sloFinalRung=" + std::to_string(r.sloFinalRung);
    return "";
}

/** True when the spec has any controller kill scheduled. */
bool
hasKills(const exp::RunConfig &cfg)
{
    return cfg.killAt > 0.0 || !cfg.kills.empty();
}

/**
 * The stuck-watchdog judgment: the last fail-safe entry was never
 * followed by a re-arm, even though the run left enough healthy
 * runway (recoverThreshold consecutive samples, plus slack) for
 * recovery. A trip shortly before end of run is not "stuck" -- the
 * watchdog simply ran out of samples.
 */
std::string
stuckWatchdog(const RunCapture &cap, const exp::RunConfig &cfg)
{
    sim::Time lastTrip = -1.0;
    bool rearmedAfter = true;
    for (const trace::DecisionEvent &ev : cap.log.events()) {
        if (ev.kind == "watchdog-trip") {
            lastTrip = ev.time;
            rearmedAfter = false;
        } else if (ev.kind == "watchdog-rearm") {
            rearmedAfter = true;
        }
    }
    if (lastTrip < 0.0 || rearmedAfter)
        return "";
    const sim::Time end = cfg.warmup + cfg.measure;
    const sim::Time runway =
        (cap.recoverThreshold + 2) * cfg.samplePeriod;
    if (lastTrip + runway > end)
        return "";
    std::ostringstream os;
    os << "tripped at " << formatDouble(lastTrip)
       << "s, never re-armed by end of run ("
       << formatDouble(end) << "s)";
    return os.str();
}

} // namespace

const std::vector<std::string> &
oracleNames()
{
    static const std::vector<std::string> kNames = {
        "contract-violation", "watchdog-stuck",
        "ladder-thrash",      "bad-metric",
        "request-conservation", "restart-divergence",
        "nondeterminism",     "reference-divergence",
    };
    return kNames;
}

std::string
resultText(const exp::RunResult &r)
{
    std::ostringstream os;
    field(os, "mlPerf", r.mlPerf);
    field(os, "mlTailP95", r.mlTailP95);
    field(os, "cpuThroughput", r.cpuThroughput);
    field(os, "avgLoCores", r.avgLoCores);
    field(os, "avgLoPrefetchers", r.avgLoPrefetchers);
    field(os, "avgHiBackfill", r.avgHiBackfill);
    field(os, "timeInFailSafe", r.timeInFailSafe);
    field(os, "failSafeEntries", r.failSafeEntries);
    field(os, "avgSaturation", r.avgSaturation);
    field(os, "avgSocketBw", r.avgSocketBw);
    field(os, "churnArrivals", r.churnArrivals);
    field(os, "churnFinishes", r.churnFinishes);
    field(os, "churnCrashes", r.churnCrashes);
    field(os, "churnRejected", r.churnRejected);
    field(os, "restarts", r.restarts);
    field(os, "sloViolations", r.sloViolations);
    field(os, "sloTransitions", r.sloTransitions);
    os << "sloFinalRung=" << r.sloFinalRung << "\n";
    field(os, "reqArrivals", r.reqArrivals);
    field(os, "reqAdmitted", r.reqAdmitted);
    field(os, "reqRejected", r.reqRejected);
    field(os, "reqShed", r.reqShed);
    field(os, "reqExpired", r.reqExpired);
    field(os, "reqCompleted", r.reqCompleted);
    field(os, "reqInFlight", r.reqInFlight);
    field(os, "brownoutTransitions", r.brownoutTransitions);
    os << "brownoutFinal=" << r.brownoutFinal << "\n";
    field(os, "reqP99", r.reqP99);
    field(os, "reqP999", r.reqP999);
    field(os, "reqP9999", r.reqP9999);
    return os.str();
}

double
ladderThrashRate(uint64_t transitions, double horizon,
                 double samplePeriod)
{
    if (horizon <= 0.0 || samplePeriod <= 0.0)
        return 0.0;
    const double samples = horizon / samplePeriod;
    return static_cast<double>(transitions) / samples;
}

std::vector<std::string>
coverageKeys(const trace::DecisionLog &log)
{
    std::set<std::string> keys;
    const std::string *prev = nullptr;
    for (const trace::DecisionEvent &ev : log.events()) {
        keys.insert("kind:" + ev.kind);
        if (prev)
            keys.insert("pair:" + *prev + ">" + ev.kind);
        prev = &ev.kind;
        if (ev.changedKnobs()) {
            std::string sig = "knob:";
            sig += direction(ev.loCoresOld, ev.loCoresNew);
            sig += direction(ev.loPrefetchersOld, ev.loPrefetchersNew);
            sig += direction(ev.hiBackfillOld, ev.hiBackfillNew);
            keys.insert(sig);
        }
    }
    return std::vector<std::string>(keys.begin(), keys.end());
}

TrialOutcome
runTrial(const ScenarioSpec &spec, const OracleConfig &ocfg)
{
    const exp::RunConfig &cfg = spec.cfg;
    RunCapture primary = execute(cfg);

    TrialOutcome out;
    out.resultText = resultText(primary.result);
    out.coverage = coverageKeys(primary.log);
    out.decisionEvents = primary.log.size();

    if (primary.contractDelta > 0) {
        out.hits.push_back(
            {"contract-violation",
             std::to_string(primary.contractDelta) +
                 " contract violation(s) during the run"});
    }

    if (std::string why = stuckWatchdog(primary, cfg); !why.empty())
        out.hits.push_back({"watchdog-stuck", why});

    if (cfg.slo.enabled) {
        const double rate =
            ladderThrashRate(primary.result.sloTransitions,
                             cfg.warmup + cfg.measure,
                             cfg.samplePeriod);
        if (rate > ocfg.thrashRate) {
            out.hits.push_back(
                {"ladder-thrash",
                 "rung transition rate " + formatDouble(rate) +
                     "/sample exceeds " +
                     formatDouble(ocfg.thrashRate)});
        }
    }

    if (std::string bad = firstBadMetric(primary.result); !bad.empty())
        out.hits.push_back({"bad-metric", bad});

    /*
     * Request conservation: every arrival is accounted for exactly
     * once. The server enforces the same books with KELP_INVARIANT
     * every tick; this end-of-run check re-derives it from the
     * summary counters so a broken drop path is caught even when a
     * build strips contracts.
     */
    if (cfg.serving.enabled) {
        const exp::RunResult &r = primary.result;
        const uint64_t admitted =
            r.reqCompleted + r.reqShed + r.reqExpired + r.reqInFlight;
        const uint64_t arrivals = r.reqAdmitted + r.reqRejected;
        if (r.reqAdmitted != admitted || r.reqArrivals != arrivals) {
            std::ostringstream os;
            os << "arrivals=" << r.reqArrivals << " admitted="
               << r.reqAdmitted << " rejected=" << r.reqRejected
               << " completed=" << r.reqCompleted << " shed="
               << r.reqShed << " expired=" << r.reqExpired
               << " in-flight=" << r.reqInFlight
               << " do not balance";
            out.hits.push_back({"request-conservation", os.str()});
        }
    }

    /*
     * restart-divergence is only a defect where restart is specified
     * to be bit-neutral: no faults (reconciliation against a faulty
     * HAL may legitimately repair differently) and no SLO ladder (a
     * restart resets the guard's hysteresis streaks by design).
     */
    if (ocfg.twinRun && hasKills(cfg) && !cfg.faults.any() &&
        !cfg.slo.enabled) {
        exp::RunConfig twin = cfg;
        twin.killAt = 0.0;
        twin.kills.clear();
        RunCapture unkilled = execute(twin);
        exp::RunResult masked = unkilled.result;
        masked.restarts = primary.result.restarts;
        if (resultText(masked) != out.resultText) {
            out.hits.push_back(
                {"restart-divergence",
                 "killed run differs from unkilled twin beyond the "
                 "restart counter"});
        }
    }

    if (ocfg.doubleRun) {
        RunCapture replay = execute(cfg);
        if (resultText(replay.result) != out.resultText) {
            out.hits.push_back(
                {"nondeterminism",
                 "same-seed re-run produced different metrics"});
        } else if (replay.log.toJsonl() != primary.log.toJsonl()) {
            out.hits.push_back(
                {"nondeterminism",
                 "same-seed re-run produced a different decision "
                 "log"});
        }
    }

    /*
     * Every optimisation switch is specified to be bit-neutral, so the
     * reference path -- full ticks, and a memory system that reuses
     * nothing across ticks -- must reproduce the primary run byte for
     * byte.
     */
    if (ocfg.referenceRun) {
        exp::RunConfig reference = cfg;
        reference.eventDriven = false;
        RunCapture replay = execute(reference, false);
        if (resultText(replay.result) != out.resultText) {
            out.hits.push_back(
                {"reference-divergence",
                 "reference-path re-run produced different metrics"});
        } else if (replay.log.toJsonl() != primary.log.toJsonl()) {
            out.hits.push_back(
                {"reference-divergence",
                 "reference-path re-run produced a different decision "
                 "log"});
        }
    }

    return out;
}

bool
oracleFires(const ScenarioSpec &spec, const std::string &oracle,
            const OracleConfig &ocfg)
{
    const std::vector<std::string> &names = oracleNames();
    if (std::find(names.begin(), names.end(), oracle) == names.end())
        sim::fatal("unknown oracle name: ", oracle);

    // Skip the expensive extra runs unless this oracle needs them.
    OracleConfig narrowed = ocfg;
    narrowed.twinRun = (oracle == "restart-divergence");
    narrowed.doubleRun = (oracle == "nondeterminism");
    narrowed.referenceRun = (oracle == "reference-divergence");

    TrialOutcome out = runTrial(spec, narrowed);
    for (const OracleHit &hit : out.hits) {
        if (hit.name == oracle)
            return true;
    }
    return false;
}

} // namespace fuzz
} // namespace kelp
