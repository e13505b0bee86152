#include "fuzz/oracle.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <type_traits>

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

/** A field value as resultText prints it. */
template <typename T>
std::string
valueText(T v)
{
    if constexpr (std::is_floating_point_v<T>)
        return formatDouble(v);
    else
        return std::to_string(v);
}

/** A NaN, infinite or negative double, or a negative int. */
template <typename T>
bool
badValue(T v)
{
    if constexpr (std::is_floating_point_v<T>)
        return !std::isfinite(v) || v < 0.0;
    else if constexpr (std::is_signed_v<T>)
        return v < 0;
    else
        return false;
}

std::string
fieldsText(const exp::RunResult &r, bool counters)
{
    std::string out;
    exp::forEachField([&](const auto &field) {
        if (field.kind == exp::FieldKind::Result || counters)
            out += std::string(field.name) + "=" +
                   valueText(r.*field.member) + "\n";
    });
    return out;
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
    return fieldsText(r, false);
}

std::string
resultTextWithCounters(const exp::RunResult &r)
{
    return fieldsText(r, true);
}

std::string
firstBadMetric(const exp::RunResult &r)
{
    std::string bad;
    exp::forEachField([&](const auto &field) {
        const auto v = r.*field.member;
        if (bad.empty() && field.kind == exp::FieldKind::Result &&
            badValue(v))
            bad = std::string(field.name) + "=" + valueText(v);
    });
    return bad;
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
