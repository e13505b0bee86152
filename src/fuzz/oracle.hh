/**
 * @file
 * Trial execution and the oracle set: what it means for one fuzzed
 * scenario to "fail".
 *
 * A trial executes a ScenarioSpec (deterministically: everything is
 * seeded through the spec) and checks the run against oracles that
 * encode the repository's cross-cutting robustness guarantees rather
 * than any single expected output:
 *
 *  - contract-violation  a KELP_EXPECTS/ENSURES/INVARIANT fired
 *                        (counted per worker thread, so parallel
 *                        trials attribute violations exactly);
 *  - watchdog-stuck      the fail-safe watchdog tripped and never
 *                        re-armed despite enough remaining runway for
 *                        recovery;
 *  - ladder-thrash       the SLO ladder oscillated between rungs
 *                        faster than the hysteresis bound;
 *  - bad-metric          a NaN, infinity, or negative value in the
 *                        run's summary metrics;
 *  - request-conservation  the request-serving drop accounting does
 *                        not balance: admitted != completed + shed +
 *                        expired + in-flight, or arrivals !=
 *                        admitted + rejected (only judged when the
 *                        spec enables open-loop traffic);
 *  - restart-divergence  a kill/restart schedule changed the result
 *                        versus an unkilled twin run (only judged in
 *                        the fault-free, SLO-off regime where restart
 *                        is specified to be bit-neutral);
 *  - nondeterminism      re-running the identical spec produced a
 *                        byte-different result or decision log;
 *  - reference-divergence  the spec rerun on the reference path (full
 *                        ticks, no reuse across ticks in the memory
 *                        system) produced a byte-different result or
 *                        decision log.
 *
 * The trial also extracts the coverage signature the fuzzer's search
 * is guided by: the set of controller decision patterns (event kinds,
 * consecutive-kind pairs, knob-delta directions) observed in the
 * DecisionLog.
 *
 * Threading: trials run inside exp::pool workers. runTrial() never
 * writes process-global state on a worker thread; callers that fan
 * out must set ContractMode::Count on the main thread first (fuzz()
 * and the CLI do).
 */

#ifndef KELP_FUZZ_ORACLE_HH
#define KELP_FUZZ_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/spec.hh"

namespace kelp {

namespace trace {
class DecisionLog;
}

namespace fuzz {

/** Oracle thresholds and toggles. */
struct OracleConfig
{
    /**
     * ladder-thrash threshold: SLO rung transitions per controller
     * sample above which the ladder is oscillating rather than
     * converging. The hysteresis counters (escalateAfter /
     * deescalateAfter >= 1) bound a well-behaved ladder well below
     * one transition every other sample.
     */
    double thrashRate = 0.25;

    /** Run the unkilled twin for the restart-divergence oracle. */
    bool twinRun = true;

    /** Re-run the spec for the nondeterminism oracle. */
    bool doubleRun = true;

    /** Re-run the spec on the reference path for the
     * reference-divergence oracle. */
    bool referenceRun = true;
};

/** One oracle firing. */
struct OracleHit
{
    /** Oracle name (stable identifier, see oracleNames()). */
    std::string name;

    /** Deterministic human-readable evidence. */
    std::string detail;
};

/** Everything a fuzz trial learned about one spec. */
struct TrialOutcome
{
    /** Canonical text of the primary run's RunResult. */
    std::string resultText;

    /** Oracles that fired, in fixed oracle order. */
    std::vector<OracleHit> hits;

    /** Sorted, de-duplicated coverage keys of the primary run. */
    std::vector<std::string> coverage;

    /** Decision-log length of the primary run. */
    uint64_t decisionEvents = 0;

    bool fired() const { return !hits.empty(); }
};

/** The fixed oracle-name universe, in reporting order. */
const std::vector<std::string> &oracleNames();

/**
 * Canonical text of a RunResult's result fields: one name=value line
 * per exp::kResultFields entry marked Result, in table order, doubles
 * as shortest round-trip decimals. Two runs of one spec agree when
 * their texts are equal, whichever path they took; the oracles, the
 * identity tests and perfbench's digests compare these bytes.
 */
std::string resultText(const exp::RunResult &r);

/** resultText followed by the tick-engine counters. Equal only for
 * runs that take the same path: same seed, job count, engine switch
 * and periodics. */
std::string resultTextWithCounters(const exp::RunResult &r);

/** First result field that is NaN, infinite or negative, as
 * "name=value", or "" when every field is sound. */
std::string firstBadMetric(const exp::RunResult &r);

/**
 * SLO rung transitions per controller sample for a run of
 * @p horizon simulated seconds sampled every @p samplePeriod.
 * Zero when the horizon or period is degenerate.
 */
double ladderThrashRate(uint64_t transitions, double horizon,
                        double samplePeriod);

/** Coverage signature of one run's decision log: event kinds,
 * consecutive kind pairs, and knob-move direction patterns. */
std::vector<std::string> coverageKeys(const trace::DecisionLog &log);

/** Execute @p spec and judge it against every enabled oracle. */
TrialOutcome runTrial(const ScenarioSpec &spec,
                      const OracleConfig &ocfg);

/**
 * Judge @p spec against a single oracle by name: true when that
 * oracle fires. Unknown names are fatal. The shrinker and the corpus
 * replayer use this as their predicate.
 */
bool oracleFires(const ScenarioSpec &spec, const std::string &oracle,
                 const OracleConfig &ocfg);

} // namespace fuzz
} // namespace kelp

#endif // KELP_FUZZ_ORACLE_HH
