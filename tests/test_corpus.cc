/**
 * @file
 * Regression-corpus replay. Entries come in two lifecycles:
 *
 *  - open entries (no status directive) are still-unfixed finds:
 *    each must keep firing the oracle named in its `# oracle:`
 *    directive and must stay 1-minimal (no single-step reduction
 *    fires it). A miss means the corpus is stale -- either a
 *    genuine fix landed (promote the entry to fixed) or replay
 *    broke.
 *
 *  - `# status: fixed` entries are regression gates for repaired
 *    bugs: each must NOT fire its oracle. A firing here means the
 *    fix regressed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/fuzzer.hh"
#include "fuzz/oracle.hh"
#include "fuzz/shrink.hh"
#include "sim/log.hh"

using namespace kelp;
using namespace kelp::fuzz;

namespace {

const std::vector<std::pair<std::string, CorpusEntry>> &
corpus()
{
    static const auto entries = loadCorpus(CORPUS_DIR);
    return entries;
}

} // namespace

TEST(Corpus, HasEntries)
{
    EXPECT_FALSE(corpus().empty())
        << "tests/corpus/ lost its *.scenario entries";
}

TEST(Corpus, FileNamesAreCanonical)
{
    for (const auto &[name, entry] : corpus())
        EXPECT_EQ(name, corpusFileName(entry));
}

TEST(Corpus, OpenEntriesStillFireTheirOracle)
{
    sim::setContractMode(sim::ContractMode::Count);
    for (const auto &[name, entry] : corpus()) {
        if (entry.fixed)
            continue;
        EXPECT_TRUE(oracleFires(entry.spec, entry.oracle,
                                OracleConfig{}))
            << name << " no longer reproduces '" << entry.oracle
            << "'";
    }
}

TEST(Corpus, FixedEntriesStayQuiet)
{
    sim::setContractMode(sim::ContractMode::Count);
    for (const auto &[name, entry] : corpus()) {
        if (!entry.fixed)
            continue;
        EXPECT_FALSE(oracleFires(entry.spec, entry.oracle,
                                 OracleConfig{}))
            << name << " regressed: '" << entry.oracle
            << "' fires again on a scenario marked fixed";
    }
}

TEST(Corpus, ReplayIsDeterministic)
{
    sim::setContractMode(sim::ContractMode::Count);
    OracleConfig ocfg;
    ocfg.twinRun = false;
    ocfg.doubleRun = false;
    ocfg.referenceRun = false;
    for (const auto &[name, entry] : corpus()) {
        TrialOutcome a = runTrial(entry.spec, ocfg);
        TrialOutcome b = runTrial(entry.spec, ocfg);
        EXPECT_EQ(a.resultText, b.resultText) << name;
        EXPECT_EQ(a.coverage, b.coverage) << name;
    }
}

TEST(Corpus, OpenEntriesAreOneMinimal)
{
    // Minimality only means anything for entries that still fire;
    // a fixed entry's reductions trivially stay quiet too.
    sim::setContractMode(sim::ContractMode::Count);
    OracleConfig ocfg;
    for (const auto &[name, entry] : corpus()) {
        if (entry.fixed)
            continue;
        for (const ScenarioSpec &cand : shrinkCandidates(entry.spec)) {
            EXPECT_FALSE(oracleFires(cand, entry.oracle, ocfg))
                << name << " is not minimal: a smaller spec still "
                << "fires '" << entry.oracle << "':\n"
                << cand.toString();
        }
    }
}
