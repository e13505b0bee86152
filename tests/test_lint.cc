/**
 * @file
 * Tests for the kelp-lint rule engine, driven as a library per the
 * design: each fixture under tests/lint_fixtures/ is read from disk
 * and handed to lintSource() under a virtual repo-relative path that
 * exercises the rule's path scoping. No subprocess is involved.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hh"

namespace {

using kelp::lint::Baseline;
using kelp::lint::Finding;
using kelp::lint::lintSource;

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<Finding>
lintFixture(const std::string &name, const std::string &virtualPath)
{
    return lintSource(virtualPath, readFixture(name));
}

int
countRule(const std::vector<Finding> &fs, const std::string &rule)
{
    int n = 0;
    for (const auto &f : fs)
        if (f.rule == rule)
            ++n;
    return n;
}

TEST(LintDeterminism, FlagsEveryEntropyAndClockSource)
{
    auto fs = lintFixture("bad_rand.cc", "src/exp/bad_rand.cc");
    // rand(), mt19937, random_device, time(nullptr), steady_clock.
    EXPECT_EQ(countRule(fs, "determinism"), 5);
    // Member accesses (e.time(), e.rand) must not fire.
    for (const auto &f : fs)
        EXPECT_LE(f.line, 14) << f.message;
}

TEST(LintDeterminism, RngImplementationIsExempt)
{
    auto fs = lintFixture("bad_rand.cc", "src/sim/rng.cc");
    EXPECT_EQ(countRule(fs, "determinism"), 0);
}

TEST(LintUnorderedIter, FlagsRangeForOverUnorderedInControlPaths)
{
    auto fs = lintFixture("bad_unordered.cc", "src/kelp/bad_unordered.cc");
    ASSERT_EQ(countRule(fs, "unordered-iter"), 1);
    for (const auto &f : fs)
        if (f.rule == "unordered-iter") {
            EXPECT_EQ(f.line, 13) << f.excerpt;
        }
}

TEST(LintUnorderedIter, OutsideControlPathsIsLegal)
{
    auto fs = lintFixture("bad_unordered.cc", "src/exp/bad_unordered.cc");
    EXPECT_EQ(countRule(fs, "unordered-iter"), 0);
}

TEST(LintKnobDiscipline, FlagsDirectMutatorCallsOutsideHal)
{
    auto fs = lintFixture("bad_knobs.cc", "src/exp/bad_knobs.cc");
    // setCores, setPrefetchersEnabled, setCatWays -- the bare
    // declaration at the bottom is not a call.
    EXPECT_EQ(countRule(fs, "knob-discipline"), 3);
}

TEST(LintKnobDiscipline, HalAndControllersAreExempt)
{
    EXPECT_EQ(countRule(lintFixture("bad_knobs.cc", "src/hal/bad_knobs.cc"),
                        "knob-discipline"),
              0);
    EXPECT_EQ(countRule(lintFixture("bad_knobs.cc", "src/kelp/bad_knobs.cc"),
                        "knob-discipline"),
              0);
}

TEST(LintFloatEq, FlagsEqualityAgainstFloatLiterals)
{
    auto fs = lintFixture("bad_floateq.cc", "src/exp/bad_floateq.cc");
    // x == 1.0, y != 0.5f, 2.5e-3 == x; int and hex comparisons pass.
    EXPECT_EQ(countRule(fs, "float-eq"), 3);
}

TEST(LintIncludeGuard, FlagsMismatchedGuard)
{
    auto fs = lintFixture("bad_guard.hh", "src/mem/bad_guard.hh");
    ASSERT_EQ(countRule(fs, "include-guard"), 1);
    for (const auto &f : fs)
        if (f.rule == "include-guard") {
            EXPECT_NE(f.message.find("KELP_MEM_BAD_GUARD_HH"),
                      std::string::npos)
                << f.message;
        }
}

TEST(LintIncludeGuard, ExpectedGuardNaming)
{
    EXPECT_EQ(kelp::lint::expectedGuard("src/kelp/slo_guard.hh"),
              "KELP_KELP_SLO_GUARD_HH");
    EXPECT_EQ(kelp::lint::expectedGuard("src/sim/log.hh"),
              "KELP_SIM_LOG_HH");
    EXPECT_EQ(kelp::lint::expectedGuard("tools/kelp_lint/lint.hh"),
              "KELP_TOOLS_KELP_LINT_LINT_HH");
}

TEST(LintUsingNamespace, FlagsUsingDirectiveInHeader)
{
    auto fs = lintFixture("bad_using.hh", "src/sim/bad_using.hh");
    EXPECT_EQ(countRule(fs, "using-namespace"), 1);
    // Guard in the fixture is correct for this virtual path.
    EXPECT_EQ(countRule(fs, "include-guard"), 0);
}

TEST(LintSuppression, ValidAllowSilencesTheFinding)
{
    auto fs = lintFixture("suppressed_ok.cc", "src/exp/suppressed_ok.cc");
    EXPECT_TRUE(fs.empty()) << kelp::lint::formatFinding(fs.front());
}

TEST(LintSuppression, AllowWithoutReasonIsItselfAFinding)
{
    auto fs = lintFixture("suppressed_noreason.cc",
                          "src/exp/suppressed_noreason.cc");
    // The malformed directive does not register, so the float-eq
    // finding survives alongside the bad-suppression finding.
    EXPECT_EQ(countRule(fs, "bad-suppression"), 1);
    EXPECT_EQ(countRule(fs, "float-eq"), 1);
}

TEST(LintSuppression, AllowFileSilencesWholeFile)
{
    std::string src = "// kelp: allow-file(float-eq): fixture-wide.\n"
                      "bool a(double x) { return x == 1.0; }\n"
                      "bool b(double x) { return x != 2.0; }\n";
    auto fs = lintSource("src/exp/allow_file.cc", src);
    EXPECT_TRUE(fs.empty());
}

TEST(LintSuppression, UnknownRuleNameIsRejected)
{
    std::string src =
        "// kelp: allow(no-such-rule): typo in the rule name.\n"
        "int x;\n";
    auto fs = lintSource("src/exp/typo.cc", src);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 1);
}

TEST(LintSuppression, LegacyToolPrefixedSpellingIsRejected)
{
    // The pre-unification spelling parsed per-tool; it now reads as a
    // stale directive and must be migrated to the `kelp:` grammar.
    std::string src =
        "bool a(double x) { return x == 1.0; } "
        "// kelp-lint: allow(float-eq): stale spelling.\n";
    auto fs = lintSource("src/exp/legacy.cc", src);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 1);
    // And it no longer suppresses anything.
    EXPECT_EQ(countRule(fs, "float-eq"), 1);
}

TEST(LintSuppression, AnalyzeRuleAllowParsesButStaysInactiveHere)
{
    // An allow naming the sibling tool's rule is legal (kelp-analyze
    // honours it) but silences nothing in kelp-lint.
    std::string src =
        "// kelp: allow(audit-completeness): actuation logged by caller.\n"
        "bool a(double x) { return x == 1.0; }\n";
    auto fs = lintSource("src/exp/foreign.cc", src);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 0);
    EXPECT_EQ(countRule(fs, "float-eq"), 1);
}

TEST(LintBaseline, CoversGrandfatheredFindingsByKey)
{
    auto fs = lintFixture("bad_floateq.cc", "src/exp/bad_floateq.cc");
    ASSERT_EQ(fs.size(), 3u);

    std::string text = "# grandfathered\n" + Baseline::entry(fs[0]) + "\n";
    Baseline base;
    ASSERT_TRUE(base.parse(text));
    EXPECT_EQ(base.size(), 1u);
    EXPECT_TRUE(base.covers(fs[0]));
    EXPECT_FALSE(base.covers(fs[1]));

    // The key has no line number: moving the finding within the file
    // must keep it covered.
    Finding moved = fs[0];
    moved.line += 100;
    EXPECT_TRUE(base.covers(moved));
}

TEST(LintBaseline, RejectsMalformedLines)
{
    Baseline base;
    EXPECT_FALSE(base.parse("only-one-field\n"));
}

TEST(LintRawParallelism, FlagsRawThreadingOutsidePool)
{
    auto fs = lintFixture("bad_thread.cc", "src/kelp/bad_thread.cc");
    // thread, jthread, async, mutex, recursive_mutex,
    // condition_variable -- member accesses, mylib:: symbols, and
    // this_thread sleeps must not fire.
    EXPECT_EQ(countRule(fs, "raw-parallelism"), 6);
    for (const auto &f : fs)
        if (f.rule == "raw-parallelism") {
            EXPECT_LE(f.line, 16) << f.message;
        }
}

TEST(LintRawParallelism, PoolImplementationIsExempt)
{
    EXPECT_EQ(countRule(lintFixture("bad_thread.cc", "src/exp/pool.cc"),
                        "raw-parallelism"),
              0);
    EXPECT_EQ(countRule(lintFixture("bad_thread.cc", "src/exp/pool.hh"),
                        "raw-parallelism"),
              0);
}

TEST(LintRawParallelism, TestsAreOutOfScope)
{
    // Tests may stage adversarial schedules with real sleeps/threads;
    // the rule polices the library, tools, and benches.
    EXPECT_EQ(countRule(lintFixture("bad_thread.cc",
                                    "tests/test_parallel.cc"),
                        "raw-parallelism"),
              0);
}

TEST(LintEngine, RuleListIsStable)
{
    const auto &rules = kelp::lint::allRules();
    ASSERT_EQ(rules.size(), 8u);
    EXPECT_EQ(rules.front(), "determinism");
}

} // namespace
