/**
 * @file
 * Tests for the kelp-analyze cross-TU rule engine, driven as a
 * library per the design: fixture files under tests/analyze_fixtures/
 * are read from disk and handed to analyzeFiles()/buildIndex() under
 * virtual repo-relative paths that exercise each rule's scoping, and
 * a second group of tests loads the *real* src/ tree (via
 * KELP_SOURCE_DIR) to pin that the shipped baseline is empty and that
 * single-field mutations of the tree are caught. No subprocess is
 * involved.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hh"

namespace {

namespace fs = std::filesystem;

using kelp::analyze::analyzeFiles;
using kelp::analyze::buildIndex;
using kelp::analyze::Finding;
using kelp::analyze::Index;
using kelp::analyze::moduleOf;
using kelp::analyze::parseLayering;
using kelp::analyze::SourceFile;

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing file " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
readFixture(const std::string &name)
{
    return readAll(std::string(ANALYZE_FIXTURE_DIR) + "/" + name);
}

/** Drive one fixture as the whole tree under a virtual src/ path. */
std::vector<Finding>
analyzeFixture(const std::string &name, const std::string &virtualPath,
               const std::string &layeringText = "")
{
    std::vector<SourceFile> files{{virtualPath, readFixture(name)}};
    return analyzeFiles(files, "layering.txt", layeringText);
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

std::string
replaceAll(std::string s, const std::string &from, const std::string &to)
{
    size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
        s.replace(pos, from.size(), to);
        pos += to.size();
    }
    return s;
}

// ---------------------------------------------------------------
// snapshot-completeness
// ---------------------------------------------------------------

TEST(AnalyzeSnapshot, UnserializedMemberFires)
{
    auto fs =
        analyzeFixture("snapshot_missing.hh", "src/kelp/widget.hh");
    ASSERT_EQ(countRule(fs, "snapshot-completeness"), 1);
    for (const auto &f : fs)
        if (f.rule == "snapshot-completeness") {
            EXPECT_NE(f.message.find("'lost_'"), std::string::npos)
                << f.message;
            EXPECT_NE(f.message.find("'Widget'"), std::string::npos);
        }
}

TEST(AnalyzeSnapshot, SerializedTransientWiringAndStaticAreQuiet)
{
    auto fs = analyzeFixture("snapshot_ok.hh", "src/kelp/widget.hh");
    EXPECT_EQ(countRule(fs, "snapshot-completeness"), 0);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 0);
}

TEST(AnalyzeSnapshot, CheckpointedMarkPullsClassIntoTheRule)
{
    auto fs =
        analyzeFixture("snapshot_marked.hh", "src/kelp/cache.hh");
    ASSERT_EQ(countRule(fs, "snapshot-completeness"), 1);
    for (const auto &f : fs)
        if (f.rule == "snapshot-completeness") {
            EXPECT_NE(f.message.find("'entries_'"), std::string::npos)
                << f.message;
        }
}

TEST(AnalyzeSnapshot, OutsideSrcTreeIsQuiet)
{
    auto fs = analyzeFixture("snapshot_missing.hh",
                             "tests/widget.hh");
    EXPECT_EQ(countRule(fs, "snapshot-completeness"), 0);
}

TEST(AnalyzeSnapshot, OutOfLineBodiesMergeAcrossFilesWithinModule)
{
    // The checkpoint bodies live in another TU; the serialized set
    // must merge across files -- but only for a class in the same
    // src module, so the same-named mem-module class keeps flagging.
    const std::string hh =
        "class Box {\n"
        "  public:\n"
        "    int snapshot() const;\n"
        "    void restore(int s);\n"
        "  private:\n"
        "    int level_ = 0;\n"
        "};\n";
    const std::string cc =
        "#include \"kelp/box.hh\"\n"
        "int Box::snapshot() const { return level_; }\n"
        "void Box::restore(int s) { level_ = s; }\n";
    std::vector<SourceFile> files{{"src/kelp/box.hh", hh},
                                  {"src/kelp/box.cc", cc},
                                  {"src/mem/box.hh", hh}};
    auto fs = analyzeFiles(files, "layering.txt",
                           "kelp: mem\nmem:\n");
    ASSERT_EQ(countRule(fs, "snapshot-completeness"), 1);
    for (const auto &f : fs)
        if (f.rule == "snapshot-completeness") {
            EXPECT_EQ(f.file, "src/mem/box.hh");
        }
}

// ---------------------------------------------------------------
// audit-completeness
// ---------------------------------------------------------------

TEST(AnalyzeAudit, UnauditedKnobWriteFires)
{
    auto fs =
        analyzeFixture("audit_missing.cc", "src/kelp/actuator.cc");
    ASSERT_EQ(countRule(fs, "audit-completeness"), 1);
    for (const auto &f : fs)
        if (f.rule == "audit-completeness") {
            EXPECT_NE(f.message.find("'setCores()'"),
                      std::string::npos)
                << f.message;
            EXPECT_NE(f.message.find("'enforce'"), std::string::npos);
        }
}

TEST(AnalyzeAudit, HelperCapabilityPropagatesThroughCallGraph)
{
    auto fs = analyzeFixture("audit_ok.cc", "src/kelp/actuator.cc");
    EXPECT_EQ(countRule(fs, "audit-completeness"), 0);
}

TEST(AnalyzeAudit, AllowDirectiveSuppressesAndItsRemovalRefires)
{
    auto fs =
        analyzeFixture("audit_allowed.cc", "src/kelp/actuator.cc");
    EXPECT_EQ(countRule(fs, "audit-completeness"), 0);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 0);

    // Strip the directive (keep the comment a plain comment): the
    // same write must become a finding again.
    std::string stripped = replaceAll(
        readFixture("audit_allowed.cc"),
        "kelp: allow(audit-completeness)", "note");
    std::vector<SourceFile> files{{"src/kelp/actuator.cc", stripped}};
    auto fs2 = analyzeFiles(files, "layering.txt", "");
    EXPECT_EQ(countRule(fs2, "audit-completeness"), 1);
}

TEST(AnalyzeAudit, OutsideControlModulesIsQuiet)
{
    // Knob writes in exp/ (experiment staging) are out of scope.
    auto fs =
        analyzeFixture("audit_missing.cc", "src/exp/actuator.cc");
    EXPECT_EQ(countRule(fs, "audit-completeness"), 0);
}

TEST(AnalyzeAudit, ServeModuleIsInScope)
{
    auto fs =
        analyzeFixture("audit_missing.cc", "src/serve/actuator.cc");
    EXPECT_EQ(countRule(fs, "audit-completeness"), 1);
}

// ---------------------------------------------------------------
// dirty-discipline
// ---------------------------------------------------------------

TEST(AnalyzeDirty, UnmarkedLifecycleMutationFires)
{
    auto fs =
        analyzeFixture("dirty_missing.cc", "src/exp/manager.cc");
    ASSERT_EQ(countRule(fs, "dirty-discipline"), 1);
    for (const auto &f : fs)
        if (f.rule == "dirty-discipline") {
            EXPECT_NE(f.message.find("'setLifeState()'"),
                      std::string::npos)
                << f.message;
            EXPECT_NE(f.message.find("'stop'"), std::string::npos);
        }
}

TEST(AnalyzeDirty, MutatorDefinitionOrCallerMarkingIsQuiet)
{
    auto fs = analyzeFixture("dirty_ok.cc", "src/exp/manager.cc");
    EXPECT_EQ(countRule(fs, "dirty-discipline"), 0);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 0);
}

TEST(AnalyzeDirty, AllowDirectiveSuppressesAndItsRemovalRefires)
{
    auto fs =
        analyzeFixture("dirty_allowed.cc", "src/exp/manager.cc");
    EXPECT_EQ(countRule(fs, "dirty-discipline"), 0);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 0);

    std::string stripped = replaceAll(
        readFixture("dirty_allowed.cc"),
        "kelp: allow(dirty-discipline)", "note");
    std::vector<SourceFile> files{{"src/exp/manager.cc", stripped}};
    auto fs2 = analyzeFiles(files, "layering.txt", "");
    EXPECT_EQ(countRule(fs2, "dirty-discipline"), 1);
}

TEST(AnalyzeDirty, KnobMutatorsAreInScopeAcrossAllOfSrc)
{
    // The audit fixture's unaudited setCores() is also a dirty-
    // discipline miss, and unlike audit-completeness the dirty rule
    // covers every src/ module, not just kelp/ and serve/.
    auto fs =
        analyzeFixture("audit_missing.cc", "src/exp/actuator.cc");
    EXPECT_EQ(countRule(fs, "dirty-discipline"), 1);
}

TEST(AnalyzeDirty, OutsideSrcTreeIsQuiet)
{
    auto fs = analyzeFixture("dirty_missing.cc", "tests/manager.cc");
    EXPECT_EQ(countRule(fs, "dirty-discipline"), 0);
}

// ---------------------------------------------------------------
// rng-discipline
// ---------------------------------------------------------------

TEST(AnalyzeRng, OuterRngUsedInsideJobLambdaFires)
{
    auto fs = analyzeFixture("rng_reuse.cc", "src/exp/campaign.cc");
    ASSERT_EQ(countRule(fs, "rng-discipline"), 1);
    for (const auto &f : fs)
        if (f.rule == "rng-discipline") {
            EXPECT_NE(f.message.find("'rng.uniform()'"),
                      std::string::npos)
                << f.message;
        }
}

TEST(AnalyzeRng, DerivedPerJobStreamIsQuiet)
{
    auto fs = analyzeFixture("rng_ok.cc", "src/exp/campaign.cc");
    EXPECT_EQ(countRule(fs, "rng-discipline"), 0);
}

// ---------------------------------------------------------------
// layering
// ---------------------------------------------------------------

TEST(AnalyzeLayering, UndeclaredEdgeFires)
{
    auto fs = analyzeFixture("layering_bad.cc", "src/serve/front.cc",
                             "serve: trace\ntrace:\nkelp: trace\n");
    ASSERT_EQ(countRule(fs, "layering"), 1);
    for (const auto &f : fs)
        if (f.rule == "layering") {
            EXPECT_NE(f.message.find("'serve -> kelp'"),
                      std::string::npos)
                << f.message;
        }
}

TEST(AnalyzeLayering, UndeclaredModuleFires)
{
    auto fs = analyzeFixture("layering_bad.cc", "src/serve/front.cc",
                             "kelp: trace\ntrace:\n");
    ASSERT_EQ(countRule(fs, "layering"), 1);
    for (const auto &f : fs)
        if (f.rule == "layering") {
            EXPECT_NE(f.message.find("not declared in the layering "
                                     "table"),
                      std::string::npos)
                << f.message;
        }
}

TEST(AnalyzeLayering, DeclaredEdgeIsQuiet)
{
    auto fs = analyzeFixture("layering_ok.cc", "src/serve/front.cc",
                             "serve: trace\ntrace:\n");
    EXPECT_EQ(countRule(fs, "layering"), 0);
}

TEST(AnalyzeLayering, TableCycleIsRejected)
{
    std::vector<Finding> bad;
    auto dag = parseLayering("layering.txt", "a: b\nb: a\n", bad);
    ASSERT_EQ(countRule(bad, "layering"), 1);
    EXPECT_NE(bad[0].message.find("cycle"), std::string::npos);
    EXPECT_EQ(dag.size(), 2u);
}

TEST(AnalyzeLayering, FuzzAsDependencyIsRejected)
{
    std::vector<Finding> bad;
    parseLayering("layering.txt", "exp: fuzz sim\n", bad);
    ASSERT_EQ(countRule(bad, "layering"), 1);
    EXPECT_NE(bad[0].message.find("fuzz"), std::string::npos);
}

TEST(AnalyzeLayering, MalformedLineIsRejected)
{
    std::vector<Finding> bad;
    parseLayering("layering.txt", "exp sim\n", bad);
    ASSERT_EQ(countRule(bad, "layering"), 1);
    EXPECT_EQ(bad[0].line, 1);
}

// ---------------------------------------------------------------
// index-level unit tests
// ---------------------------------------------------------------

TEST(AnalyzeIndex, MemberFlagsMethodsAndTransients)
{
    const std::string hh =
        "class Probe {\n"
        "  public:\n"
        "    void tick();\n"
        "    int snapshot() const { return plain_; }\n"
        "  private:\n"
        "    int plain_ = 0;\n"
        "    int *ptr_ = nullptr;\n"
        "    int &ref_;\n"
        "    static int shared_;\n"
        "    // kelp: transient(derived cache)\n"
        "    int cache_ = 0;\n"
        "};\n";
    std::vector<Finding> bad;
    Index ix = buildIndex({{"src/kelp/probe.hh", hh}}, bad);
    EXPECT_TRUE(bad.empty());
    ASSERT_EQ(ix.classes.size(), 1u);
    const auto &c = ix.classes[0];
    EXPECT_EQ(c.name, "Probe");
    EXPECT_TRUE(c.checkpointBearing());
    EXPECT_TRUE(c.methods.count("tick"));
    EXPECT_TRUE(c.methods.count("snapshot"));
    EXPECT_TRUE(c.serialized.count("plain_"));
    ASSERT_EQ(c.members.size(), 5u);
    for (const auto &m : c.members) {
        if (m.name == "plain_")
            EXPECT_FALSE(m.isStatic || m.isRef || m.isPtr);
        else if (m.name == "ptr_")
            EXPECT_TRUE(m.isPtr);
        else if (m.name == "ref_")
            EXPECT_TRUE(m.isRef);
        else if (m.name == "shared_")
            EXPECT_TRUE(m.isStatic);
        else if (m.name == "cache_") {
            EXPECT_TRUE(m.hasTransient);
            EXPECT_EQ(m.transientReason, "derived cache");
        } else
            ADD_FAILURE() << "unexpected member " << m.name;
    }
}

TEST(AnalyzeIndex, IncludesContractsAndKnobWritesAreIndexed)
{
    const std::string cc =
        "#include \"sim/log.hh\"\n"
        "#include <vector>\n"
        "void f(int x, Knobs *k) {\n"
        "    KELP_EXPECTS(x > 0);\n"
        "    k->setCores(0, 0, 1, x);\n"
        "    KELP_ENSURES(x > 0);\n"
        "}\n";
    std::vector<Finding> bad;
    Index ix = buildIndex({{"src/kelp/f.cc", cc}}, bad);
    ASSERT_EQ(ix.includes.size(), 1u);
    EXPECT_EQ(ix.includes[0].target, "sim/log.hh");
    EXPECT_EQ(ix.includes[0].line, 1);
    ASSERT_EQ(ix.contracts.size(), 2u);
    EXPECT_EQ(ix.contracts[0].macro, "KELP_EXPECTS");
    ASSERT_EQ(ix.knobWrites.size(), 1u);
    EXPECT_EQ(ix.knobWrites[0].mutator, "setCores");
    ASSERT_GE(ix.knobWrites[0].function, 0);
    EXPECT_EQ(
        ix.functions[static_cast<size_t>(ix.knobWrites[0].function)]
            .name,
        "f");
}

TEST(AnalyzeIndex, ModuleOfParsesSrcPathsOnly)
{
    EXPECT_EQ(moduleOf("src/kelp/controller.cc"), "kelp");
    EXPECT_EQ(moduleOf("src/sim/rng.hh"), "sim");
    EXPECT_EQ(moduleOf("tests/test_analyze.cc"), "");
    EXPECT_EQ(moduleOf("src/loose.hh"), "");
}

TEST(AnalyzeReports, JsonAndInventoryAreWellFormedSmoke)
{
    std::vector<Finding> one{{"src/kelp/a.cc", 3, "layering",
                              "msg with \"quotes\"", "#include x"}};
    std::string js = kelp::analyze::jsonReport(one);
    EXPECT_NE(js.find("\"rule\": \"layering\""), std::string::npos)
        << js;
    EXPECT_NE(js.find("\\\"quotes\\\""), std::string::npos);

    std::vector<Finding> bad;
    Index ix = buildIndex(
        {{"src/kelp/f.cc",
          "void f(Knobs *k) { KELP_EXPECTS(true); }\n"}},
        bad);
    std::string inv = kelp::analyze::inventoryReport(ix);
    EXPECT_NE(inv.find("kelp"), std::string::npos) << inv;
}

// ---------------------------------------------------------------
// real-tree tests: the shipped tree must be clean, and plausible
// single-edit regressions must be caught.
// ---------------------------------------------------------------

const std::vector<SourceFile> &
realTree()
{
    static const std::vector<SourceFile> tree = [] {
        const fs::path root = KELP_SOURCE_DIR;
        std::vector<fs::path> paths;
        for (auto it = fs::recursive_directory_iterator(root / "src");
             it != fs::recursive_directory_iterator(); ++it)
            if (it->is_regular_file()) {
                std::string ext = it->path().extension().string();
                if (ext == ".cc" || ext == ".hh")
                    paths.push_back(it->path());
            }
        std::sort(paths.begin(), paths.end());
        std::vector<SourceFile> files;
        for (const fs::path &p : paths)
            files.push_back({fs::relative(p, root).generic_string(),
                             readAll(p.string())});
        return files;
    }();
    return tree;
}

std::string
realLayering()
{
    return readAll(std::string(KELP_SOURCE_DIR) +
                   "/tools/kelp_analyze/layering.txt");
}

TEST(AnalyzeRealTree, ShippedTreeIsCleanWithEmptyBaseline)
{
    auto fs = analyzeFiles(realTree(),
                           "tools/kelp_analyze/layering.txt",
                           realLayering());
    for (const auto &f : fs)
        ADD_FAILURE() << kelp::analyze::formatFinding(f);
    EXPECT_TRUE(fs.empty());
}

TEST(AnalyzeRealTree, DroppingASnapshotFieldIsCaught)
{
    // Simulate the classic checkpoint bug: the serializer stops
    // mentioning counterWindow/hasCounterWindow (e.g. a dropped cw=
    // token in ControllerSnapshot save/restore). The header still
    // declares the members, so snapshot-completeness must fire for
    // both.
    std::vector<SourceFile> files = realTree();
    bool mutated = false;
    for (auto &f : files)
        if (f.path == "src/kelp/controller.cc") {
            f.content =
                replaceAll(f.content, "counterWindow", "cwRenamed");
            f.content = replaceAll(f.content, "hasCounterWindow",
                                   "hasCwRenamed");
            mutated = true;
        }
    ASSERT_TRUE(mutated);
    auto fs = analyzeFiles(files, "tools/kelp_analyze/layering.txt",
                           realLayering());
    int hits = 0;
    for (const auto &f : fs)
        if (f.rule == "snapshot-completeness" &&
            f.file == "src/kelp/controller.hh")
            ++hits;
    EXPECT_GE(hits, 2) << "expected counterWindow and "
                          "hasCounterWindow to be flagged";
}

TEST(AnalyzeRealTree, StrippingAnAuditAllowIsCaught)
{
    // The CoreThrottle actuation path justifies its knob writes with
    // allow(audit-completeness) directives (the decision is recorded
    // in sample()). Removing those justifications must re-expose the
    // writes as findings.
    std::vector<SourceFile> files = realTree();
    bool mutated = false;
    for (auto &f : files)
        if (f.path == "src/kelp/core_throttle.cc") {
            f.content =
                replaceAll(f.content, "kelp: allow(audit-completeness)",
                           "note");
            mutated = true;
        }
    ASSERT_TRUE(mutated);
    auto fs = analyzeFiles(files, "tools/kelp_analyze/layering.txt",
                           realLayering());
    int hits = 0;
    for (const auto &f : fs)
        if (f.rule == "audit-completeness" &&
            f.file == "src/kelp/core_throttle.cc")
            ++hits;
    EXPECT_GE(hits, 1);
}

TEST(AnalyzeRealTree, StrippingANoteChangeFromASetterIsCaught)
{
    // Simulate the quiescence bug the dirty-discipline rule exists
    // for: Task::setLifeState stops invalidating quiescence. Every
    // lifecycle transition in the controller and the lifecycle
    // driver would then mutate state a fast-forwarding node never
    // hears about, so the rule must flag the call sites.
    std::vector<SourceFile> files = realTree();
    bool mutated = false;
    for (auto &f : files)
        if (f.path == "src/workload/task.hh") {
            std::string from = "lifeState_ = s;\n        noteChange();";
            ASSERT_NE(f.content.find(from), std::string::npos);
            f.content = replaceAll(f.content, from, "lifeState_ = s;");
            mutated = true;
        }
    ASSERT_TRUE(mutated);
    auto fs = analyzeFiles(files, "tools/kelp_analyze/layering.txt",
                           realLayering());
    int hits = 0;
    for (const auto &f : fs)
        if (f.rule == "dirty-discipline")
            ++hits;
    EXPECT_GE(hits, 1);
}

TEST(AnalyzeRealTree, StrippingANoteChangeFromSncIsCaughtAtTheNode)
{
    // MemSystem::setSncEnabled is the only dirty mark on the SNC
    // path: Node::setSncEnabled just forwards to it, and an SNC flip
    // changes the LLC domains the node's reused miss ratios came
    // from. Without the mark the forwarding call must be flagged.
    std::vector<SourceFile> files = realTree();
    bool mutated = false;
    for (auto &f : files)
        if (f.path == "src/mem/mem_system.hh") {
            std::string from = "sncEnabled_ = enabled;\n"
                               "        cacheValid_ = false;\n"
                               "        noteChange();";
            ASSERT_NE(f.content.find(from), std::string::npos);
            f.content = replaceAll(f.content, from,
                                   "sncEnabled_ = enabled;\n"
                                   "        cacheValid_ = false;");
            mutated = true;
        }
    ASSERT_TRUE(mutated);
    auto fs = analyzeFiles(files, "tools/kelp_analyze/layering.txt",
                           realLayering());
    int hits = 0;
    for (const auto &f : fs)
        if (f.rule == "dirty-discipline" &&
            f.file == "src/node/node.hh" &&
            f.excerpt.find("mem_.setSncEnabled(") != std::string::npos)
            ++hits;
    EXPECT_GE(hits, 1);
}

TEST(AnalyzeRealTree, RealLayeringTableParsesCleanly)
{
    std::vector<Finding> bad;
    auto dag = parseLayering("tools/kelp_analyze/layering.txt",
                             realLayering(), bad);
    for (const auto &f : bad)
        ADD_FAILURE() << kelp::analyze::formatFinding(f);
    // Every src module present in the tree must be declared.
    std::set<std::string> mods;
    for (const auto &f : realTree()) {
        std::string m = moduleOf(f.path);
        if (!m.empty())
            mods.insert(m);
    }
    for (const auto &m : mods)
        EXPECT_TRUE(dag.count(m)) << "module missing from table: "
                                  << m;
}

} // namespace
