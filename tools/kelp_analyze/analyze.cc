#include "analyze.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace kelp {
namespace analyze {

namespace {

using check::Comment;
using check::LexResult;
using check::splitLines;
using check::startsWith;
using check::Tok;
using check::TokKind;
using check::trimmed;

const std::set<std::string> &
cppKeywords()
{
    static const std::set<std::string> kKw = {
        "if",       "for",      "while",    "switch",  "return",
        "sizeof",   "alignof",  "catch",    "throw",   "new",
        "delete",   "case",     "default",  "do",      "else",
        "goto",     "static_cast",          "dynamic_cast",
        "const_cast",           "reinterpret_cast",    "decltype",
        "int",      "bool",     "void",     "char",    "double",
        "float",    "long",     "short",    "unsigned", "signed",
        "auto",     "const",    "constexpr", "static",  "noexcept",
        "typename", "template", "using",    "typedef", "namespace",
        "operator", "assert"};
    return kKw;
}

const std::set<std::string> &
knobMutators()
{
    static const std::set<std::string> kMut = {
        "setCores", "setPrefetchersEnabled", "setCatWays",
        "adjustCores", "setMemBinding"};
    return kMut;
}

/** Task lifecycle transitions and topology changes: everything that
 * alters what a node's resolve pass would compute, or the core shares
 * and LLC miss ratios it reuses, and therefore must invalidate
 * quiescence. */
const std::set<std::string> &
lifecycleMutators()
{
    static const std::set<std::string> kMut = {
        "setLifeState", "setHomeSocket", "setDataPlacement",
        "setThreads", "submit", "setSncEnabled", "setArbitration",
        "setPriorityAwareBackpressure", "addTask"};
    return kMut;
}

/** The quiescence-invalidation primitives, by name. */
bool
dirtyMarker(const std::string &name)
{
    return name == "noteChange" || name == "markDirty";
}

const std::set<std::string> &
checkpointMethods()
{
    static const std::set<std::string> kM = {"snapshot", "restore",
                                             "serialize",
                                             "deserialize"};
    return kM;
}

/** Index of the '}' matching the '{' at @p open, or @p toks.size(). */
size_t
matchBrace(const std::vector<Tok> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == "{")
            ++depth;
        else if (toks[i].text == "}" && --depth == 0)
            return i;
    }
    return toks.size();
}

/** Index of the ')' matching the '(' at @p open, or @p toks.size(). */
size_t
matchParen(const std::vector<Tok> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == "(")
            ++depth;
        else if (toks[i].text == ")" && --depth == 0)
            return i;
    }
    return toks.size();
}

bool
containsNoCase(const std::string &hay, const std::string &needle)
{
    std::string h = hay;
    std::transform(h.begin(), h.end(), h.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return h.find(needle) != std::string::npos;
}

/** Receiver of an append() call that counts as a DecisionLog record:
 * the identifier's name mentions the audit trail. */
bool
auditReceiver(const std::string &name)
{
    return containsNoCase(name, "log") ||
           containsNoCase(name, "audit") ||
           containsNoCase(name, "decision");
}

/** Harvest identifiers and plain (unqualified, receiver-less) callee
 * names from a body token range [b, e). */
void
harvestBody(const std::vector<Tok> &toks, size_t b, size_t e,
            std::set<std::string> &ids, std::set<std::string> &callees,
            bool &directAudit, bool &directDirty)
{
    for (size_t i = b; i < e; ++i) {
        const Tok &t = toks[i];
        if (t.kind != TokKind::Id)
            continue;
        ids.insert(t.text);
        if (i + 1 >= e || toks[i + 1].text != "(")
            continue;
        if (cppKeywords().count(t.text))
            continue;
        // noteChange()/markDirty() count in any form: bare, on a
        // member (registry_.noteChange()), or through a pointer --
        // the invalidation primitives are uniformly named, so the
        // name alone is the signal.
        if (dirtyMarker(t.text))
            directDirty = true;
        const std::string &prev = i > b ? toks[i - 1].text : "";
        if (prev == "." || prev == "->") {
            // Member calls never propagate audit capability by name
            // (str.append() must not look like DecisionLog::append());
            // instead the call site itself proves capability when the
            // receiver names the audit trail.
            if (t.text == "append" && i >= b + 2 &&
                toks[i - 2].kind == TokKind::Id &&
                auditReceiver(toks[i - 2].text))
                directAudit = true;
            continue;
        }
        if (prev == "::")
            continue;
        callees.insert(t.text);
    }
}

/** Per-file parse state shared by the index passes. */
struct ParsedFile
{
    const SourceFile *src = nullptr;
    LexResult lex;
    std::vector<std::string> lines;
    std::map<int, std::string> transients;
    std::set<int> checkpointMarks;

    std::string excerpt(int line) const
    {
        return line >= 1 && line <= static_cast<int>(lines.size())
                   ? trimmed(lines[line - 1])
                   : std::string();
    }
};

/** One function body discovered during indexing, with its token
 * extent so call sites can be attributed to it. */
struct DefExtent
{
    size_t fileIdx = 0;
    size_t bodyBegin = 0; // index of '{'
    size_t bodyEnd = 0;   // index of matching '}'
};

struct Builder
{
    std::vector<ParsedFile> parsed;
    Index index;
    std::vector<DefExtent> extents; // parallel to index.functions
    // Class body token ranges per file, so the file-scope definition
    // scanner does not rescan inline members.
    std::vector<std::vector<std::pair<size_t, size_t>>> classRanges;

    void parseAll(const std::vector<SourceFile> &files,
                  std::vector<Finding> &bad);
    void scanClasses(size_t fi);
    void parseClassBody(size_t fi, ClassInfo &cls, size_t b, size_t e);
    void scanFileScopeDefs(size_t fi);
    void scanMutatorSites(size_t fi,
                          const std::set<std::string> &mutators,
                          std::vector<KnobWrite> &out);
    void scanKnobWrites(size_t fi);
    void scanDirtyWrites(size_t fi);
    void scanIncludes(size_t fi);
    void scanContracts(size_t fi);
    void scanRngUses(size_t fi);
    void mergeOutOfLineCheckpointBodies();
};

void
Builder::parseAll(const std::vector<SourceFile> &files,
                  std::vector<Finding> &bad)
{
    parsed.resize(files.size());
    classRanges.resize(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
        ParsedFile &pf = parsed[i];
        pf.src = &files[i];
        pf.lex = check::tokenize(files[i].content);
        pf.lines = splitLines(files[i].content);
        pf.transients =
            check::parseTransients(files[i].path, pf.lex.comments, bad);
        pf.checkpointMarks =
            check::parseCheckpointMarks(pf.lex.comments);
    }
    // Classes first, across ALL files: out-of-line bodies in a .cc
    // must find the class declared in a .hh that sorts after it.
    for (size_t i = 0; i < files.size(); ++i)
        scanClasses(i);
    for (size_t i = 0; i < files.size(); ++i) {
        scanFileScopeDefs(i);
        scanIncludes(i);
        scanContracts(i);
        scanRngUses(i);
    }
    mergeOutOfLineCheckpointBodies();
    // Mutation sites resolve against the full function list, so they
    // come last.
    for (size_t i = 0; i < files.size(); ++i) {
        scanKnobWrites(i);
        scanDirtyWrites(i);
    }
}

void
Builder::scanClasses(size_t fi)
{
    ParsedFile &pf = parsed[fi];
    const std::vector<Tok> &toks = pf.lex.toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (t.kind != TokKind::Id ||
            (t.text != "class" && t.text != "struct"))
            continue;
        if (i > 0 && toks[i - 1].text == "enum")
            continue;
        if (toks[i + 1].kind != TokKind::Id)
            continue; // anonymous
        // `template <class T>`: the name is a template parameter.
        if (i + 2 < toks.size() && (toks[i + 2].text == ">" ||
                                    toks[i + 2].text == "," ||
                                    toks[i + 2].text == "="))
            continue;
        ClassInfo cls;
        cls.name = toks[i + 1].text;
        cls.file = pf.src->path;
        cls.line = t.line;
        cls.marked = pf.checkpointMarks.count(t.line) ||
                     pf.checkpointMarks.count(toks[i + 1].line);
        // Find the body '{' (or ';' for a forward declaration).
        size_t k = i + 2;
        while (k < toks.size() && toks[k].text != "{" &&
               toks[k].text != ";")
            ++k;
        if (k >= toks.size() || toks[k].text == ";")
            continue;
        size_t close = matchBrace(toks, k);
        classRanges[fi].push_back({k, close});
        parseClassBody(fi, cls, k + 1, close);
        index.classes.push_back(std::move(cls));
        i = close;
    }
}

void
Builder::parseClassBody(size_t fi, ClassInfo &cls, size_t b, size_t e)
{
    ParsedFile &pf = parsed[fi];
    const std::vector<Tok> &toks = pf.lex.toks;
    size_t i = b;
    while (i < e) {
        const Tok &t = toks[i];
        if (t.kind == TokKind::Id &&
            (t.text == "public" || t.text == "private" ||
             t.text == "protected") &&
            i + 1 < e && toks[i + 1].text == ":") {
            i += 2;
            continue;
        }
        // Collect one member-declaration statement.
        size_t s = i;
        int angle = 0;
        bool sawEq = false, sawOperator = false, sawNested = false,
             sawSkipKw = false;
        size_t firstParen = 0; // top-level '(', before any '='
        while (i < e) {
            const Tok &x = toks[i];
            if (x.kind == TokKind::Id) {
                if (x.text == "operator")
                    sawOperator = true;
                else if (x.text == "class" || x.text == "struct" ||
                         x.text == "enum" || x.text == "union")
                    sawNested = true;
                else if (x.text == "using" || x.text == "typedef" ||
                         x.text == "friend" ||
                         x.text == "static_assert" ||
                         x.text == "template")
                    sawSkipKw = true;
            } else if (x.text == "<" && angle >= 0) {
                if (i > s && (toks[i - 1].kind == TokKind::Id ||
                              toks[i - 1].text == ">"))
                    ++angle;
            } else if (x.text == ">" && angle > 0) {
                --angle;
            } else if (x.text == ">>" && angle > 1) {
                angle -= 2;
            } else if (x.text == "=" && angle == 0) {
                sawEq = true;
            } else if (x.text == "(" && angle == 0) {
                if (!firstParen && !sawEq)
                    firstParen = i;
                i = matchParen(toks, i);
            } else if (x.text == ";" && angle == 0) {
                break;
            } else if (x.text == "{" && angle == 0) {
                if ((firstParen || sawOperator) && !sawNested) {
                    // Inline method body.
                    std::string name;
                    if (firstParen && firstParen > s &&
                        toks[firstParen - 1].kind == TokKind::Id)
                        name = toks[firstParen - 1].text;
                    size_t close = matchBrace(toks, i);
                    if (!name.empty() && !sawSkipKw) {
                        cls.methods.insert(name);
                        FunctionInfo fn;
                        fn.cls = cls.name;
                        fn.name = name;
                        fn.file = pf.src->path;
                        fn.line = toks[s].line;
                        std::set<std::string> ids;
                        harvestBody(toks, i + 1, close, ids,
                                    fn.callees, fn.directAudit,
                                    fn.directDirty);
                        if (checkpointMethods().count(name))
                            cls.serialized.insert(ids.begin(),
                                                  ids.end());
                        extents.push_back({fi, i, close});
                        index.functions.push_back(std::move(fn));
                    }
                    i = close;
                    // Optional trailing ';'.
                    if (i + 1 < e && toks[i + 1].text == ";")
                        ++i;
                    s = e; // statement fully handled
                    break;
                }
                if (sawNested) {
                    // Nested type: skip its body, then its ';'.
                    i = matchBrace(toks, i);
                    while (i < e && toks[i].text != ";")
                        ++i;
                    s = e;
                    break;
                }
                // Brace initializer of a data member.
                i = matchBrace(toks, i);
            }
            ++i;
        }
        if (s >= e || s == i) {
            ++i;
            continue;
        }
        size_t stmtEnd = std::min(i, e); // exclusive of ';'
        ++i;
        if (sawOperator || sawNested || sawSkipKw)
            continue;
        if (firstParen) {
            // Method declaration without inline body.
            if (toks[firstParen - 1].kind == TokKind::Id &&
                firstParen > s)
                cls.methods.insert(toks[firstParen - 1].text);
            continue;
        }
        // Data member(s): extract declarator names at top level.
        bool isStatic = false, isRef = false, isPtr = false;
        {
            int a = 0;
            bool eq = false;
            for (size_t k = s; k < stmtEnd; ++k) {
                const Tok &x = toks[k];
                if (x.text == "<" &&
                    (toks[k - 1].kind == TokKind::Id ||
                     toks[k - 1].text == ">"))
                    ++a;
                else if (x.text == ">" && a > 0)
                    --a;
                else if (x.text == ">>" && a > 1)
                    a -= 2;
                else if (a)
                    continue;
                else if (x.text == "=")
                    eq = true;
                else if (eq)
                    continue;
                else if (x.text == "static" || x.text == "constexpr")
                    isStatic = true;
                else if (x.text == "&")
                    isRef = true;
                else if (x.text == "*")
                    isPtr = true;
            }
        }
        int a = 0;
        for (size_t k = s; k < stmtEnd; ++k) {
            const Tok &x = toks[k];
            if (x.text == "<" && k > s &&
                (toks[k - 1].kind == TokKind::Id ||
                 toks[k - 1].text == ">")) {
                ++a;
                continue;
            }
            if (x.text == ">" && a > 0) {
                --a;
                continue;
            }
            if (x.text == ">>" && a > 1) {
                a -= 2;
                continue;
            }
            if (a)
                continue;
            if (x.text == "=") {
                // Skip the initializer up to a top-level ','.
                int d = 0;
                for (++k; k < stmtEnd; ++k) {
                    const std::string &y = toks[k].text;
                    if (y == "(" || y == "{" || y == "[")
                        ++d;
                    else if (y == ")" || y == "}" || y == "]")
                        --d;
                    else if (y == "," && d == 0)
                        break;
                }
                continue;
            }
            if (x.text == "{" || x.text == "[") {
                int d = 0;
                for (; k < stmtEnd; ++k) {
                    const std::string &y = toks[k].text;
                    if (y == "(" || y == "{" || y == "[")
                        ++d;
                    else if (y == ")" || y == "}" || y == "]") {
                        if (--d == 0)
                            break;
                    }
                }
                continue;
            }
            if (x.kind != TokKind::Id || cppKeywords().count(x.text))
                continue;
            const std::string &next =
                k + 1 < stmtEnd ? toks[k + 1].text : ";";
            if (next == ";" || next == "=" || next == "," ||
                next == "{" || next == "[") {
                MemberInfo m;
                m.name = x.text;
                m.line = x.line;
                m.isStatic = isStatic;
                m.isRef = isRef;
                m.isPtr = isPtr;
                auto it = pf.transients.find(x.line);
                if (it != pf.transients.end()) {
                    m.hasTransient = true;
                    m.transientReason = it->second;
                }
                cls.members.push_back(std::move(m));
            }
        }
    }
}

void
Builder::scanFileScopeDefs(size_t fi)
{
    ParsedFile &pf = parsed[fi];
    const std::vector<Tok> &toks = pf.lex.toks;
    const auto &ranges = classRanges[fi];
    size_t r = 0;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        while (r < ranges.size() && ranges[r].second < i)
            ++r;
        if (r < ranges.size() && i >= ranges[r].first &&
            i <= ranges[r].second) {
            i = ranges[r].second;
            continue;
        }
        const Tok &t = toks[i];
        if (t.kind != TokKind::Id || toks[i + 1].text != "(" ||
            cppKeywords().count(t.text))
            continue;
        const std::string &prev = i > 0 ? toks[i - 1].text : "";
        if (prev == "." || prev == "->")
            continue;
        std::string cls;
        if (prev == "::" && i >= 2 && toks[i - 2].kind == TokKind::Id)
            cls = toks[i - 2].text;
        else if (prev == "~" && i >= 2 && toks[i - 2].text == "::" &&
                 toks[i - 3].kind == TokKind::Id)
            cls = toks[i - 3].text;
        size_t close = matchParen(toks, i + 1);
        if (close >= toks.size())
            continue;
        // Definition discriminator: only {const, noexcept, override,
        // final} may sit between ')' and the body '{'; a ctor
        // initializer list starts with ':'.
        size_t j = close + 1;
        while (j < toks.size() &&
               (toks[j].text == "const" || toks[j].text == "noexcept" ||
                toks[j].text == "override" || toks[j].text == "final"))
            ++j;
        if (j < toks.size() && toks[j].text == ":") {
            int d = 0;
            for (++j; j < toks.size(); ++j) {
                const std::string &y = toks[j].text;
                if (y == "(")
                    ++d;
                else if (y == ")")
                    --d;
                else if (y == "{" && d == 0)
                    break;
                else if (y == ";" && d == 0) {
                    j = toks.size();
                    break;
                }
            }
        }
        if (j >= toks.size() || toks[j].text != "{")
            continue;
        size_t bodyEnd = matchBrace(toks, j);
        FunctionInfo fn;
        fn.cls = cls;
        fn.name = t.text;
        fn.file = pf.src->path;
        fn.line = t.line;
        std::set<std::string> ids;
        harvestBody(toks, j + 1, bodyEnd, ids, fn.callees,
                    fn.directAudit, fn.directDirty);
        if (!cls.empty() && checkpointMethods().count(fn.name)) {
            // Class names repeat across modules (kelp::Controller vs
            // mem::Controller); only same-module classes match.
            for (ClassInfo &c : index.classes)
                if (c.name == cls &&
                    moduleOf(c.file) == moduleOf(fn.file))
                    c.serialized.insert(ids.begin(), ids.end());
        }
        extents.push_back({fi, j, bodyEnd});
        index.functions.push_back(std::move(fn));
        // Continue scanning from the body start so ctor initializer
        // lists are never rescanned (the last `member_(x) {` would
        // otherwise read as a definition of `member_`).
        i = j;
    }
}

void
Builder::mergeOutOfLineCheckpointBodies()
{
    // Out-of-line checkpoint methods also count as declared methods
    // of the class (covers `restore` declared in one header and
    // defined in a .cc the header never sees).
    for (const FunctionInfo &fn : index.functions) {
        if (fn.cls.empty())
            continue;
        for (ClassInfo &c : index.classes)
            if (c.name == fn.cls &&
                moduleOf(c.file) == moduleOf(fn.file))
                c.methods.insert(fn.name);
    }
}

void
Builder::scanMutatorSites(size_t fi,
                          const std::set<std::string> &mutators,
                          std::vector<KnobWrite> &out)
{
    ParsedFile &pf = parsed[fi];
    const std::vector<Tok> &toks = pf.lex.toks;
    for (size_t i = 1; i + 1 < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (t.kind != TokKind::Id || !mutators.count(t.text))
            continue;
        if (toks[i - 1].text != "." && toks[i - 1].text != "->")
            continue;
        if (toks[i + 1].text != "(")
            continue;
        KnobWrite w;
        w.file = pf.src->path;
        w.line = t.line;
        w.mutator = t.text;
        // Innermost enclosing definition = smallest extent.
        size_t best = SIZE_MAX;
        for (size_t d = 0; d < extents.size(); ++d) {
            const DefExtent &ex = extents[d];
            if (ex.fileIdx != fi || i < ex.bodyBegin ||
                i > ex.bodyEnd)
                continue;
            size_t span = ex.bodyEnd - ex.bodyBegin;
            if (w.function < 0 || span < best) {
                best = span;
                w.function = static_cast<int>(d);
            }
        }
        out.push_back(std::move(w));
    }
}

void
Builder::scanKnobWrites(size_t fi)
{
    scanMutatorSites(fi, knobMutators(), index.knobWrites);
}

void
Builder::scanDirtyWrites(size_t fi)
{
    // Knob writes AND lifecycle transitions: anything that changes
    // what a quiescent node's resolve pass would compute.
    static const std::set<std::string> kAll = [] {
        std::set<std::string> s = knobMutators();
        s.insert(lifecycleMutators().begin(),
                 lifecycleMutators().end());
        return s;
    }();
    scanMutatorSites(fi, kAll, index.dirtyWrites);
}

void
Builder::scanIncludes(size_t fi)
{
    ParsedFile &pf = parsed[fi];
    for (size_t li = 0; li < pf.lines.size(); ++li) {
        std::string l = trimmed(pf.lines[li]);
        if (!startsWith(l, "#include"))
            continue;
        size_t q1 = l.find('"');
        if (q1 == std::string::npos)
            continue;
        size_t q2 = l.find('"', q1 + 1);
        if (q2 == std::string::npos)
            continue;
        index.includes.push_back({pf.src->path,
                                  static_cast<int>(li) + 1,
                                  l.substr(q1 + 1, q2 - q1 - 1)});
    }
}

void
Builder::scanContracts(size_t fi)
{
    ParsedFile &pf = parsed[fi];
    for (const Tok &t : pf.lex.toks) {
        if (t.kind != TokKind::Id)
            continue;
        if (t.text == "KELP_EXPECTS" || t.text == "KELP_ENSURES" ||
            t.text == "KELP_INVARIANT")
            index.contracts.push_back(
                {pf.src->path, t.line, t.text});
    }
}

void
Builder::scanRngUses(size_t fi)
{
    ParsedFile &pf = parsed[fi];
    const std::vector<Tok> &toks = pf.lex.toks;

    // All `Rng name` declarations in the file, with token position.
    std::vector<std::pair<std::string, size_t>> decls;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Id || toks[i].text != "Rng")
            continue;
        size_t j = i + 1;
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*"))
            ++j;
        if (j < toks.size() && toks[j].kind == TokKind::Id)
            decls.push_back({toks[j].text, j});
    }
    if (decls.empty())
        return;

    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Id ||
            (toks[i].text != "runJobs" && toks[i].text != "parallelMap"))
            continue;
        size_t j = i + 1;
        if (toks[j].text == "<") { // parallelMap<T>(
            int a = 1;
            for (++j; j < toks.size() && a; ++j) {
                if (toks[j].text == "<")
                    ++a;
                else if (toks[j].text == ">")
                    --a;
            }
        }
        if (j >= toks.size() || toks[j].text != "(")
            continue;
        size_t argsEnd = matchParen(toks, j);
        // Every lambda in the argument list is a job body.
        for (size_t k = j + 1; k < argsEnd; ++k) {
            if (toks[k].text != "[")
                continue;
            size_t cap = k;
            while (cap < argsEnd && toks[cap].text != "]")
                ++cap;
            size_t b = cap;
            while (b < argsEnd && toks[b].text != "{")
                ++b;
            if (b >= argsEnd)
                break;
            size_t bodyEnd = matchBrace(toks, b);
            for (size_t m = b + 1; m < bodyEnd; ++m) {
                const Tok &v = toks[m];
                if (v.kind != TokKind::Id)
                    continue;
                if (m + 2 >= bodyEnd ||
                    (toks[m + 1].text != "." &&
                     toks[m + 1].text != "->") ||
                    toks[m + 2].kind != TokKind::Id ||
                    m + 3 >= bodyEnd || toks[m + 3].text != "(")
                    continue;
                bool outer = false, inner = false;
                for (const auto &d : decls) {
                    if (d.first != v.text)
                        continue;
                    if (d.second > b && d.second < bodyEnd)
                        inner = true;
                    else
                        outer = true;
                }
                if (outer && !inner)
                    index.rngUses.push_back({pf.src->path, v.line,
                                             v.text,
                                             toks[m + 2].text});
            }
            k = bodyEnd;
        }
        i = argsEnd;
    }
}

/** Propagate a per-function capability seed through the bare-name
 * call graph to a fixpoint: a function is capable when its seed is
 * set or any definition matching one of its callees is capable. */
std::vector<char>
capableFixpoint(const Index &index, std::vector<char> cap)
{
    std::map<std::string, std::vector<size_t>> byName;
    for (size_t i = 0; i < index.functions.size(); ++i)
        byName[index.functions[i].name].push_back(i);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < cap.size(); ++i) {
            if (cap[i])
                continue;
            for (const std::string &c : index.functions[i].callees) {
                auto it = byName.find(c);
                if (it == byName.end())
                    continue;
                for (size_t j : it->second) {
                    if (cap[j]) {
                        cap[i] = 1;
                        changed = true;
                        break;
                    }
                }
                if (cap[i])
                    break;
            }
        }
    }
    return cap;
}

/** Audit capability: direct DecisionLog append, or a call (by bare
 * name) to a capable function, to a fixpoint. */
std::vector<char>
auditCapable(const Index &index)
{
    std::vector<char> seed(index.functions.size(), 0);
    for (size_t i = 0; i < seed.size(); ++i)
        seed[i] = index.functions[i].directAudit ? 1 : 0;
    return capableFixpoint(index, std::move(seed));
}

/** Dirty-mark capability: a noteChange()/markDirty() call in the
 * body, or a call (by bare name) to a capable function. */
std::vector<char>
dirtyCapable(const Index &index)
{
    std::vector<char> seed(index.functions.size(), 0);
    for (size_t i = 0; i < seed.size(); ++i)
        seed[i] = index.functions[i].directDirty ? 1 : 0;
    return capableFixpoint(index, std::move(seed));
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

bool
ClassInfo::checkpointBearing() const
{
    if (marked)
        return true;
    if (methods.count("snapshot") || methods.count("restore"))
        return true;
    return methods.count("serialize") && methods.count("deserialize");
}

std::string
moduleOf(const std::string &path)
{
    if (!startsWith(path, "src/"))
        return "";
    size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return "";
    return path.substr(4, slash - 4);
}

Index
buildIndex(const std::vector<SourceFile> &files,
           std::vector<Finding> &bad)
{
    Builder b;
    b.parseAll(files, bad);
    return std::move(b.index);
}

std::map<std::string, std::set<std::string>>
parseLayering(const std::string &tablePath, const std::string &text,
              std::vector<Finding> &bad)
{
    std::map<std::string, std::set<std::string>> dag;
    std::vector<std::string> lines = splitLines(text);
    for (size_t i = 0; i < lines.size(); ++i) {
        std::string l = trimmed(lines[i]);
        if (l.empty() || l[0] == '#')
            continue;
        size_t colon = l.find(':');
        if (colon == std::string::npos) {
            bad.push_back({tablePath, static_cast<int>(i) + 1,
                           "layering",
                           "malformed layering line; expected "
                           "'module: dep dep ...'",
                           l});
            continue;
        }
        std::string mod = trimmed(l.substr(0, colon));
        std::set<std::string> &deps = dag[mod];
        std::istringstream is(l.substr(colon + 1));
        std::string d;
        while (is >> d) {
            if (d == "fuzz") {
                bad.push_back(
                    {tablePath, static_cast<int>(i) + 1, "layering",
                     "'" + mod +
                         "' declares a dependency on fuzz; the "
                         "fuzzer is a leaf consumer and nothing may "
                         "include it",
                     l});
                continue;
            }
            deps.insert(d);
        }
    }
    // The declared table must itself be a DAG: colour-marked DFS.
    std::map<std::string, int> colour; // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    struct Dfs
    {
        const std::map<std::string, std::set<std::string>> &dag;
        std::map<std::string, int> &colour;
        const std::string &tablePath;
        std::vector<Finding> &bad;
        bool visit(const std::string &m)
        {
            colour[m] = 1;
            auto it = dag.find(m);
            if (it != dag.end()) {
                for (const std::string &d : it->second) {
                    int c = colour.count(d) ? colour[d] : 0;
                    if (c == 1) {
                        bad.push_back(
                            {tablePath, 1, "layering",
                             "declared module table has a cycle "
                             "through '" +
                                 m + "' -> '" + d + "'",
                             ""});
                        return false;
                    }
                    if (c == 0 && !visit(d))
                        return false;
                }
            }
            colour[m] = 2;
            return true;
        }
    } dfs{dag, colour, tablePath, bad};
    for (const auto &kv : dag) {
        if ((colour.count(kv.first) ? colour[kv.first] : 0) == 0 &&
            !dfs.visit(kv.first))
            break;
    }
    return dag;
}

std::vector<Finding>
analyzeFiles(const std::vector<SourceFile> &files,
             const std::string &layeringPath,
             const std::string &layeringText)
{
    std::vector<Finding> bad;
    Index index = buildIndex(files, bad);
    auto dag = parseLayering(layeringPath, layeringText, bad);

    // Per-file suppression state and line excerpts.
    std::map<std::string, check::Suppressions> sups;
    std::map<std::string, std::vector<std::string>> fileLines;
    for (const SourceFile &f : files) {
        LexResult lex = check::tokenize(f.content);
        sups[f.path] = check::parseSuppressions(
            f.path, lex.comments, check::analyzeRules(),
            check::lintRules(), bad);
        fileLines[f.path] = splitLines(f.content);
    }
    auto excerpt = [&](const std::string &file, int line) {
        const auto &ls = fileLines[file];
        return line >= 1 && line <= static_cast<int>(ls.size())
                   ? trimmed(ls[line - 1])
                   : std::string();
    };

    std::vector<Finding> raw;

    // --- snapshot-completeness -----------------------------------
    for (const ClassInfo &c : index.classes) {
        if (!c.checkpointBearing())
            continue;
        if (!startsWith(c.file, "src/"))
            continue;
        for (const MemberInfo &m : c.members) {
            if (m.isStatic || m.isRef || m.isPtr)
                continue;
            if (m.hasTransient || c.serialized.count(m.name))
                continue;
            raw.push_back(
                {c.file, m.line, "snapshot-completeness",
                 "mutable member '" + m.name +
                     "' of checkpoint-bearing class '" + c.name +
                     "' is never referenced by its snapshot/restore/"
                     "serialize/deserialize bodies; a restart would "
                     "silently lose it -- checkpoint it or annotate "
                     "`// kelp: transient(<reason>)`",
                 excerpt(c.file, m.line)});
        }
    }

    // --- audit-completeness --------------------------------------
    std::vector<char> cap = auditCapable(index);
    for (const KnobWrite &w : index.knobWrites) {
        if (!startsWith(w.file, "src/kelp/") &&
            !startsWith(w.file, "src/serve/"))
            continue;
        bool audited =
            w.function >= 0 &&
            cap[static_cast<size_t>(w.function)];
        if (audited)
            continue;
        std::string where =
            w.function >= 0
                ? "'" +
                      index.functions[static_cast<size_t>(w.function)]
                          .name +
                      "'"
                : "an unindexed context";
        raw.push_back(
            {w.file, w.line, "audit-completeness",
             "knob mutation '" + w.mutator + "()' in " + where +
                 " is not paired with a DecisionLog record on any "
                 "path through the function; actuation without an "
                 "audit trail cannot be replayed or explained -- "
                 "record the decision or justify with "
                 "`kelp: allow(audit-completeness): <reason>`",
             excerpt(w.file, w.line)});
    }

    // --- dirty-discipline ----------------------------------------
    // A mutation "reaches" a dirty mark when the enclosing function
    // marks (directly or through helpers), or when some indexed
    // definition of the mutator itself does -- the repo's normal
    // discipline is the latter: the setter body ends in noteChange(),
    // so every call site is covered at once.
    std::vector<char> dirty = dirtyCapable(index);
    std::map<std::string, std::vector<size_t>> defsByName;
    for (size_t i = 0; i < index.functions.size(); ++i)
        defsByName[index.functions[i].name].push_back(i);
    for (const KnobWrite &w : index.dirtyWrites) {
        if (!startsWith(w.file, "src/"))
            continue;
        bool reaches =
            w.function >= 0 && dirty[static_cast<size_t>(w.function)];
        if (!reaches) {
            auto it = defsByName.find(w.mutator);
            if (it != defsByName.end())
                for (size_t j : it->second)
                    if (dirty[j]) {
                        reaches = true;
                        break;
                    }
        }
        if (reaches)
            continue;
        std::string where =
            w.function >= 0
                ? "'" +
                      index.functions[static_cast<size_t>(w.function)]
                          .name +
                      "'"
                : "an unindexed context";
        raw.push_back(
            {w.file, w.line, "dirty-discipline",
             "mutation '" + w.mutator + "()' in " + where +
                 " reaches no dirty-mark (noteChange/markDirty) on "
                 "any indexed path: neither the enclosing function "
                 "nor any definition of '" + w.mutator +
                 "' invalidates quiescence, so an event-driven node "
                 "could keep fast-forwarding across this change -- "
                 "mark dirty in the mutator or justify with "
                 "`kelp: allow(dirty-discipline): <reason>`",
             excerpt(w.file, w.line)});
    }

    // --- rng-discipline ------------------------------------------
    for (const RngUse &u : index.rngUses) {
        if (u.method == "derive")
            continue;
        raw.push_back(
            {u.file, u.line, "rng-discipline",
             "'" + u.var + "." + u.method +
                 "()' inside a runJobs/parallelMap job lambda uses "
                 "an Rng declared outside the lambda; cross-job "
                 "stream reuse makes results depend on job "
                 "interleaving -- derive a per-job stream with "
                 "sim::Rng::derive(base, index)",
             excerpt(u.file, u.line)});
    }

    // --- layering ------------------------------------------------
    std::set<std::string> srcModules;
    for (const SourceFile &f : files) {
        std::string m = moduleOf(f.path);
        if (!m.empty())
            srcModules.insert(m);
    }
    for (const IncludeEdge &e : index.includes) {
        std::string from = moduleOf(e.file);
        if (from.empty())
            continue;
        size_t slash = e.target.find('/');
        if (slash == std::string::npos)
            continue; // relative same-directory include
        std::string to = e.target.substr(0, slash);
        if (!srcModules.count(to) && !dag.count(to))
            continue; // system or third-party header
        if (to == from)
            continue;
        auto it = dag.find(from);
        if (it == dag.end()) {
            raw.push_back(
                {e.file, e.line, "layering",
                 "module '" + from +
                     "' is not declared in the layering table (" +
                     layeringPath + ")",
                 excerpt(e.file, e.line)});
            continue;
        }
        if (!it->second.count(to)) {
            raw.push_back(
                {e.file, e.line, "layering",
                 "undeclared module dependency: '" + from +
                     "' includes '" + e.target + "' but the layering "
                     "table does not allow '" + from + " -> " + to +
                     "'; either the include is a layering violation "
                     "or the table needs a reviewed edge",
                 excerpt(e.file, e.line)});
        }
    }

    // Apply suppressions; directive-syntax findings stay.
    std::vector<Finding> out;
    for (Finding &f : raw) {
        auto it = sups.find(f.file);
        if (it != sups.end() && it->second.covers(f.rule, f.line))
            continue;
        out.push_back(std::move(f));
    }
    out.insert(out.end(), bad.begin(), bad.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.rule < b.rule;
                     });
    return out;
}

std::string
jsonReport(const std::vector<Finding> &findings)
{
    std::ostringstream os;
    os << "{\n  \"tool\": \"kelp-analyze\",\n  \"count\": "
       << findings.size() << ",\n  \"findings\": [";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i ? ",\n" : "\n")
           << "    {\"file\": \"" << jsonEscape(f.file)
           << "\", \"line\": " << f.line << ", \"rule\": \""
           << jsonEscape(f.rule) << "\", \"message\": \""
           << jsonEscape(f.message) << "\", \"excerpt\": \""
           << jsonEscape(f.excerpt) << "\"}";
    }
    os << (findings.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

std::string
inventoryReport(const Index &index)
{
    struct ModStats
    {
        int functions = 0;
        int expects = 0, ensures = 0, invariants = 0;
        int knobWrites = 0, knobAudited = 0;
        int dirtyWrites = 0, dirtyMarked = 0;
    };
    std::map<std::string, ModStats> mods;
    std::vector<char> cap = auditCapable(index);
    std::vector<char> dirty = dirtyCapable(index);
    std::map<std::string, std::vector<size_t>> defsByName;
    for (size_t i = 0; i < index.functions.size(); ++i)
        defsByName[index.functions[i].name].push_back(i);

    for (const FunctionInfo &fn : index.functions) {
        std::string m = moduleOf(fn.file);
        if (!m.empty())
            ++mods[m].functions;
    }
    for (const ContractSite &c : index.contracts) {
        std::string m = moduleOf(c.file);
        if (m.empty())
            continue;
        if (c.macro == "KELP_EXPECTS")
            ++mods[m].expects;
        else if (c.macro == "KELP_ENSURES")
            ++mods[m].ensures;
        else
            ++mods[m].invariants;
    }
    for (const KnobWrite &w : index.knobWrites) {
        std::string m = moduleOf(w.file);
        if (m.empty())
            continue;
        ++mods[m].knobWrites;
        if (w.function >= 0 && cap[static_cast<size_t>(w.function)])
            ++mods[m].knobAudited;
    }
    for (const KnobWrite &w : index.dirtyWrites) {
        std::string m = moduleOf(w.file);
        if (m.empty())
            continue;
        ++mods[m].dirtyWrites;
        bool reaches =
            w.function >= 0 && dirty[static_cast<size_t>(w.function)];
        if (!reaches) {
            auto it = defsByName.find(w.mutator);
            if (it != defsByName.end())
                for (size_t j : it->second)
                    if (dirty[j]) {
                        reaches = true;
                        break;
                    }
        }
        if (reaches)
            ++mods[m].dirtyMarked;
    }

    std::ostringstream os;
    os << "kelp-analyze contract-coverage inventory\n"
       << "========================================\n\n"
       << "module      funcs  expects  ensures  invariants  "
          "knob-writes  audited  mut-sites  dirty-marked\n";
    for (const auto &kv : mods) {
        const ModStats &s = kv.second;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%-10s  %5d  %7d  %7d  %10d  %11d  %7d  %9d  "
                      "%12d\n",
                      kv.first.c_str(), s.functions, s.expects,
                      s.ensures, s.invariants, s.knobWrites,
                      s.knobAudited, s.dirtyWrites, s.dirtyMarked);
        os << buf;
    }

    os << "\ncheckpoint-bearing classes\n"
       << "--------------------------\n";
    for (const ClassInfo &c : index.classes) {
        if (!c.checkpointBearing() || !startsWith(c.file, "src/"))
            continue;
        int serialized = 0, transient = 0, wiring = 0;
        for (const MemberInfo &m : c.members) {
            if (m.isStatic || m.isRef || m.isPtr)
                ++wiring;
            else if (m.hasTransient)
                ++transient;
            else if (c.serialized.count(m.name))
                ++serialized;
        }
        os << "  " << c.name << " (" << c.file << "): "
           << c.members.size() << " members, " << serialized
           << " checkpointed, " << transient << " transient, "
           << wiring << " wiring/static"
           << (c.marked ? " [marked checkpointed]" : "") << "\n";
    }
    return os.str();
}

} // namespace analyze
} // namespace kelp
