#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

namespace smthill
{
namespace lint
{

namespace
{

// ---------------------------------------------------------------------
// Paths and names
// ---------------------------------------------------------------------

/** Split a path into components, normalizing separators. */
std::vector<std::string>
pathComponents(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path) {
        if (c == '/' || c == '\\') {
            if (!cur.empty() && cur != ".")
                parts.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty() && cur != ".")
        parts.push_back(cur);
    return parts;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** @return true if @p parts has the component @p name (`src`, ...). */
bool
hasComponent(const std::vector<std::string> &parts, const char *name)
{
    return std::find(parts.begin(), parts.end(), name) != parts.end();
}

/** @return the module dir under `src/`, or "" if not library code. */
std::string
srcModule(const std::vector<std::string> &parts)
{
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        if (parts[i] == "src")
            return parts[i + 1];
    }
    return "";
}

/**
 * Module layering ranks: an include from module A to module B is
 * legal iff rank(B) <= rank(A). Equal ranks name sibling modules
 * that may include each other laterally — the rank-40 group
 * (policy/workload/core) is cyclic by design: core's learners
 * implement the policy interface, policy's bandit/RL learners reuse
 * core's partition lattice, and workload's open system drives any
 * policy. The rule only rejects strictly upward edges.
 */
int
moduleRank(const std::string &module)
{
    static const std::map<std::string, int> ranks = {
        {"common", 0},  {"trace", 10},    {"branch", 10},
        {"memory", 10}, {"pipeline", 20}, {"policy", 40},
        {"workload", 40}, {"core", 40},   {"phase", 50},
        {"harness", 60}, {"validate", 70}, {"lint", 80},
    };
    auto it = ranks.find(module);
    return it == ranks.end() ? -1 : it->second;
}

/** Files exempt from the determinism rules (the RNG itself). */
bool
isRngSource(const std::string &path)
{
    return endsWith(path, "common/rng.hh") ||
           endsWith(path, "common/rng.cc");
}

/** Canonical include-guard macro for a header path. */
std::string
canonicalGuard(const std::vector<std::string> &parts)
{
    static const std::set<std::string> keepRoots = {
        "bench", "tools", "tests", "examples"};
    std::size_t begin = parts.empty() ? 0 : parts.size() - 1;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (parts[i] == "src" && i + 1 < parts.size()) {
            begin = i + 1;
            break;
        }
        if (keepRoots.count(parts[i])) {
            begin = i;
            break;
        }
    }
    std::string guard = "SMTHILL";
    for (std::size_t i = begin; i < parts.size(); ++i) {
        guard.push_back('_');
        for (char c : parts[i]) {
            guard.push_back(
                std::isalnum(static_cast<unsigned char>(c))
                    ? static_cast<char>(
                          std::toupper(static_cast<unsigned char>(c)))
                    : '_');
        }
    }
    return guard;
}

/** @return true if @p name is a valid `smthill.*` stat name. */
bool
validStatName(const std::string &name)
{
    if (name.rfind("smthill.", 0) != 0)
        return false;
    bool prevDot = false;
    for (std::size_t i = 0; i < name.size(); ++i) {
        char c = name[i];
        if (c == '.') {
            if (prevDot || i == 0 || i + 1 == name.size())
                return false;
            prevDot = true;
        } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '_') {
            prevDot = false;
        } else {
            return false;
        }
    }
    return name.find('.') != std::string::npos;
}

/** Schema identifiers (`smthill.lint.v1`) are not stat names. */
bool
versionSuffixed(const std::string &name)
{
    std::size_t dot = name.rfind('.');
    if (dot == std::string::npos || dot + 2 > name.size())
        return false;
    if (name[dot + 1] != 'v')
        return false;
    for (std::size_t i = dot + 2; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9')
            return false;
    }
    return dot + 2 < name.size();
}

/** Every schema list governing @p path (usually zero or one). */
std::vector<const SchemaList *>
schemaListsFor(const std::string &path)
{
    std::vector<const SchemaList *> out;
    for (const SchemaList &s : schemaCatalog()) {
        for (const std::string &suffix : s.fileSuffixes) {
            if (endsWith(path, suffix)) {
                out.push_back(&s);
                break;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Tokens and directives
// ---------------------------------------------------------------------

bool
isPunct(const std::vector<Token> &toks, std::size_t i, char c)
{
    return i < toks.size() && toks[i].kind == TokKind::Punct &&
           toks[i].text.size() == 1 && toks[i].text[0] == c;
}

bool
isIdent(const std::vector<Token> &toks, std::size_t i, const char *text)
{
    return i < toks.size() && toks[i].kind == TokKind::Identifier &&
           toks[i].text == text;
}

bool
isIdentTok(const std::vector<Token> &toks, std::size_t i)
{
    return i < toks.size() && toks[i].kind == TokKind::Identifier;
}

/**
 * @return the index of the close bracket matching the open bracket at
 * @p open (one of `(`, `[`, `{`), or toks.size() when unbalanced.
 */
std::size_t
matchForward(const std::vector<Token> &toks, std::size_t open)
{
    if (open >= toks.size() || toks[open].kind != TokKind::Punct)
        return toks.size();
    char o = toks[open].text[0];
    char c = o == '(' ? ')' : o == '[' ? ']' : o == '{' ? '}' : '\0';
    if (c == '\0')
        return toks.size();
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (isPunct(toks, i, o))
            ++depth;
        else if (isPunct(toks, i, c) && --depth == 0)
            return i;
    }
    return toks.size();
}

/** Keywords that look like calls but are not callees. */
bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "if",        "for",       "while",    "switch",
        "return",    "catch",     "sizeof",   "alignof",
        "decltype",  "static_cast", "dynamic_cast", "reinterpret_cast",
        "const_cast", "new",      "delete",   "throw",
        "case",      "do",        "else",     "goto",
        "typeid",    "alignas",   "noexcept", "not",
        "and",       "or",        "defined",  "assert",
        "static_assert",
    };
    return kw.count(t) != 0;
}

/** Container methods that may allocate (hot-path pass). */
bool
isAllocMethod(const std::string &t)
{
    static const std::set<std::string> m = {
        "push_back", "emplace_back", "insert", "emplace",
        "resize",    "reserve",      "assign", "append",
        "push",
    };
    return m.count(t) != 0;
}

/** Methods that mutate the receiver (parallel-capture pass). */
bool
isMutatorMethod(const std::string &t)
{
    static const std::set<std::string> m = {
        "push_back", "emplace_back", "pop_back", "insert",
        "emplace",   "erase",        "clear",    "resize",
        "reserve",   "assign",       "append",   "push",
        "add",       "inc",          "set",      "record",
        "reset",
    };
    return m.count(t) != 0;
}

/** Parse `#include` target from a directive; sets @p angled. */
bool
parseInclude(const std::string &directive, std::string &target,
             bool &angled)
{
    std::size_t i = 0;
    auto skipSpace = [&] {
        while (i < directive.size() &&
               std::isspace(static_cast<unsigned char>(directive[i])))
            ++i;
    };
    skipSpace();
    if (i >= directive.size() || directive[i] != '#')
        return false;
    ++i;
    skipSpace();
    if (directive.compare(i, 7, "include") != 0)
        return false;
    i += 7;
    skipSpace();
    if (i >= directive.size())
        return false;
    char open = directive[i];
    char close = open == '<' ? '>' : open == '"' ? '"' : '\0';
    if (close == '\0')
        return false;
    std::size_t end = directive.find(close, i + 1);
    if (end == std::string::npos)
        return false;
    target = directive.substr(i + 1, end - i - 1);
    angled = open == '<';
    return true;
}

/** Directive keyword (`ifndef`, `define`, `pragma`, ...) + operand. */
void
parseDirective(const std::string &directive, std::string &keyword,
               std::string &operand)
{
    keyword.clear();
    operand.clear();
    std::istringstream is(directive);
    char hash = '\0';
    is >> hash >> keyword >> operand;
    // `#ifndef X` and `# ifndef X` both lex with the hash first.
    if (keyword == "#" || keyword.empty())
        is >> keyword >> operand;
    else if (!keyword.empty() && keyword[0] == '#')
        keyword.erase(keyword.begin());
}

// ---------------------------------------------------------------------
// Model extraction
// ---------------------------------------------------------------------

/**
 * Scan a token range for callee references and allocation-shaped
 * sites, appending to @p fn. Nested lambdas are attributed to the
 * enclosing function (they run on its behalf).
 */
void
scanBodyFacts(const std::vector<Token> &toks, std::size_t begin,
              std::size_t end, FunctionDef &fn)
{
    for (std::size_t m = begin; m < end && m < toks.size(); ++m) {
        const Token &t = toks[m];
        if (t.kind == TokKind::Identifier) {
            if (!isKeyword(t.text) && isPunct(toks, m + 1, '('))
                fn.calls.push_back({t.text, t.line});
            if (t.text == "new" && !(m > 0 && isIdent(toks, m - 1,
                                                      "operator")))
                fn.allocs.push_back({"new", t.line});
            if (t.text == "make_unique" || t.text == "make_shared")
                fn.allocs.push_back({t.text, t.line});
            if (t.text == "function" && m >= 3 &&
                isPunct(toks, m - 1, ':') && isPunct(toks, m - 2, ':') &&
                isIdent(toks, m - 3, "std"))
                fn.allocs.push_back({"std::function", t.line});
            continue;
        }
        bool dot = isPunct(toks, m, '.');
        bool arrow = isPunct(toks, m, '-') && isPunct(toks, m + 1, '>');
        std::size_t nameIdx = dot ? m + 1 : arrow ? m + 2 : toks.size();
        if (nameIdx < toks.size() && isIdentTok(toks, nameIdx) &&
            isAllocMethod(toks[nameIdx].text) &&
            isPunct(toks, nameIdx + 1, '('))
            fn.allocs.push_back(
                {toks[nameIdx].text, toks[nameIdx].line});
    }
}

/**
 * Recognize function definitions by token shape — `name(args)` plus
 * optional trailing specifiers / return arrow / constructor init
 * list, ending at `{`. Scans skip recognized bodies so statements
 * inside one function are never mistaken for nested definitions;
 * class and namespace braces are scanned through.
 */
void
extractFunctions(const ProjectModel::File &f,
                 std::vector<FunctionDef> &out)
{
    const std::vector<Token> &toks = f.lex.tokens;
    std::size_t i = 0;
    while (i < toks.size()) {
        if (!isIdentTok(toks, i) || isKeyword(toks[i].text) ||
            !isPunct(toks, i + 1, '(') ||
            (i > 0 && isPunct(toks, i - 1, '.')) ||
            (i > 1 && isPunct(toks, i - 2, '-') &&
             isPunct(toks, i - 1, '>'))) {
            ++i;
            continue;
        }
        std::size_t close = matchForward(toks, i + 1);
        if (close >= toks.size()) {
            ++i;
            continue;
        }

        std::size_t k = close + 1;
        bool isDef = false;
        std::size_t bodyOpen = 0;
        std::size_t initBegin = 0; // ctor init list, if any

        if (isPunct(toks, k, ':') && !isPunct(toks, k + 1, ':')) {
            // Constructor initializer list: runs to `{` at paren
            // depth zero, or it was something else entirely.
            initBegin = k + 1;
            int pd = 0;
            for (std::size_t m = k + 1; m < toks.size(); ++m) {
                if (isPunct(toks, m, '('))
                    ++pd;
                else if (isPunct(toks, m, ')'))
                    --pd;
                else if (pd == 0 && isPunct(toks, m, '{')) {
                    isDef = true;
                    bodyOpen = m;
                    break;
                } else if (pd == 0 && (isPunct(toks, m, ';') ||
                                       isPunct(toks, m, '}'))) {
                    break;
                }
            }
        } else {
            // Trailing `const noexcept override -> Type` before `{`;
            // anything else (`;`, `=`, an operator) is a declaration
            // or expression, not a definition.
            std::size_t m = k;
            int guard = 0;
            while (m < toks.size() && guard++ < 64) {
                const Token &t = toks[m];
                if (t.kind == TokKind::Identifier) {
                    ++m;
                    continue;
                }
                if (t.kind != TokKind::Punct)
                    break;
                char c = t.text[0];
                if (c == '{') {
                    isDef = true;
                    bodyOpen = m;
                    break;
                }
                if (c == '(') {
                    std::size_t e = matchForward(toks, m);
                    if (e >= toks.size())
                        break;
                    m = e + 1;
                    continue;
                }
                if (c == ':' || c == '<' || c == '>' || c == ',' ||
                    c == '&' || c == '*' || c == '-' || c == '[' ||
                    c == ']') {
                    ++m;
                    continue;
                }
                break;
            }
        }

        if (!isDef) {
            ++i;
            continue;
        }
        std::size_t bodyClose = matchForward(toks, bodyOpen);
        if (bodyClose >= toks.size()) {
            ++i;
            continue;
        }

        FunctionDef fn;
        fn.bare = toks[i].text;
        fn.qual = fn.bare;
        fn.file = f.path;
        fn.line = toks[i].line;
        std::size_t p = i;
        if (p > 0 && isPunct(toks, p - 1, '~'))
            --p; // destructor tilde; keep the class name
        while (p >= 3 && isPunct(toks, p - 1, ':') &&
               isPunct(toks, p - 2, ':') && isIdentTok(toks, p - 3)) {
            fn.qual = toks[p - 3].text + "::" + fn.qual;
            p -= 3;
        }
        if (initBegin != 0)
            scanBodyFacts(toks, initBegin, bodyOpen, fn);
        scanBodyFacts(toks, bodyOpen + 1, bodyClose, fn);
        out.push_back(std::move(fn));
        i = bodyClose + 1;
    }
}

/** Parse one lambda literal starting at its `[` token. */
bool
parseLambda(const std::vector<Token> &toks, std::size_t intro,
            PoolLambda &lam)
{
    std::size_t capClose = matchForward(toks, intro);
    if (capClose >= toks.size())
        return false;

    // Capture entries, split on top-level commas.
    std::vector<std::vector<std::size_t>> entries(1);
    int depth = 0;
    for (std::size_t m = intro + 1; m < capClose; ++m) {
        if (isPunct(toks, m, '(') || isPunct(toks, m, '{'))
            ++depth;
        else if (isPunct(toks, m, ')') || isPunct(toks, m, '}'))
            --depth;
        else if (depth == 0 && isPunct(toks, m, ',')) {
            entries.emplace_back();
            continue;
        }
        entries.back().push_back(m);
    }
    for (const std::vector<std::size_t> &e : entries) {
        if (e.empty())
            continue;
        if (e.size() == 1 && isPunct(toks, e[0], '&')) {
            lam.byRefDefault = true;
        } else if (e.size() == 1 && isPunct(toks, e[0], '=')) {
            lam.byValueDefault = true;
        } else if (isPunct(toks, e[0], '&') && isIdentTok(toks, e[1])) {
            lam.captures.push_back({toks[e[1]].text, true});
        } else if (isIdentTok(toks, e[0]) &&
                   toks[e[0]].text != "this") {
            lam.captures.push_back({toks[e[0]].text, false});
        } // `this` / `*this` capture the object, not a variable
    }

    // Parameter list: remember the first two names so the passes can
    // recognize index- and worker-disjoint accesses.
    std::size_t after = capClose + 1;
    if (isPunct(toks, after, '(')) {
        std::size_t pClose = matchForward(toks, after);
        if (pClose >= toks.size())
            return false;
        std::vector<std::string> names(1);
        depth = 0;
        for (std::size_t m = after + 1; m < pClose; ++m) {
            if (isPunct(toks, m, '(') || isPunct(toks, m, '<'))
                ++depth;
            else if (isPunct(toks, m, ')') || isPunct(toks, m, '>'))
                --depth;
            else if (depth == 0 && isPunct(toks, m, ','))
                names.emplace_back();
            else if (depth == 0 && isIdentTok(toks, m))
                names.back() = toks[m].text;
        }
        if (!names.empty())
            lam.indexParam = names[0];
        if (names.size() > 1)
            lam.workerParam = names[1];
        after = pClose + 1;
    }

    // Skip `mutable noexcept -> Type` to the body.
    int guard = 0;
    while (after < toks.size() && guard++ < 32 &&
           !isPunct(toks, after, '{')) {
        if (isPunct(toks, after, '(')) {
            std::size_t e = matchForward(toks, after);
            if (e >= toks.size())
                return false;
            after = e + 1;
        } else {
            ++after;
        }
    }
    if (!isPunct(toks, after, '{'))
        return false;
    std::size_t bodyClose = matchForward(toks, after);
    if (bodyClose >= toks.size())
        return false;
    lam.bodyBegin = after + 1;
    lam.bodyEnd = bodyClose;
    return true;
}

/** Lambda literals handed to pool fan-out entry points. */
void
extractPoolLambdas(const ProjectModel::File &f, std::size_t file_index,
                   std::vector<PoolLambda> &out)
{
    static const std::set<std::string> callees = {
        "parallelFor", "runGrid", "parallelForWorker", "runGridWorker",
    };
    const std::vector<Token> &toks = f.lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdentTok(toks, i) || !callees.count(toks[i].text) ||
            !isPunct(toks, i + 1, '('))
            continue;
        std::size_t argClose = matchForward(toks, i + 1);
        if (argClose >= toks.size())
            continue;
        for (std::size_t m = i + 2; m < argClose; ++m) {
            if (!isPunct(toks, m, '[') ||
                !(isPunct(toks, m - 1, '(') || isPunct(toks, m - 1, ',')))
                continue;
            PoolLambda lam;
            lam.callee = toks[i].text;
            lam.file = f.path;
            lam.line = toks[m].line;
            lam.fileIndex = file_index;
            if (parseLambda(toks, m, lam))
                out.push_back(std::move(lam));
            break; // one lambda per call site
        }
    }
}

/** Stat registrations (whatever their shape) and literal mentions. */
void
extractStats(const ProjectModel::File &f,
             std::map<std::string, StatUse> &stats)
{
    const std::vector<Token> &toks = f.lex.tokens;
    const bool inSrc = hasComponent(f.parts, "src");
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // globalStats().counter("name") / .gauge
        if (isIdent(toks, i, "globalStats") && isPunct(toks, i + 1, '(') &&
            isPunct(toks, i + 2, ')') && isPunct(toks, i + 3, '.') &&
            (isIdent(toks, i + 4, "counter") ||
             isIdent(toks, i + 4, "gauge")) &&
            isPunct(toks, i + 5, '(') && i + 6 < toks.size() &&
            toks[i + 6].kind == TokKind::String) {
            Site s{f.path, toks[i + 6].line};
            StatUse &use = stats[toks[i + 6].text];
            use.lookups.push_back(s);
            if (inSrc)
                use.registrations.push_back(s);
        }
        if (toks[i].kind == TokKind::String &&
            validStatName(toks[i].text) &&
            !versionSuffixed(toks[i].text))
            stats[toks[i].text].mentions.push_back(
                {f.path, toks[i].line});
    }
}

/**
 * Field literals at `.set("f")` (writer) and `.at("f")` /
 * `.contains("f")` (parser) sites of every schema list governing
 * @p f; a literal no governing list names goes to @p unlisted.
 */
void
extractSchemaUses(const ProjectModel::File &f,
                  std::map<std::string, SchemaUse> &schemas,
                  std::map<std::string, std::vector<Site>> &unlisted)
{
    const std::vector<const SchemaList *> lists = schemaListsFor(f.path);
    if (lists.empty())
        return;
    const std::vector<Token> &toks = f.lex.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!isPunct(toks, i, '.'))
            continue;
        bool write = isIdent(toks, i + 1, "set");
        bool read = isIdent(toks, i + 1, "at") ||
                    isIdent(toks, i + 1, "contains");
        if ((!write && !read) || !isPunct(toks, i + 2, '(') ||
            toks[i + 3].kind != TokKind::String)
            continue;
        const Token &arg = toks[i + 3];
        bool listed = false;
        for (const SchemaList *s : lists) {
            if (!s->fields.count(arg.text))
                continue;
            listed = true;
            SchemaUse &use = schemas[s->name];
            (write ? use.written : use.parsed)[arg.text].push_back(
                {f.path, arg.line});
        }
        if (!listed)
            unlisted[arg.text].push_back({f.path, arg.line});
    }
}

/**
 * Event name literals at EventTrace emission sites in src/ and
 * bench/. A name built as `"prefix" + expr` records as "prefix*".
 */
void
extractEmittedEvents(const ProjectModel::File &f,
                     std::map<std::string, std::vector<Site>> &emitted)
{
    if (!hasComponent(f.parts, "src") && !hasComponent(f.parts, "bench"))
        return;
    const std::vector<Token> &toks = f.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        bool dot = isPunct(toks, i, '.');
        bool arrow = isPunct(toks, i, '-') && isPunct(toks, i + 1, '>');
        if (!dot && !arrow)
            continue;
        std::size_t nameIdx = dot ? i + 1 : i + 2;
        if (!isIdentTok(toks, nameIdx))
            continue;
        const std::string &kind = toks[nameIdx].text;
        if (kind != "instant" && kind != "complete" && kind != "counter")
            continue;
        if (!isPunct(toks, nameIdx + 1, '('))
            continue;
        // `globalStats().counter("...")` is a stat, not an event.
        if (dot && i >= 3 && isPunct(toks, i - 1, ')') &&
            isPunct(toks, i - 2, '(') &&
            isIdent(toks, i - 3, "globalStats"))
            continue;
        std::size_t open = nameIdx + 1;
        std::size_t close = matchForward(toks, open);
        if (close >= toks.size())
            continue;

        // The name sits at a fixed argument position (instant: ts,
        // pid, tid, cat, name; complete adds dur; counter has no cat),
        // so a computed category does not hide a literal name.
        std::size_t nameArg = kind == "instant"    ? 4
                              : kind == "complete" ? 5
                                                   : 3;
        std::size_t arg = 0;
        std::size_t first = close; // first token of the name argument
        int depth = 0;
        for (std::size_t m = open + 1; m < close && first == close; ++m) {
            if (isPunct(toks, m, '(') || isPunct(toks, m, '[') ||
                isPunct(toks, m, '{'))
                ++depth;
            else if (isPunct(toks, m, ')') || isPunct(toks, m, ']') ||
                     isPunct(toks, m, '}'))
                --depth;
            else if (depth == 0 && isPunct(toks, m, ',') &&
                     ++arg == nameArg)
                first = m + 1;
        }
        // A computed name, or a literal that is only a suffix, has no
        // stable prefix to match.
        if (first >= close || toks[first].kind != TokKind::String)
            continue;
        // A name built as `"prefix" + expr` keeps its literal prefix.
        std::string name =
            toks[first].text + (isPunct(toks, first + 1, '+') ? "*" : "");
        emitted[name].push_back({f.path, toks[first].line});
    }
}

/** `kKnownEventNames` catalog entries wherever the table is defined. */
void
extractKnownEvents(const ProjectModel::File &f,
                   std::map<std::string, Site> &known)
{
    const std::vector<Token> &toks = f.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks, i, "kKnownEventNames"))
            continue;
        for (std::size_t m = i + 1;
             m < toks.size() && !isPunct(toks, m, ';'); ++m) {
            if (toks[m].kind == TokKind::String &&
                !known.count(toks[m].text))
                known[toks[m].text] = {f.path, toks[m].line};
        }
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/**
 * Routes every rule and pass finding through the allow markers. A
 * suppressed finding credits the marker that consumed it;
 * stale-suppression reports the markers left uncredited.
 */
class Reporter
{
  public:
    explicit Reporter(const ProjectModel &project_model)
        : model(project_model)
    {
        for (std::size_t i = 0; i < model.files.size(); ++i)
            index[model.files[i].path] = i;
    }

    void
    report(const std::string &rule, const std::string &file, int line,
           const std::string &message)
    {
        auto it = index.find(file);
        int allowLine =
            it == index.end()
                ? 0
                : model.files[it->second].lex.allowLineFor(rule, line);
        if (allowLine != 0) {
            credits.insert({file, allowLine, rule});
            return;
        }
        findings.push_back({rule, file, line, message});
    }

    /** @return true if the marker at (@p file, @p line) consumed a
     *  finding of @p rule. */
    bool
    credited(const std::string &file, int line,
             const std::string &rule) const
    {
        return credits.count({file, line, rule}) != 0;
    }

    /** @return the findings in (file, line, rule, message) order. */
    std::vector<Finding>
    sorted()
    {
        std::sort(findings.begin(), findings.end(),
                  [](const Finding &a, const Finding &b) {
                      return std::tie(a.file, a.line, a.rule, a.message) <
                             std::tie(b.file, b.line, b.rule, b.message);
                  });
        return std::move(findings);
    }

  private:
    const ProjectModel &model;
    std::map<std::string, std::size_t> index;
    std::set<std::tuple<std::string, int, std::string>> credits;
    std::vector<Finding> findings;
};

// ---------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------

/** The token- and directive-level rules over one file. */
class FileRules
{
  public:
    FileRules(const ProjectModel::File &file, Reporter &reporter)
        : f(file), toks(file.lex.tokens), rep(reporter)
    {
    }

    void
    run()
    {
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Identifier)
                continue;
            checkDeterminismIdent(i);
            checkErrorHandlingIdent(i);
            checkCpuCopyIdent(i);
        }
        scanDirectives();
        if (endsWith(f.path, ".hh") || endsWith(f.path, ".h"))
            checkIncludeGuard();
    }

  private:
    void
    report(const std::string &rule, int line, const std::string &message)
    {
        rep.report(rule, f.path, line, message);
    }

    bool
    isCall(std::size_t i) const
    {
        return isPunct(toks, i + 1, '(');
    }

    void scanDirectives();
    void checkIncludeGuard();
    void checkDeterminismIdent(std::size_t i);
    void checkErrorHandlingIdent(std::size_t i);
    void checkCpuCopyIdent(std::size_t i);

    const ProjectModel::File &f;
    const std::vector<Token> &toks;
    Reporter &rep;
};

void
FileRules::checkDeterminismIdent(std::size_t i)
{
    if (isRngSource(f.path))
        return;
    const Token &t = toks[i];

    // Wall-clock sources: chrono clock types are banned outright;
    // libc entry points only when called (so a member named `time`
    // does not trip the rule).
    static const std::set<std::string> clockTypes = {
        "steady_clock", "system_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "timespec_get",
    };
    static const std::set<std::string> clockCalls = {"time", "clock"};
    if (clockTypes.count(t.text) ||
        (clockCalls.count(t.text) && isCall(i))) {
        // Sanctioned carve-out (the exit-in-log.cc shape): the host
        // profiler is the one component allowed to read a monotonic
        // clock. Its data never flows into sim state — the contract
        // is pinned by the profiler-off bit-identity tests.
        if (endsWith(f.path, "common/profile.cc"))
            return;
        report("no-wall-clock", t.line,
               "wall-clock source '" + t.text +
                   "' breaks replay determinism; derive timing from "
                   "simulated cycles");
        return;
    }

    // Non-deterministic or out-of-band randomness: every stochastic
    // draw must flow through common/rng.hh so checkpoint clones
    // replay bit-identically.
    static const std::set<std::string> randomTypes = {
        "random_device",     "mt19937",
        "mt19937_64",        "minstd_rand",
        "minstd_rand0",      "default_random_engine",
        "knuth_b",           "ranlux24",
        "ranlux48",          "uniform_int_distribution",
        "uniform_real_distribution", "normal_distribution",
        "bernoulli_distribution",    "poisson_distribution",
        "discrete_distribution",     "random_shuffle",
        "shuffle",
    };
    static const std::set<std::string> randomCalls = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
        "random",
    };
    if (randomTypes.count(t.text) ||
        (randomCalls.count(t.text) && isCall(i))) {
        report("no-libc-random", t.line,
               "'" + t.text +
                   "' bypasses common/rng.hh; draw from a seeded Rng "
                   "so replay and checkpoint clones stay identical");
        return;
    }

    static const std::set<std::string> unordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    if (unordered.count(t.text)) {
        report("no-unordered-container", t.line,
               "'" + t.text +
                   "' iteration order varies across libraries and "
                   "runs; use std::map/std::set or a sorted vector");
    }
}

void
FileRules::checkErrorHandlingIdent(std::size_t i)
{
    const Token &t = toks[i];
    bool prevIsEq = i > 0 && isPunct(toks, i - 1, '=');
    bool prevIsOperator = i > 0 && isIdent(toks, i - 1, "operator");

    if (t.text == "new" && !prevIsOperator) {
        report("error-handling", t.line,
               "naked 'new'; own allocations via std::make_unique, "
               "containers, or value members");
        return;
    }
    if (t.text == "delete" && !prevIsEq && !prevIsOperator) {
        report("error-handling", t.line,
               "naked 'delete'; lifetimes belong to owners "
               "(unique_ptr, containers), not manual frees");
        return;
    }

    static const std::set<std::string> exits = {
        "exit", "_exit", "_Exit", "quick_exit", "abort", "terminate",
    };
    if (exits.count(t.text) && isCall(i) &&
        !endsWith(f.path, "common/log.cc")) {
        report("error-handling", t.line,
               "'" + t.text +
                   "' outside common/log.cc; report user errors via "
                   "fatal() and bugs via panic()");
        return;
    }

    if (t.text == "throw" && hasComponent(f.parts, "src")) {
        report("error-handling", t.line,
               "'throw' in library code; use fatal()/panic() from "
               "common/log.hh so failures are uniform and loggable");
    }
}

void
FileRules::checkCpuCopyIdent(std::size_t i)
{
    // A whole-machine SmtCpu copy costs tens of microseconds of
    // allocation; the trial sweeps were rewritten to restore warm
    // per-worker machines instead (core/machine_arena.hh). The rule
    // guards library and bench code — the paths that run per trial
    // or per iteration — so the copy cannot silently creep back in.
    // Tests exercise checkpoint value semantics on purpose and are
    // exempt, as is the checkpoint API itself.
    if (!hasComponent(f.parts, "src") && !hasComponent(f.parts, "bench"))
        return;
    if (endsWith(f.path, "core/machine_arena.cc") ||
        endsWith(f.path, "core/machine_arena.hh"))
        return;
    if (!isIdent(toks, i, "SmtCpu") || !isIdentTok(toks, i + 1))
        return; // reference/pointer bindings and casts are fine

    // Copy-init from an lvalue: `SmtCpu x = y;`. An initializer that
    // keeps going (`machineFor(...)`, `y.clone()`) is a function
    // result — materialized in place, no copy.
    bool copyInit = isPunct(toks, i + 2, '=') && isIdentTok(toks, i + 3) &&
                    isPunct(toks, i + 4, ';');
    // Direct-init copy: `SmtCpu x(y);`. Multi-token argument lists
    // are real constructor calls and do not match.
    bool directInit = isPunct(toks, i + 2, '(') &&
                      isIdentTok(toks, i + 3) &&
                      isPunct(toks, i + 4, ')') && isPunct(toks, i + 5, ';');
    if (copyInit || directInit) {
        report("cpu-copy-hot-path", toks[i].line,
               "whole-machine SmtCpu copy; hot paths restore a warm "
               "machine (MachineArena::acquire + SmtCpu::restoreFrom, "
               "core/machine_arena.hh) instead of copy-constructing "
               "per trial");
    }
}

void
FileRules::scanDirectives()
{
    const std::string module = srcModule(f.parts);
    const int myRank = moduleRank(module);

    for (const Token &t : toks) {
        if (t.kind != TokKind::Directive)
            continue;
        std::string target;
        bool angled = false;
        if (!parseInclude(t.text, target, angled))
            continue;

        if (angled && !isRngSource(f.path)) {
            if (target == "random") {
                report("no-libc-random", t.line,
                       "<random> include; every stochastic draw goes "
                       "through common/rng.hh");
            } else if (target == "unordered_map" ||
                       target == "unordered_set") {
                report("no-unordered-container", t.line,
                       "<" + target +
                           "> include; iteration order varies, use "
                           "ordered containers");
            } else if ((target == "ctime" || target == "time.h" ||
                        target == "sys/time.h") &&
                       !endsWith(f.path, "common/profile.cc")) {
                report("no-wall-clock", t.line,
                       "<" + target +
                           "> include; derive timing from simulated "
                           "cycles, not wall clock");
            }
        }

        // Layering applies to quoted project includes from src/.
        if (!angled && myRank >= 0) {
            std::vector<std::string> tparts = pathComponents(target);
            if (tparts.size() < 2)
                continue;
            int depRank = moduleRank(tparts[0]);
            if (depRank > myRank) {
                report("layering", t.line,
                       "src/" + module + " must not include " +
                           tparts[0] + "/ (upward layering edge; see "
                           "module ranks in lint/lint.cc)");
            }
        }
    }
}

void
FileRules::checkIncludeGuard()
{
    const std::string want = canonicalGuard(f.parts);
    const Token *first = nullptr;
    const Token *second = nullptr;
    for (const Token &t : toks) {
        if (t.kind != TokKind::Directive)
            continue;
        if (!first) {
            first = &t;
        } else {
            second = &t;
            break;
        }
    }
    if (!first) {
        report("include-guard", 1,
               "header has no include guard; expected #ifndef " + want);
        return;
    }
    std::string keyword, operand;
    parseDirective(first->text, keyword, operand);
    if (keyword == "pragma" && operand == "once") {
        report("include-guard", first->line,
               "#pragma once; house style is the canonical #ifndef " +
                   want + " guard");
        return;
    }
    if (keyword != "ifndef" || operand != want) {
        report("include-guard", first->line,
               "first directive must be #ifndef " + want + " (found #" +
                   keyword + " " + operand + ")");
        return;
    }
    if (second) {
        parseDirective(second->text, keyword, operand);
        if (keyword != "define" || operand != want) {
            report("include-guard", second->line,
                   "#ifndef " + want + " must be followed by #define " +
                       want);
        }
    } else {
        report("include-guard", first->line,
               "#ifndef " + want + " is missing its #define");
    }
}

/**
 * The nine per-file rules; stat-name and schema-field read the
 * model's stat and schema tables.
 */
void
runRules(const ProjectModel &model, Reporter &rep)
{
    for (const ProjectModel::File &f : model.files)
        FileRules(f, rep).run();

    for (const auto &[name, use] : model.stats) {
        if (!validStatName(name)) {
            for (const Site &s : use.lookups)
                rep.report("stat-name", s.file, s.line,
                           "stat name \"" + name +
                               "\" violates the smthill.* "
                               "dotted-lowercase convention (e.g. "
                               "smthill.thread_pool.tasks)");
        }
        const std::vector<Site> &regs = use.registrations;
        for (std::size_t i = 1; i < regs.size(); ++i)
            rep.report("stat-name", regs[i].file, regs[i].line,
                       "stat \"" + name + "\" already registered at " +
                           regs[0].file + ":" +
                           std::to_string(regs[0].line) +
                           "; stat names are unique across src/");
    }

    for (const auto &[field, sites] : model.unlistedFields) {
        for (const Site &s : sites)
            rep.report("schema-field", s.file, s.line,
                       "field \"" + field +
                           "\" is not in the versioned schema list for "
                           "this writer; bump the schema version and "
                           "extend the list in lint/lint.cc");
    }
}

// ---------------------------------------------------------------------
// Cross-TU passes
// ---------------------------------------------------------------------

/**
 * parallel-capture: a by-reference capture mutated inside a pool
 * lambda races across workers unless every access is disjoint by the
 * index/worker parameter, the target is atomic (or a StatCounter /
 * StatGauge, which are atomic by construction), or the body takes a
 * lock.
 */
void
passParallelCapture(const ProjectModel &model, Reporter &rep)
{
    for (const PoolLambda &lam : model.poolLambdas) {
        const std::vector<Token> &toks =
            model.files[lam.fileIndex].lex.tokens;

        bool locked = false;
        for (std::size_t m = lam.bodyBegin; m < lam.bodyEnd; ++m) {
            if (isIdent(toks, m, "lock_guard") ||
                isIdent(toks, m, "unique_lock") ||
                isIdent(toks, m, "scoped_lock"))
                locked = true;
        }
        if (locked)
            continue;

        // Locals declared in the body shadow or replace captures.
        std::set<std::string> locals;
        if (!lam.indexParam.empty())
            locals.insert(lam.indexParam);
        if (!lam.workerParam.empty())
            locals.insert(lam.workerParam);
        for (std::size_t m = lam.bodyBegin; m < lam.bodyEnd; ++m) {
            if (!isIdentTok(toks, m) || isKeyword(toks[m].text))
                continue;
            bool prevOK =
                m > 0 && (isIdentTok(toks, m - 1) ||
                          isPunct(toks, m - 1, '&') ||
                          isPunct(toks, m - 1, '*') ||
                          isPunct(toks, m - 1, '>'));
            bool nextOK = isPunct(toks, m + 1, '=') ||
                          isPunct(toks, m + 1, ';') ||
                          isPunct(toks, m + 1, '{') ||
                          isPunct(toks, m + 1, ':') ||
                          (isPunct(toks, m + 1, '(') &&
                           isIdentTok(toks, m - 1));
            if (prevOK && nextOK)
                locals.insert(toks[m].text);
        }

        // Declaration-proximity atomics: `std::atomic<int> hits`,
        // `StatCounter &c`. Checked against the whole file so the
        // declaration may sit outside the lambda.
        std::map<std::string, bool> atomicMemo;
        auto isAtomicName = [&](const std::string &v) {
            auto memo = atomicMemo.find(v);
            if (memo != atomicMemo.end())
                return memo->second;
            bool found = false;
            for (std::size_t m = 0; m < toks.size() && !found; ++m) {
                if (!isIdentTok(toks, m) || toks[m].text != v)
                    continue;
                std::size_t lo = m >= 8 ? m - 8 : 0;
                for (std::size_t r = lo; r < m; ++r) {
                    if (isIdentTok(toks, r) &&
                        (toks[r].text.rfind("atomic", 0) == 0 ||
                         toks[r].text == "StatCounter" ||
                         toks[r].text == "StatGauge")) {
                        found = true;
                        break;
                    }
                }
            }
            atomicMemo[v] = found;
            return found;
        };

        std::set<std::string> flagged;
        for (std::size_t m = lam.bodyBegin; m < lam.bodyEnd; ++m) {
            if (!isIdentTok(toks, m) || isKeyword(toks[m].text))
                continue;
            // `row.field = x` mutates through `row`; the field name
            // is not a variable of its own.
            if (m > 0 && (isPunct(toks, m - 1, '.') ||
                          (m > 1 && isPunct(toks, m - 2, '-') &&
                           isPunct(toks, m - 1, '>'))))
                continue;
            const std::string &v = toks[m].text;
            if (locals.count(v) || flagged.count(v))
                continue;
            bool byRef = lam.byRefDefault;
            for (const Capture &cap : lam.captures) {
                if (cap.name == v) {
                    byRef = cap.byRef;
                    break;
                }
            }
            if (!byRef)
                continue;

            bool mutation = false;
            bool disjoint = false;
            std::string how = "assignment";
            // Prefix increment/decrement.
            if (m >= 2 && ((isPunct(toks, m - 2, '+') &&
                            isPunct(toks, m - 1, '+')) ||
                           (isPunct(toks, m - 2, '-') &&
                            isPunct(toks, m - 1, '-')))) {
                mutation = true;
                how = "increment";
            }
            // Walk the access chain: subscripts, member accesses.
            std::size_t q = m + 1;
            bool viaPointer = false;
            while (!mutation && q < lam.bodyEnd) {
                if (isPunct(toks, q, '[')) {
                    std::size_t e = matchForward(toks, q);
                    if (e >= toks.size())
                        break;
                    for (std::size_t r = q + 1; r < e; ++r) {
                        if (isIdentTok(toks, r) &&
                            ((!lam.indexParam.empty() &&
                              toks[r].text == lam.indexParam) ||
                             (!lam.workerParam.empty() &&
                              toks[r].text == lam.workerParam)))
                            disjoint = true;
                    }
                    q = e + 1;
                    continue;
                }
                if (isPunct(toks, q, '.') && isIdentTok(toks, q + 1)) {
                    if (isMutatorMethod(toks[q + 1].text) &&
                        isPunct(toks, q + 2, '(')) {
                        mutation = true;
                        how = "." + toks[q + 1].text + "()";
                        break;
                    }
                    q += 2;
                    continue;
                }
                if (isPunct(toks, q, '-') && isPunct(toks, q + 1, '>')) {
                    viaPointer = true; // pointee, not the capture
                    break;
                }
                break;
            }
            if (viaPointer)
                continue;
            if (!mutation && q < lam.bodyEnd) {
                if (isPunct(toks, q, '=') && !isPunct(toks, q + 1, '=')) {
                    mutation = true;
                } else if ((isPunct(toks, q, '+') ||
                            isPunct(toks, q, '-')) &&
                           toks[q].text == toks[q + 1].text) {
                    mutation = true; // postfix ++/--
                    how = "increment";
                } else {
                    static const std::string ops = "+-*/%&|^";
                    if (toks[q].kind == TokKind::Punct &&
                        ops.find(toks[q].text[0]) != std::string::npos &&
                        isPunct(toks, q + 1, '=') &&
                        !isPunct(toks, q + 2, '=')) {
                        mutation = true;
                        how = "compound assignment";
                    } else if ((isPunct(toks, q, '<') ||
                                isPunct(toks, q, '>')) &&
                               toks[q].text == toks[q + 1].text &&
                               isPunct(toks, q + 2, '=')) {
                        mutation = true;
                        how = "shift assignment";
                    }
                }
            }
            if (!mutation || disjoint || isAtomicName(v))
                continue;
            flagged.insert(v);
            rep.report(
                "parallel-capture", lam.file, toks[m].line,
                "'" + v + "' is captured by reference and mutated (" +
                    how + ") inside a " + lam.callee +
                    " lambda without index-disjoint access, atomics, "
                    "or a lock; concurrent workers race on it");
        }
    }
}

/** Match an emitted event name against a catalog entry. */
bool
eventMatches(const std::string &emitted, const std::string &entry)
{
    if (emitted == entry)
        return true;
    if (!entry.empty() && entry.back() == '*') {
        std::string prefix = entry.substr(0, entry.size() - 1);
        std::string name = emitted;
        if (!name.empty() && name.back() == '*')
            name.pop_back();
        return name.rfind(prefix, 0) == 0;
    }
    return false;
}

void
passCrossTuConsistency(const ProjectModel &model, Reporter &rep)
{
    // Stats: every counter registered by src/ earns its memory by
    // being read somewhere else; every lookup outside src/ must name
    // a registered stat. Off-convention names are stat-name findings.
    for (const auto &[name, use] : model.stats) {
        if (!validStatName(name))
            continue;
        if (!use.registrations.empty()) {
            const Site &reg = use.registrations.front();
            bool referenced = false;
            for (const Site &s : use.mentions) {
                if (s.file != reg.file)
                    referenced = true;
            }
            if (!referenced)
                rep.report("cross-tu-consistency", reg.file, reg.line,
                           "stat \"" + name +
                               "\" is registered but never read "
                               "outside " + reg.file +
                               "; assert on it in a test, export it "
                               "in a tool, or drop the counter");
        } else {
            for (const Site &s : use.lookups)
                rep.report("cross-tu-consistency", s.file, s.line,
                           "stat \"" + name +
                               "\" is looked up here but never "
                               "registered by src/; rename to a "
                               "registered stat or register it");
        }
    }

    // Schemas: written/parsed/listed field sets must agree wherever
    // the catalog names both a writer and a parser.
    for (const SchemaList &sl : schemaCatalog()) {
        static const SchemaUse kEmpty;
        auto it = model.schemas.find(sl.name);
        const SchemaUse &use =
            it == model.schemas.end() ? kEmpty : it->second;
        bool hasWriter = !use.written.empty();
        bool hasParser = !use.parsed.empty();

        // Write/parse symmetry is a cross-TU property: it only means
        // something when a reader lives in a different file than the
        // writers (and vice versa). A single file that writes and
        // partially reads back its own document is self-consistent by
        // construction.
        std::set<std::string> writerFiles, parserFiles;
        for (const auto &[field, sites] : use.written) {
            for (const Site &s : sites)
                writerFiles.insert(s.file);
        }
        for (const auto &[field, sites] : use.parsed) {
            for (const Site &s : sites)
                parserFiles.insert(s.file);
        }
        bool distinctReader = false, distinctWriter = false;
        for (const std::string &f : parserFiles) {
            if (!writerFiles.count(f))
                distinctReader = true;
        }
        for (const std::string &f : writerFiles) {
            if (!parserFiles.count(f))
                distinctWriter = true;
        }

        // Dead listed fields anchor at the catalog entry itself.
        Site anchor;
        for (const ProjectModel::File &f : model.files) {
            if (!endsWith(f.path, "lint/lint.cc"))
                continue;
            for (const Token &t : f.lex.tokens) {
                if (t.kind == TokKind::String && t.text == sl.name) {
                    anchor = {f.path, t.line};
                    break;
                }
            }
            break;
        }

        for (const std::string &field : sl.fields) {
            bool w = use.written.count(field) != 0;
            bool p = use.parsed.count(field) != 0;
            if (!w && !p && (hasWriter || hasParser) &&
                anchor.line != 0) {
                rep.report("cross-tu-consistency", anchor.file,
                           anchor.line,
                           "schema " + sl.name + " lists field \"" +
                               field +
                               "\" but no governed file writes or "
                               "parses it; drop it from the list in "
                               "lint/lint.cc");
            } else if (w && !p && distinctReader) {
                rep.report("cross-tu-consistency",
                           use.written.at(field).front().file,
                           use.written.at(field).front().line,
                           "schema " + sl.name + " field \"" + field +
                               "\" is written here but never parsed "
                               "by the schema's reader; parse it or "
                               "drop the writer");
            } else if (p && !w && distinctWriter) {
                rep.report("cross-tu-consistency",
                           use.parsed.at(field).front().file,
                           use.parsed.at(field).front().line,
                           "schema " + sl.name + " field \"" + field +
                               "\" is parsed here but never written "
                               "by the schema's writer; dead reader "
                               "or missing writer");
            }
        }
    }

    // Events: everything the simulator emits must be catalogued in
    // kKnownEventNames (smthill_trace_report buckets strays), and
    // every catalog entry must still match an emitted event.
    for (const auto &[name, sites] : model.emittedEvents) {
        bool matched = false;
        for (const auto &[entry, site] : model.knownEventNames) {
            if (eventMatches(name, entry))
                matched = true;
        }
        if (!matched)
            rep.report("cross-tu-consistency", sites.front().file,
                       sites.front().line,
                       "event \"" + name +
                           "\" is emitted but missing from "
                           "kKnownEventNames (tools/"
                           "smthill_trace_report.cc); the trace "
                           "report would bucket it as unknown");
    }
    for (const auto &[entry, site] : model.knownEventNames) {
        bool used = false;
        for (const auto &[name, sites] : model.emittedEvents) {
            if (eventMatches(name, entry))
                used = true;
        }
        if (!used)
            rep.report("cross-tu-consistency", site.file, site.line,
                       "kKnownEventNames entry \"" + entry +
                           "\" matches no emitted event; stale after "
                           "a rename?");
    }
}

/** The qualifier of @p fn's name ("SmtCpu" for SmtCpu::step). */
std::string
scopeOf(const FunctionDef &fn)
{
    return fn.qual.size() > fn.bare.size()
               ? fn.qual.substr(0, fn.qual.size() - fn.bare.size() - 2)
               : "";
}

/**
 * hot-path-allocation: walk the name-matched call graph from the
 * per-cycle/per-trial roots and flag allocation-shaped sites in
 * reachable functions. The domain is library code minus the
 * offline/tooling modules (lint, validate, harness) and minus the
 * logging/trace/stat/JSON plumbing, whose costs are init-time or
 * gated off the measured path.
 */
void
passHotPathAllocation(const ProjectModel &model, Reporter &rep)
{
    auto inDomain = [](const FunctionDef &fn) {
        std::vector<std::string> parts = pathComponents(fn.file);
        if (!hasComponent(parts, "src"))
            return false;
        std::string mod = srcModule(parts);
        if (mod == "lint" || mod == "validate" || mod == "harness")
            return false;
        static const std::vector<std::string> plumbing = {
            "common/json.hh",          "common/json.cc",
            "common/log.hh",           "common/log.cc",
            "common/event_trace.hh",   "common/event_trace.cc",
            "common/stat_registry.hh", "common/stat_registry.cc",
            "common/profile.hh",       "common/profile.cc",
            "common/stat_snapshot.hh", "common/stat_snapshot.cc",
        };
        for (const std::string &suffix : plumbing) {
            if (endsWith(fn.file, suffix))
                return false;
        }
        return true;
    };

    std::map<std::string, std::vector<std::size_t>> byBare;
    for (std::size_t i = 0; i < model.functions.size(); ++i) {
        if (inDomain(model.functions[i]))
            byBare[model.functions[i].bare].push_back(i);
    }

    std::vector<std::size_t> queue;
    std::map<std::size_t, std::size_t> parent; // child -> caller
    std::set<std::size_t> visited;
    for (std::size_t i = 0; i < model.functions.size(); ++i) {
        const FunctionDef &fn = model.functions[i];
        if (!inDomain(fn))
            continue;
        if (fn.qual == "SmtCpu::step" || fn.qual == "SmtCpu::run" ||
            fn.bare == "runTrialEpoch" ||
            fn.qual == "MachineArena::sweep") {
            queue.push_back(i);
            visited.insert(i);
        }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
        std::size_t cur = queue[head];
        const std::string callerScope = scopeOf(model.functions[cur]);
        for (const CallRef &call : model.functions[cur].calls) {
            auto targets = byBare.find(call.name);
            if (targets == byBare.end())
                continue;
            // A bare name defined under several qualifiers is
            // ambiguous (generic method names like `run`); following
            // every candidate would mark half the library reachable.
            // Such calls resolve only to the definitions under the
            // caller's own qualifier (its class, for a method),
            // whichever files they sit in; a name with one qualifier
            // resolves to all its definitions.
            std::set<std::string> scopes;
            for (std::size_t t : targets->second)
                scopes.insert(scopeOf(model.functions[t]));
            bool ambiguous = scopes.size() > 1;
            for (std::size_t t : targets->second) {
                if (visited.count(t))
                    continue;
                if (ambiguous &&
                    scopeOf(model.functions[t]) != callerScope)
                    continue;
                visited.insert(t);
                parent[t] = cur;
                queue.push_back(t);
            }
        }
    }

    for (std::size_t i : queue) {
        const FunctionDef &fn = model.functions[i];
        if (fn.allocs.empty())
            continue;
        // Root -> ... -> fn chain for the message.
        std::vector<std::string> chain{fn.qual};
        std::size_t cur = i;
        int guard = 0;
        while (parent.count(cur) && guard++ < 32) {
            cur = parent.at(cur);
            chain.push_back(model.functions[cur].qual);
        }
        std::reverse(chain.begin(), chain.end());
        std::string via;
        for (std::size_t c = 0; c < chain.size(); ++c)
            via += (c == 0 ? "" : " -> ") + chain[c];
        for (const AllocSite &alloc : fn.allocs) {
            rep.report("hot-path-allocation", fn.file, alloc.line,
                       "'" + alloc.what + "' in " + fn.qual +
                           " allocates or grows on the per-cycle/"
                           "per-trial path (" + via +
                           "); preallocate, reserve, or hoist out of "
                           "the loop");
        }
    }
}

/**
 * stale-suppression: an allow marker that suppressed nothing across
 * the rules and the other passes is dead weight — usually a leftover
 * from code that moved — and hides future regressions on its line.
 * Must run after every other check has credited its markers.
 */
void
passStaleSuppression(const ProjectModel &model, Reporter &rep)
{
    for (const ProjectModel::File &f : model.files) {
        for (const auto &[line, rules] : f.lex.allows) {
            for (const std::string &rule : rules) {
                if (rep.credited(f.path, line, rule))
                    continue;
                rep.report("stale-suppression", f.path, line,
                           "allow(" + rule +
                               ") suppresses no " + rule +
                               " finding on this or the next line; "
                               "delete the stale marker");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tree walk
// ---------------------------------------------------------------------

/** Lintable source extensions. */
bool
lintableFile(const std::string &name)
{
    return endsWith(name, ".hh") || endsWith(name, ".h") ||
           endsWith(name, ".cc") || endsWith(name, ".cpp");
}

/** Directories never walked: build output, VCS, fixture trees. */
bool
skipDirectory(const std::string &name)
{
    return name.empty() || name[0] == '.' ||
           name.rfind("build", 0) == 0 || name == "fixtures" ||
           name == "header_tus" || name == "CMakeFiles";
}

/**
 * Collect every lintable file under @p paths in deterministic
 * (sorted, deduplicated) order. @return false with @p error set on
 * unreadable paths.
 */
bool
collectSourceFiles(const std::vector<std::string> &paths,
                   std::vector<std::string> &files, std::string &error)
{
    namespace fs = std::filesystem;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            auto it = fs::recursive_directory_iterator(
                p, fs::directory_options::skip_permission_denied, ec);
            if (ec) {
                error = p + ": " + ec.message();
                return false;
            }
            for (auto end = fs::end(it); it != end;
                 it.increment(ec)) {
                if (ec) {
                    error = p + ": " + ec.message();
                    return false;
                }
                const fs::directory_entry &entry = *it;
                std::string name = entry.path().filename().string();
                if (entry.is_directory()) {
                    if (skipDirectory(name))
                        it.disable_recursion_pending();
                    continue;
                }
                if (entry.is_regular_file() && lintableFile(name))
                    files.push_back(entry.path().generic_string());
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            error = p + ": not a file or directory";
            return false;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return true;
}

} // namespace

std::vector<std::string>
ruleNames()
{
    return {
        "no-wall-clock",  "no-libc-random", "no-unordered-container",
        "stat-name",      "schema-field",   "error-handling",
        "cpu-copy-hot-path", "include-guard", "layering",
        "parallel-capture", "cross-tu-consistency",
        "hot-path-allocation", "stale-suppression",
    };
}

const std::vector<SchemaList> &
schemaCatalog()
{
    static const std::vector<SchemaList> catalog = {
        // smthill.epoch-trace.v1 (core/epoch_trace.hh)
        {"smthill.epoch-trace.v1",
         {"core/epoch_trace.cc"},
         {
             "schema",        "metric",         "num_threads",
             "epochs",        "epoch",          "cycle",
             "elapsed_cycles", "ipc",           "metric_value",
             "trial",         "anchor",         "round_perf",
             "single_ipc_est", "gradient_thread", "sampling_thread",
             "anchor_moved",  "software_cost",
         }},
        // smthill.report.v1 (harness/report.hh)
        {"smthill.report.v1",
         {"harness/report.cc"},
         {
             "schema",       "cycles",          "total_ipc",
             "threads",      "label",           "ipc",
             "committed",    "flushed",         "fetch_share",
             "mispredict_rate", "dl1_mpki",     "l2_mpki",
             "stalled_cycles",  "locked_frac",
             "flushed_per_commit",
         }},
        // smthill.events.v1 (common/event_trace.hh); the trace
        // report tool parses the same dialect.
        {"smthill.events.v1",
         {"common/event_trace.cc", "tools/smthill_trace_report.cc"},
         {
             "traceEvents", "displayTimeUnit", "otherData",
             "schema",      "clock",           "dropped",
             "name",        "cat",             "ph",
             "ts",          "dur",             "pid",
             "tid",         "args",            "value",
         }},
        // smthill.events.v1 job-lifecycle args
        // (workload/open_system.cc)
        {"smthill.events.v1/job-args",
         {"workload/open_system.cc"},
         {
             "job",       "benchmark", "priority", "instructions",
             "context",   "waited",    "committed", "residency",
         }},
        // smthill.bench.open-system.v1 (bench/bench_open_system.cc)
        {"smthill.bench.open-system.v1",
         {"bench/bench_open_system.cc"},
         {
             "schema",          "seed",           "machine_threads",
             "num_jobs",        "rows",           "mean_gap",
             "policy",          "throughput",     "latency_p50",
             "latency_p95",     "latency_p99",    "fairness",
             "completed_jobs",  "horizon_jobs",   "max_queue_depth",
             "cycles",          "committed_total",
         }},
        // smthill.bench.learner-race.v1 (bench/bench_fig09_hill_main.cc)
        {"smthill.bench.learner-race.v1",
         {"bench/bench_fig09_hill_main.cc"},
         {
             "schema",     "epochs",   "epoch_size", "seed",
             "cells",      "workload", "group",      "threads",
             "icount",     "flush",    "dcra",       "hill",
             "phase_hill", "bandit",   "rl",         "counters",
         }},
        // smthill.profile.v1 (common/profile.hh): host-side profiler
        // report. Writer and parser both live in common/profile.cc
        // (round-trip by construction).
        {"smthill.profile.v1",
         {"common/profile.cc"},
         {
             "schema",   "spans",   "threads",
             "name",     "count",   "total_ns",
             "self_ns",  "max_ns",  "thread",
             "parallel_efficiency",
         }},
        // smthill.snapshots.v1 (common/stat_snapshot.hh): periodic
        // StatRegistry delta rows (JSONL stream).
        {"smthill.snapshots.v1",
         {"common/stat_snapshot.cc"},
         {
             "schema",   "seq",     "epoch",  "cycle",
             "counters", "gauges",
         }},
        // smthill.lint.v1 (lint/lint.hh): the findings document of
        // smthill_lint. Registered here so the schema-field rule
        // covers the linter's own writer instead of exempting it.
        {"smthill.lint.v1",
         {"lint/lint.cc"},
         {
             "schema",  "findings", "rule",   "file",
             "line",    "message",
         }},
    };
    return catalog;
}

ProjectModel
buildProjectModel(const std::vector<SourceUnit> &units)
{
    ProjectModel model;
    model.files.reserve(units.size());
    for (const auto &[path, content] : units)
        model.files.push_back(
            {path, pathComponents(path), lexFile(content)});

    for (std::size_t i = 0; i < model.files.size(); ++i) {
        const ProjectModel::File &f = model.files[i];
        extractFunctions(f, model.functions);
        extractPoolLambdas(f, i, model.poolLambdas);
        extractStats(f, model.stats);
        extractSchemaUses(f, model.schemas, model.unlistedFields);
        extractEmittedEvents(f, model.emittedEvents);
        extractKnownEvents(f, model.knownEventNames);
    }
    return model;
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &content)
{
    const ProjectModel model = buildProjectModel({{path, content}});
    Reporter rep(model);
    runRules(model, rep);
    return rep.sorted();
}

std::vector<Finding>
lintUnits(const std::vector<SourceUnit> &units)
{
    const ProjectModel model = buildProjectModel(units);
    Reporter rep(model);
    runRules(model, rep);
    passParallelCapture(model, rep);
    passCrossTuConsistency(model, rep);
    passHotPathAllocation(model, rep);
    passStaleSuppression(model, rep); // last: reads every credit
    return rep.sorted();
}

std::vector<Finding>
lintPaths(const std::vector<std::string> &paths, std::string &error)
{
    error.clear();
    std::vector<std::string> files;
    if (!collectSourceFiles(paths, files, error))
        return {};

    std::vector<SourceUnit> units;
    units.reserve(files.size());
    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            error = file + ": cannot read";
            return {};
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        units.emplace_back(file, buf.str());
    }
    return lintUnits(units);
}

Json
findingsToJson(const std::vector<Finding> &findings)
{
    Json root = Json::object();
    root.set("schema", Json("smthill.lint.v1"));
    Json arr = Json::array();
    for (const Finding &f : findings) {
        Json item = Json::object();
        item.set("rule", Json(f.rule));
        item.set("file", Json(f.file));
        item.set("line", Json(f.line));
        item.set("message", Json(f.message));
        arr.push(std::move(item));
    }
    root.set("findings", std::move(arr));
    return root;
}

bool
findingsFromJson(const Json &doc, std::vector<Finding> &out,
                 std::string &error)
{
    out.clear();
    error.clear();
    if (!doc.isObject() || !doc.contains("schema") ||
        !doc.at("schema").isString() ||
        doc.at("schema").asString() != "smthill.lint.v1") {
        error = "not a smthill.lint.v1 document";
        return false;
    }
    if (!doc.contains("findings") || !doc.at("findings").isArray()) {
        error = "missing findings array";
        return false;
    }
    for (const Json &item : doc.at("findings").items()) {
        if (!item.isObject() || !item.contains("rule") ||
            !item.contains("file") || !item.contains("line") ||
            !item.contains("message") || !item.at("rule").isString() ||
            !item.at("file").isString() || !item.at("line").isNumber() ||
            !item.at("message").isString()) {
            error = "malformed finding entry";
            out.clear();
            return false;
        }
        out.push_back({item.at("rule").asString(),
                       item.at("file").asString(),
                       static_cast<int>(item.at("line").asInt()),
                       item.at("message").asString()});
    }
    return true;
}

} // namespace lint
} // namespace smthill
