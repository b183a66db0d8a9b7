#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/log.hh"
#include "lint/lexer.hh"

namespace smthill
{
namespace lint
{

namespace
{

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

/** @return true if @p path has a `src` component (library code). */
bool
isLibraryPath(const std::vector<std::string> &parts)
{
    return std::find(parts.begin(), parts.end(), "src") != parts.end();
}

/** @return true if @p path has a `bench` component (hot loops). */
bool
isBenchPath(const std::vector<std::string> &parts)
{
    return std::find(parts.begin(), parts.end(), "bench") !=
           parts.end();
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

/** Canonical include-guard macro for a header path. */
std::string
canonicalGuard(const std::string &path)
{
    std::vector<std::string> parts = pathComponents(path);
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

/** One stat registration site found during scanning. */
struct StatSite
{
    std::string file;
    int line = 0;
    int allowLine = 0; ///< stat-name allow covering this line, or 0
};

/** Cross-file state threaded through per-file scans. */
struct ScanState
{
    /// `globalStats()` registrations in `src/`, keyed by stat name.
    std::map<std::string, std::vector<StatSite>> statSites;
};

class FileScanner
{
  public:
    FileScanner(const std::string &file_path, const std::string &content,
                ScanState &scan_state, SuppressionAudit *audit_sink = nullptr)
        : path(file_path), parts(pathComponents(file_path)),
          lex(lexFile(content)), state(scan_state), audit(audit_sink)
    {
        if (audit && !lex.allows.empty())
            audit->allows[path] = lex.allows;
    }

    std::vector<Finding>
    run()
    {
        scanTokens();
        scanDirectives();
        if (endsWith(path, ".hh") || endsWith(path, ".h"))
            checkIncludeGuard();
        return findings;
    }

  private:
    void
    report(const std::string &rule, int line, const std::string &message)
    {
        int allowLine = lex.allowLineFor(rule, line);
        if (allowLine != 0) {
            if (audit)
                audit->recordUse(path, allowLine, rule);
            return;
        }
        findings.push_back({rule, path, line, message});
    }

    bool
    isIdent(std::size_t i, const char *text) const
    {
        return i < lex.tokens.size() &&
               lex.tokens[i].kind == TokKind::Identifier &&
               lex.tokens[i].text == text;
    }

    bool
    isPunct(std::size_t i, char c) const
    {
        return i < lex.tokens.size() &&
               lex.tokens[i].kind == TokKind::Punct &&
               lex.tokens[i].text.size() == 1 && lex.tokens[i].text[0] == c;
    }

    bool
    isCall(std::size_t i) const
    {
        return isPunct(i + 1, '(');
    }

    void scanTokens();
    void scanDirectives();
    void checkIncludeGuard();
    void checkDeterminismIdent(std::size_t i);
    void checkErrorHandlingIdent(std::size_t i);
    void checkCpuCopyIdent(std::size_t i);
    void checkStatRegistration(std::size_t i);
    void checkSchemaField(std::size_t i);

    const std::string path;
    const std::vector<std::string> parts;
    const LexedFile lex;
    ScanState &state;
    SuppressionAudit *audit;
    std::vector<Finding> findings;
};

void
FileScanner::checkDeterminismIdent(std::size_t i)
{
    if (isRngSource(path))
        return;
    const Token &t = lex.tokens[i];

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
        if (endsWith(path, "common/profile.cc"))
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
FileScanner::checkErrorHandlingIdent(std::size_t i)
{
    const Token &t = lex.tokens[i];
    bool prevIsEq = i > 0 && isPunct(i - 1, '=');
    bool prevIsOperator = i > 0 && isIdent(i - 1, "operator");

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
        !endsWith(path, "common/log.cc")) {
        report("error-handling", t.line,
               "'" + t.text +
                   "' outside common/log.cc; report user errors via "
                   "fatal() and bugs via panic()");
        return;
    }

    if (t.text == "throw" && isLibraryPath(parts)) {
        report("error-handling", t.line,
               "'throw' in library code; use fatal()/panic() from "
               "common/log.hh so failures are uniform and loggable");
    }
}

void
FileScanner::checkCpuCopyIdent(std::size_t i)
{
    // A whole-machine SmtCpu copy costs tens of microseconds of
    // allocation; the trial sweeps were rewritten to restore warm
    // per-worker machines instead (core/machine_arena.hh). The rule
    // guards library and bench code — the paths that run per trial
    // or per iteration — so the copy cannot silently creep back in.
    // Tests exercise checkpoint value semantics on purpose and are
    // exempt, as is the checkpoint API itself.
    if (!isLibraryPath(parts) && !isBenchPath(parts))
        return;
    if (endsWith(path, "core/machine_arena.cc") ||
        endsWith(path, "core/machine_arena.hh"))
        return;
    if (!isIdent(i, "SmtCpu"))
        return;
    if (i + 1 >= lex.tokens.size() ||
        lex.tokens[i + 1].kind != TokKind::Identifier)
        return; // reference/pointer bindings and casts are fine

    // Copy-init from an lvalue: `SmtCpu x = y;`. An initializer that
    // keeps going (`machineFor(...)`, `y.clone()`) is a function
    // result — materialized in place, no copy.
    bool copyInit = isPunct(i + 2, '=') && i + 3 < lex.tokens.size() &&
                    lex.tokens[i + 3].kind == TokKind::Identifier &&
                    isPunct(i + 4, ';');
    // Direct-init copy: `SmtCpu x(y);`. Multi-token argument lists
    // are real constructor calls and do not match.
    bool directInit = isPunct(i + 2, '(') &&
                      i + 3 < lex.tokens.size() &&
                      lex.tokens[i + 3].kind == TokKind::Identifier &&
                      isPunct(i + 4, ')') && isPunct(i + 5, ';');
    if (copyInit || directInit) {
        report("cpu-copy-hot-path", lex.tokens[i].line,
               "whole-machine SmtCpu copy; hot paths restore a warm "
               "machine (MachineArena::acquire + SmtCpu::restoreFrom, "
               "core/machine_arena.hh) instead of copy-constructing "
               "per trial");
    }
}

void
FileScanner::checkStatRegistration(std::size_t i)
{
    // globalStats().counter("name") / .gauge
    if (!isIdent(i, "globalStats") || !isPunct(i + 1, '(') ||
        !isPunct(i + 2, ')') || !isPunct(i + 3, '.'))
        return;
    if (!isIdent(i + 4, "counter") && !isIdent(i + 4, "gauge"))
        return;
    if (!isPunct(i + 5, '('))
        return;
    const Token &arg = lex.tokens.size() > i + 6 ? lex.tokens[i + 6]
                                                 : lex.tokens[i + 5];
    if (arg.kind != TokKind::String)
        return; // computed name; not statically checkable

    if (!validStatName(arg.text)) {
        report("stat-name", arg.line,
               "stat name \"" + arg.text +
                   "\" violates the smthill.* dotted-lowercase "
                   "convention (e.g. smthill.thread_pool.tasks)");
    }
    if (srcModule(parts) != "") {
        state.statSites[arg.text].push_back(
            {path, arg.line, lex.allowLineFor("stat-name", arg.line)});
    }
}

void
FileScanner::checkSchemaField(std::size_t i)
{
    const std::vector<const SchemaList *> lists = schemaListsFor(path);
    if (lists.empty())
        return;
    // .set("field" / .at("field" / .contains("field"
    if (!isPunct(i, '.'))
        return;
    if (!isIdent(i + 1, "set") && !isIdent(i + 1, "at") &&
        !isIdent(i + 1, "contains"))
        return;
    if (!isPunct(i + 2, '('))
        return;
    if (i + 3 >= lex.tokens.size() ||
        lex.tokens[i + 3].kind != TokKind::String)
        return;
    const Token &arg = lex.tokens[i + 3];
    for (const SchemaList *s : lists) {
        if (s->fields.count(arg.text))
            return;
    }
    report("schema-field", arg.line,
           "field \"" + arg.text +
               "\" is not in the versioned schema list for this "
               "writer; bump the schema version and extend the "
               "list in lint/lint.cc");
}

void
FileScanner::scanTokens()
{
    for (std::size_t i = 0; i < lex.tokens.size(); ++i) {
        if (lex.tokens[i].kind != TokKind::Identifier)
            continue;
        checkDeterminismIdent(i);
        checkErrorHandlingIdent(i);
        checkCpuCopyIdent(i);
        checkStatRegistration(i);
    }
    for (std::size_t i = 0; i < lex.tokens.size(); ++i)
        checkSchemaField(i);
}

void
FileScanner::scanDirectives()
{
    const std::string module = srcModule(parts);
    const int myRank = moduleRank(module);

    for (const Token &t : lex.tokens) {
        if (t.kind != TokKind::Directive)
            continue;
        std::string target;
        bool angled = false;
        if (!parseInclude(t.text, target, angled))
            continue;

        if (angled && !isRngSource(path)) {
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
                       !endsWith(path, "common/profile.cc")) {
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
FileScanner::checkIncludeGuard()
{
    const std::string want = canonicalGuard(path);
    const Token *first = nullptr;
    const Token *second = nullptr;
    for (const Token &t : lex.tokens) {
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

/** Stable finding order: file, line, rule, message. */
void
sortFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
}

/** Emit duplicate-registration findings from aggregated stat sites. */
void
appendStatDuplicates(const ScanState &state,
                     std::vector<Finding> &findings,
                     SuppressionAudit *audit = nullptr)
{
    for (const auto &[name, sites] : state.statSites) {
        if (sites.size() < 2)
            continue;
        for (std::size_t i = 1; i < sites.size(); ++i) {
            if (sites[i].allowLine != 0) {
                if (audit)
                    audit->recordUse(sites[i].file, sites[i].allowLine,
                                     "stat-name");
                continue;
            }
            findings.push_back(
                {"stat-name", sites[i].file, sites[i].line,
                 "stat \"" + name + "\" already registered at " +
                     sites[0].file + ":" +
                     std::to_string(sites[0].line) +
                     "; stat names are unique across src/"});
        }
    }
}

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

} // namespace

std::vector<std::string>
ruleNames()
{
    return {
        "no-wall-clock",  "no-libc-random", "no-unordered-container",
        "stat-name",      "schema-field",   "error-handling",
        "cpu-copy-hot-path", "include-guard", "layering",
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
        // smthill.lint.v1 (lint/lint.hh): findings documents from
        // both smthill_lint and smthill_analyze, including the
        // analyzer's tool/passes metadata extensions. Registered
        // here so the schema-field rule covers the linter's own
        // writers instead of exempting them.
        {"smthill.lint.v1",
         {"lint/lint.cc", "lint/analyze.cc", "tools/smthill_analyze.cc"},
         {
             "schema",  "findings", "rule",   "file",
             "line",    "message",  "tool",   "passes",
         }},
    };
    return catalog;
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &content)
{
    ScanState state;
    std::vector<Finding> findings =
        FileScanner(path, content, state).run();
    appendStatDuplicates(state, findings);
    sortFindings(findings);
    return findings;
}

bool
collectSourceFiles(const std::vector<std::string> &paths,
                   std::vector<std::string> &files, std::string &error)
{
    namespace fs = std::filesystem;
    error.clear();
    files.clear();

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

std::vector<Finding>
lintUnits(const std::vector<SourceUnit> &units, SuppressionAudit *audit)
{
    ScanState state;
    std::vector<Finding> findings;
    for (const auto &[path, content] : units) {
        std::vector<Finding> here =
            FileScanner(path, content, state, audit).run();
        findings.insert(findings.end(), here.begin(), here.end());
    }
    appendStatDuplicates(state, findings, audit);
    sortFindings(findings);
    return findings;
}

std::vector<Finding>
lintPaths(const std::vector<std::string> &paths, std::string &error)
{
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
