/**
 * @file
 * smthill-lint: project-specific static analysis over the source
 * tree (DESIGN.md §9; driver in tools/smthill_lint.cc).
 *
 * The simulator's headline results rest on properties no runtime
 * check can prove — bit-identical replay at any `--jobs` count,
 * checkpoint-clone determinism, stable stat/trace schemas — and
 * those properties die silently when someone introduces `rand()`,
 * wall-clock time, unordered-container iteration, an off-schema stat
 * name, or a racy pool lambda. The checks here catch exactly those
 * regressions at build time, before the differential fuzzer ever has
 * to shrink a seed.
 *
 * One run lexes every file once into a ProjectModel
 * (buildProjectModel): the token streams and allow markers, function
 * definitions with a name-matched call graph and allocation-shaped
 * body sites, lambda capture lists at `parallelFor` /
 * `parallelForWorker` / `runGrid` / `runGridWorker` call sites,
 * every stat-name registration and mention, writer/parser field
 * sites for every versioned schema in schemaCatalog(), and event
 * names emitted at EventTrace call sites vs the `kKnownEventNames`
 * catalog of smthill_trace_report. Thirteen checks read the model.
 *
 * Nine per-file rules:
 *  - no-wall-clock:          no `time()`/`clock()`/chrono clocks
 *                            outside `src/common/rng.*`
 *  - no-libc-random:         no `rand`/`srand`/`<random>` machinery
 *                            outside `src/common/rng.*`
 *  - no-unordered-container: no `std::unordered_{map,set}` anywhere
 *                            (iteration order feeds exported results)
 *  - stat-name:              literals registered via `globalStats()`
 *                            match `smthill.*` dotted-lowercase and
 *                            are registered once across `src/`
 *  - schema-field:           JSON field literals in a schema's
 *                            governed writer/parser files stay inside
 *                            the versioned schema lists
 *  - error-handling:         no naked `new`/`delete`; no
 *                            `exit`/`abort` outside `common/log.cc`;
 *                            no `throw` in library code (`src/`)
 *  - cpu-copy-hot-path:      no `SmtCpu x = y;` copy-construction in
 *                            `src/` or `bench/` outside the
 *                            checkpoint API (`core/machine_arena.*`);
 *                            hot paths restore warm machines via
 *                            `MachineArena::acquire` instead of
 *                            paying the whole-machine copy per trial
 *  - include-guard:          every header opens with the canonical
 *                            `SMTHILL_<PATH>_HH` `#ifndef` guard
 *  - layering:               `src/` modules include only same-or-
 *                            lower-ranked modules (common -> trace/
 *                            branch/memory -> pipeline -> policy/
 *                            workload -> core -> phase -> harness ->
 *                            validate)
 *
 * Four cross-TU passes:
 *  - parallel-capture:      a by-reference capture mutated inside a
 *                           pool lambda without index-/worker-
 *                           disjoint access, atomics, or locks — the
 *                           race shape TSan only catches once the
 *                           schedule cooperates
 *  - cross-tu-consistency:  stats registered but never read outside
 *                           the registering file (or looked up but
 *                           never registered by src/); schema fields
 *                           written but unparsed, parsed but
 *                           unwritten, or listed but dead; event
 *                           names emitted but unknown to
 *                           smthill_trace_report (or catalogued but
 *                           never emitted)
 *  - hot-path-allocation:   `new` / `make_unique` / container growth
 *                           / `std::function` construction in
 *                           functions reachable from `SmtCpu::step` /
 *                           `SmtCpu::run` / `runTrialEpoch` /
 *                           `MachineArena::sweep` in the call graph
 *                           (the reachability generalization of the
 *                           token-level cpu-copy-hot-path rule)
 *  - stale-suppression:     an allow marker that no longer
 *                           suppresses any finding of its rule is
 *                           itself a finding
 *
 * Every check is suppressible per line via
 * `// smthill-lint: allow(<rule>)` on the finding line or the line
 * above.
 */

#ifndef SMTHILL_LINT_LINT_HH
#define SMTHILL_LINT_LINT_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "lint/lexer.hh"

namespace smthill
{
namespace lint
{

/** One unsuppressed rule violation. */
struct Finding
{
    std::string rule;    ///< rule name from ruleNames()
    std::string file;    ///< path as passed to the linter
    int line = 0;        ///< 1-based source line
    std::string message; ///< human-readable description

    bool operator==(const Finding &) const = default;
};

/** @return the nine per-file rules, then the four cross-TU passes. */
std::vector<std::string> ruleNames();

/**
 * One versioned JSON schema: the field list plus the writer/parser
 * files whose `.set("f")` / `.at("f")` / `.contains("f")` literals
 * it governs. The schema-field rule checks every literal in a
 * governed file against the union of the lists that govern it; the
 * cross-tu-consistency pass additionally compares the written,
 * parsed, and listed field sets per schema.
 */
struct SchemaList
{
    std::string name;                      ///< e.g. "smthill.report.v1"
    std::vector<std::string> fileSuffixes; ///< writer/parser files
    std::set<std::string> fields;          ///< versioned field list
};

/** The versioned schema catalog, in stable order. */
const std::vector<SchemaList> &schemaCatalog();

/** One in-memory source file: (path, content). */
using SourceUnit = std::pair<std::string, std::string>;

/** A (file, line) location inside the project model. */
struct Site
{
    std::string file;
    int line = 0;

    bool operator==(const Site &) const = default;
};

/** One callee reference inside a function body. */
struct CallRef
{
    std::string name; ///< bare callee identifier
    int line = 0;
};

/** One allocation-shaped site inside a function body. */
struct AllocSite
{
    std::string what; ///< "new", "make_unique", "push_back", ...
    int line = 0;
};

/** One function definition and its body-level facts. */
struct FunctionDef
{
    std::string qual; ///< "SmtCpu::step" (== bare when unqualified)
    std::string bare; ///< last path component of the name
    std::string file;
    int line = 0;
    std::vector<CallRef> calls;
    std::vector<AllocSite> allocs;
};

/** One entry of a lambda capture list. */
struct Capture
{
    std::string name;
    bool byRef = false;
};

/** One lambda literal handed to a pool fan-out call. */
struct PoolLambda
{
    std::string callee; ///< parallelFor(Worker) / runGrid(Worker)
    std::string file;
    int line = 0;
    bool byRefDefault = false;  ///< [&...]
    bool byValueDefault = false; ///< [=...]
    std::vector<Capture> captures;
    std::string indexParam;  ///< first parameter name ("" if none)
    std::string workerParam; ///< second parameter name ("" if none)
    std::size_t fileIndex = 0; ///< into ProjectModel::files
    std::size_t bodyBegin = 0; ///< body token range [begin, end)
    std::size_t bodyEnd = 0;
};

/** Uses of one stat name across the project. */
struct StatUse
{
    std::vector<Site> registrations; ///< globalStats() lookups in src/
    std::vector<Site> lookups;       ///< globalStats() lookups anywhere
    std::vector<Site> mentions;      ///< any matching string literal
};

/** Writer/parser field sites for one schema list. */
struct SchemaUse
{
    std::map<std::string, std::vector<Site>> written; ///< .set("f")
    std::map<std::string, std::vector<Site>> parsed;  ///< .at/.contains
};

/** Everything the rules and passes read, built in one lex. */
struct ProjectModel
{
    struct File
    {
        std::string path;
        std::vector<std::string> parts; ///< path components
        LexedFile lex;
    };

    std::vector<File> files;
    std::vector<FunctionDef> functions;
    std::vector<PoolLambda> poolLambdas;

    /// Every `globalStats().counter/gauge("…")` literal (whatever its
    /// shape) plus every stat-shaped string literal.
    std::map<std::string, StatUse> stats;

    std::map<std::string, SchemaUse> schemas; ///< by SchemaList::name

    /// Field literals at `.set/.at/.contains` sites of a governed file
    /// that no list governing the file names.
    std::map<std::string, std::vector<Site>> unlistedFields;

    /// Event names emitted at instant/complete/counter call sites in
    /// src/ and bench/ (a computed name records as a "prefix*" entry).
    std::map<std::string, std::vector<Site>> emittedEvents;

    /// `kKnownEventNames` catalog entries (entry -> defining site);
    /// a trailing '*' marks a prefix wildcard.
    std::map<std::string, Site> knownEventNames;
};

/** Lex each unit once and extract the project model. */
ProjectModel buildProjectModel(const std::vector<SourceUnit> &units);

/**
 * Run the nine per-file rules over one file given its @p path and
 * @p content. Path-scoped rules (allowlists, module ranks, schema
 * files) key off @p path, so tests may lint fixture content under a
 * synthetic path. Duplicate stat-name detection is limited to this
 * file, and the cross-TU passes need the whole project (lintUnits).
 */
std::vector<Finding> lintFile(const std::string &path,
                              const std::string &content);

/**
 * Run every rule and pass over in-memory units. Stale-suppression
 * runs last, over the allow markers no other check consumed.
 * @return all unsuppressed findings in (file, line, rule, message)
 * order
 */
std::vector<Finding> lintUnits(const std::vector<SourceUnit> &units);

/**
 * Lint files and directory trees. Directories are walked
 * recursively for `.hh`/`.h`/`.cc`/`.cpp` files in deterministic
 * (sorted) order, skipping build outputs, dot-directories, and
 * `fixtures` directories (which hold intentionally-failing lint
 * fixtures); files named explicitly are always read.
 *
 * @param paths files and/or directories to lint
 * @param error receives a message if a path cannot be read
 * @return lintUnits() over the files, or nothing with @p error set
 */
std::vector<Finding> lintPaths(const std::vector<std::string> &paths,
                               std::string &error);

/** Serialize findings as a `smthill.lint.v1` JSON document. */
Json findingsToJson(const std::vector<Finding> &findings);

/**
 * Parse a `smthill.lint.v1` document back into findings.
 * @return false with @p error set on schema violations
 */
bool findingsFromJson(const Json &doc, std::vector<Finding> &out,
                      std::string &error);

} // namespace lint
} // namespace smthill

#endif // SMTHILL_LINT_LINT_HH
