/**
 * @file
 * smthill-lint driver: run the project's static analysis — nine
 * per-file rules and four cross-TU passes over one project model
 * (lint/lint.hh, catalog in DESIGN.md §9) — over files and directory
 * trees.
 *
 * Usage:
 *   smthill_lint [json=FILE] [quiet=1] [list_rules=1] <paths...>
 *
 * GNU spellings are accepted ("--json=out.json"). Findings print as
 * `file:line: [rule] message`; `json=FILE` additionally writes a
 * `smthill.lint.v1` document. Exit status is 0 only when every path
 * lints clean — the `Lint` ctest entry runs the whole tree, and a
 * finding is suppressed only by an explicit
 * `// smthill-lint: allow(<rule>)` at the offending line.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/options.hh"
#include "lint/lint.hh"

using namespace smthill;

namespace
{

void
usage(const OptionSet &opts)
{
    std::printf(
        "usage: smthill_lint [json=FILE] [quiet=1] [list_rules=1] "
        "<paths...>\n"
        "  lints .hh/.h/.cc/.cpp files under each path; exits "
        "nonzero on any\n  unsuppressed finding "
        "(// smthill-lint: allow(<rule>) suppresses one line)\n\n"
        "options:\n");
    opts.printHelp();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    bool quiet = false;
    bool listRules = false;

    OptionSet opts;
    opts.addString("json", &jsonPath,
                   "also write a smthill.lint.v1 document here");
    opts.addBool("quiet", &quiet, "print nothing but errors");
    opts.addBool("list_rules", &listRules,
                 "print every rule and pass name, then exit");

    std::vector<std::string> paths;
    std::string error;
    if (!opts.parseArgs({argv + 1, argv + argc}, paths, error)) {
        std::fprintf(stderr, "smthill_lint: %s\n", error.c_str());
        return 2;
    }
    if (listRules) {
        for (const std::string &rule : lint::ruleNames())
            std::printf("%s\n", rule.c_str());
        return 0;
    }
    if (!paths.empty() && paths[0] == "help") {
        usage(opts);
        return 0;
    }
    if (paths.empty()) {
        usage(opts);
        return 2;
    }

    std::vector<lint::Finding> findings = lint::lintPaths(paths, error);
    if (!error.empty()) {
        std::fprintf(stderr, "smthill_lint: %s\n", error.c_str());
        return 2;
    }

    if (!quiet) {
        for (const lint::Finding &f : findings) {
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        }
    }

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "smthill_lint: cannot write %s\n",
                         jsonPath.c_str());
            return 2;
        }
        out << lint::findingsToJson(findings).dump(2) << "\n";
    }

    if (findings.empty()) {
        if (!quiet)
            std::printf("smthill_lint: clean (%zu rules and passes)\n",
                        lint::ruleNames().size());
        return 0;
    }
    std::fprintf(stderr, "smthill_lint: %zu finding%s\n",
                 findings.size(), findings.size() == 1 ? "" : "s");
    return 1;
}
