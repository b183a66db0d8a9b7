/**
 * @file
 * Tests for the project linter (lint/lint.hh): every rule has a
 * must-flag and a must-pass fixture under tests/lint/fixtures/, the
 * suppression comment works (and only for the named rule), and
 * findings round-trip through the common/json layer as
 * `smthill.lint.v1` documents.
 *
 * Fixtures are linted under *synthetic* paths: path-scoped rules
 * (schema files, module ranks, guard canonicalization) key off the
 * path handed to lintFile(), so fixture content can exercise any
 * rule from one on-disk directory — which the tree walker skips, so
 * the intentionally-failing files never dirty the `Lint` ctest run.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "lint/lexer.hh"
#include "lint/lint.hh"

using namespace smthill;
using lint::Finding;

namespace
{

std::string
fixture(const std::string &name)
{
    const std::string path =
        std::string(SMTHILL_LINT_FIXTURES) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Lint fixture @p name under synthetic @p path. */
std::vector<Finding>
lintFixture(const std::string &name, const std::string &path)
{
    return lint::lintFile(path, fixture(name));
}

/** Expect >= 1 finding, every one of @p rule. */
void
expectFlagged(const std::string &name, const std::string &path,
              const std::string &rule)
{
    std::vector<Finding> findings = lintFixture(name, path);
    EXPECT_FALSE(findings.empty())
        << name << " must produce a " << rule << " finding";
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, rule)
            << name << " raised an unexpected rule at line " << f.line
            << ": " << f.message;
        EXPECT_EQ(f.file, path);
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
    }
}

void
expectClean(const std::string &name, const std::string &path)
{
    std::vector<Finding> findings = lintFixture(name, path);
    EXPECT_TRUE(findings.empty())
        << name << " must lint clean; first: "
        << (findings.empty() ? "" : findings[0].message);
}

} // namespace

TEST(Lint, RuleCatalog)
{
    // Nine per-file rules; the four cross-TU passes follow them
    // (Analyze.PassNamesAreTheFourDocumentedPasses).
    std::vector<std::string> rules = lint::ruleNames();
    EXPECT_EQ(rules.size(), 13u);
    for (const char *rule : {"no-wall-clock", "no-libc-random",
                             "no-unordered-container", "stat-name",
                             "schema-field", "error-handling",
                             "cpu-copy-hot-path", "include-guard",
                             "layering"}) {
        EXPECT_NE(std::find(rules.begin(), rules.end(), rule),
                  rules.end())
            << rule;
    }
}

TEST(Lint, NoWallClockFixtures)
{
    expectFlagged("no_wall_clock_flag.cc",
                  "src/fixture/no_wall_clock_flag.cc", "no-wall-clock");
    expectClean("no_wall_clock_pass.cc",
                "src/fixture/no_wall_clock_pass.cc");
}

TEST(Lint, ProfilerSourceIsExemptFromWallClockRule)
{
    // The host profiler is the one sanctioned steady-clock user: the
    // same clock-reading content lints clean under its own path and
    // keeps flagging everywhere else.
    std::vector<Finding> carved = lint::lintFile(
        "src/common/profile.cc", fixture("no_wall_clock_carveout.cc"));
    EXPECT_TRUE(carved.empty());

    expectFlagged("no_wall_clock_carveout.cc",
                  "src/fixture/no_wall_clock_carveout.cc",
                  "no-wall-clock");
}

TEST(Lint, NoLibcRandomFixtures)
{
    expectFlagged("no_libc_random_flag.cc",
                  "src/fixture/no_libc_random_flag.cc",
                  "no-libc-random");
    expectClean("no_libc_random_pass.cc",
                "src/fixture/no_libc_random_pass.cc");
}

TEST(Lint, RngSourceIsExemptFromDeterminismRules)
{
    // The same flagged content lints clean under the RNG's own path.
    std::vector<Finding> findings = lint::lintFile(
        "src/common/rng.cc", fixture("no_libc_random_flag.cc"));
    EXPECT_TRUE(findings.empty());
}

TEST(Lint, NoUnorderedContainerFixtures)
{
    expectFlagged("no_unordered_container_flag.cc",
                  "src/fixture/no_unordered_container_flag.cc",
                  "no-unordered-container");
    expectClean("no_unordered_container_pass.cc",
                "src/fixture/no_unordered_container_pass.cc");
}

TEST(Lint, StatNameFixtures)
{
    expectFlagged("stat_name_flag.cc", "src/fixture/stat_name_flag.cc",
                  "stat-name");
    expectClean("stat_name_pass.cc", "src/fixture/stat_name_pass.cc");

    // The flag fixture carries one convention violation and one
    // duplicate registration; both must surface.
    std::vector<Finding> findings = lintFixture(
        "stat_name_flag.cc", "src/fixture/stat_name_flag.cc");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_NE(findings[0].message.find("convention"),
              std::string::npos);
    EXPECT_NE(findings[1].message.find("already registered"),
              std::string::npos);
}

TEST(Lint, StatDuplicatesIgnoredOutsideSrc)
{
    // Tests and benches look up production stats by name to assert
    // on them; that re-lookup is not a duplicate registration.
    std::vector<Finding> findings = lint::lintFile(
        "tests/fixture_stat.cc", fixture("stat_name_flag.cc"));
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("convention"),
              std::string::npos);
}

TEST(Lint, SchemaFieldFixtures)
{
    expectFlagged("schema_field_flag.cc", "src/core/epoch_trace.cc",
                  "schema-field");
    expectClean("schema_field_pass.cc", "src/core/epoch_trace.cc");

    // Off the two writer files the rule does not apply at all.
    std::vector<Finding> findings = lint::lintFile(
        "src/fixture/other.cc", fixture("schema_field_flag.cc"));
    EXPECT_TRUE(findings.empty());
}

TEST(Lint, ErrorHandlingFixtures)
{
    expectFlagged("error_handling_flag.cc",
                  "src/fixture/error_handling_flag.cc",
                  "error-handling");
    expectClean("error_handling_pass.cc",
                "src/fixture/error_handling_pass.cc");

    // new / delete[] / exit / throw: four distinct findings.
    EXPECT_EQ(lintFixture("error_handling_flag.cc",
                          "src/fixture/error_handling_flag.cc")
                  .size(),
              4u);

    // `throw` is a library-code rule; under tests/ it is legal (the
    // thread-pool suite throws to exercise exception propagation).
    std::vector<Finding> inTests = lint::lintFile(
        "tests/fixture_throw.cc",
        "void f() { throw 1; }\n");
    EXPECT_TRUE(inTests.empty());
}

TEST(Lint, CpuCopyHotPathFixtures)
{
    expectFlagged("cpu_copy_hot_path_flag.cc",
                  "src/fixture/cpu_copy_hot_path_flag.cc",
                  "cpu-copy-hot-path");
    expectClean("cpu_copy_hot_path_pass.cc",
                "src/fixture/cpu_copy_hot_path_pass.cc");

    // Copy-init and direct-init both surface.
    EXPECT_EQ(lintFixture("cpu_copy_hot_path_flag.cc",
                          "src/fixture/cpu_copy_hot_path_flag.cc")
                  .size(),
              2u);

    // Bench loops are hot paths too; tests keep checkpoint value
    // semantics on purpose and are exempt, as is the arena itself.
    expectFlagged("cpu_copy_hot_path_flag.cc",
                  "bench/cpu_copy_hot_path_flag.cc",
                  "cpu-copy-hot-path");
    EXPECT_TRUE(lintFixture("cpu_copy_hot_path_flag.cc",
                            "tests/cpu_copy_hot_path_flag.cc")
                    .empty());
    EXPECT_TRUE(lintFixture("cpu_copy_hot_path_flag.cc",
                            "src/core/machine_arena.cc")
                    .empty());

    // The intentional copies that remain (one checkpoint capture per
    // epoch, the checkpoint microbench) carry allow() comments.
    std::vector<Finding> suppressed = lint::lintFile(
        "src/fixture/allowed.cc",
        "void f(const SmtCpu &cpu) {\n"
        "    // smthill-lint: allow(cpu-copy-hot-path)\n"
        "    SmtCpu checkpoint = cpu;\n"
        "}\n");
    EXPECT_TRUE(suppressed.empty());
}

TEST(Lint, IncludeGuardFixtures)
{
    expectFlagged("include_guard_flag.hh",
                  "src/fixture/include_guard_flag.hh", "include-guard");
    expectClean("include_guard_pass.hh",
                "src/fixture/include_guard_pass.hh");

    // #pragma once violates the house #ifndef convention.
    std::vector<Finding> pragma = lint::lintFile(
        "src/fixture/p.hh", "#pragma once\nstruct P {};\n");
    ASSERT_EQ(pragma.size(), 1u);
    EXPECT_EQ(pragma[0].rule, "include-guard");

    // The guard macro is path-canonical, so the passing content
    // flags when linted under a different path.
    std::vector<Finding> moved = lint::lintFile(
        "src/fixture/renamed.hh", fixture("include_guard_pass.hh"));
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved[0].rule, "include-guard");
}

TEST(Lint, LayeringFixtures)
{
    expectFlagged("layering_flag.cc", "src/pipeline/layering_flag.cc",
                  "layering");
    expectClean("layering_pass.cc", "src/pipeline/layering_pass.cc");

    // The same upward include is legal from the top of the stack.
    std::vector<Finding> fromValidate = lint::lintFile(
        "src/validate/layering_flag.cc", fixture("layering_flag.cc"));
    EXPECT_TRUE(fromValidate.empty());
}

TEST(Lint, SuppressionComment)
{
    // Two matching allows (same line, line above) suppress; the
    // wrong-rule allow does not.
    std::vector<Finding> findings = lintFixture(
        "suppression.cc", "src/fixture/suppression.cc");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "no-libc-random");
    EXPECT_EQ(lint::lexFile(fixture("suppression.cc"))
                  .allowLineFor("no-libc-random", 12),
              0)
        << "wrong-rule allow must not suppress";
}

TEST(Lint, FindingsJsonRoundTrip)
{
    std::vector<Finding> findings;
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"no_libc_random_flag.cc",
         "src/fixture/no_libc_random_flag.cc"},
        {"stat_name_flag.cc", "src/fixture/stat_name_flag.cc"},
        {"layering_flag.cc", "src/pipeline/layering_flag.cc"},
    };
    for (const auto &[name, path] : cases) {
        std::vector<Finding> here = lintFixture(name, path);
        findings.insert(findings.end(), here.begin(), here.end());
    }
    ASSERT_FALSE(findings.empty());

    Json doc = lint::findingsToJson(findings);
    EXPECT_EQ(doc.at("schema").asString(), "smthill.lint.v1");

    // Serialize, reparse, and rebuild: bit-identical findings.
    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(doc.dump(2), reparsed, error)) << error;
    std::vector<Finding> rebuilt;
    ASSERT_TRUE(lint::findingsFromJson(reparsed, rebuilt, error))
        << error;
    EXPECT_EQ(rebuilt, findings);
}

TEST(Lint, FindingsJsonRejectsMalformedDocs)
{
    std::vector<Finding> out;
    std::string error;

    Json wrongSchema = Json::object();
    wrongSchema.set("schema", Json("smthill.report.v1"));
    wrongSchema.set("findings", Json::array());
    EXPECT_FALSE(lint::findingsFromJson(wrongSchema, out, error));
    EXPECT_FALSE(error.empty());

    Json noFindings = Json::object();
    noFindings.set("schema", Json("smthill.lint.v1"));
    EXPECT_FALSE(lint::findingsFromJson(noFindings, out, error));

    Json badEntry = Json::object();
    badEntry.set("schema", Json("smthill.lint.v1"));
    Json arr = Json::array();
    Json item = Json::object();
    item.set("rule", Json("stat-name"));
    arr.push(std::move(item));
    badEntry.set("findings", std::move(arr));
    EXPECT_FALSE(lint::findingsFromJson(badEntry, out, error));
    EXPECT_TRUE(out.empty());
}

TEST(Lint, LintPathsWalksAndReportsErrors)
{
    // The fixture directory lints clean when reached through the
    // walker: directories named `fixtures` are skipped, which is
    // what keeps the tree-wide Lint ctest green.
    std::string error;
    std::vector<Finding> viaParent = lint::lintPaths(
        {std::string(SMTHILL_LINT_FIXTURES) + "/.."}, error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_TRUE(viaParent.empty());

    // Passing the fixture directory explicitly lints its contents.
    std::vector<Finding> direct =
        lint::lintPaths({SMTHILL_LINT_FIXTURES}, error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(direct.empty());

    // Unknown paths surface as errors, not findings.
    std::vector<Finding> missing =
        lint::lintPaths({"/nonexistent/smthill"}, error);
    EXPECT_TRUE(missing.empty());
    EXPECT_FALSE(error.empty());
}
