/**
 * @file
 * Tests for the linter's cross-TU side (lint/lint.hh): the project
 * model (call-graph edges, pool-lambda capture extraction,
 * stat/schema/event tables), each cross-TU pass against its
 * must-flag / must-pass fixture pair under tests/lint/fixtures/, and
 * the smthill.lint.v1 JSON round-trip of pass findings.
 *
 * Fixtures are linted under *synthetic* paths, exactly like
 * test_lint.cc: the hot-path domain and the stat registration rules
 * key off the path handed to lintUnits, so fixture content can stand
 * in for any module from one on-disk directory (which the tree
 * walker skips, keeping the Lint ctest run clean).
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
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

lint::SourceUnit
unit(const std::string &path, const std::string &fixtureName)
{
    return {path, fixture(fixtureName)};
}

/** Every finding must carry @p rule (and nothing else may fire). */
void
expectOnlyRule(const std::vector<Finding> &findings,
               const std::string &rule)
{
    EXPECT_FALSE(findings.empty()) << "expected a " << rule << " finding";
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, rule) << f.file << ":" << f.line << ": "
                                << f.message;
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
    }
}

TEST(Analyze, PassNamesAreTheFourDocumentedPasses)
{
    // The four passes follow the nine per-file rules.
    std::vector<std::string> all = lint::ruleNames();
    ASSERT_EQ(all.size(), 13u);
    std::vector<std::string> names(all.begin() + 9, all.end());
    ASSERT_EQ(names.size(), 4u);
    EXPECT_NE(std::find(names.begin(), names.end(), "parallel-capture"),
              names.end());
    EXPECT_NE(
        std::find(names.begin(), names.end(), "cross-tu-consistency"),
        names.end());
    EXPECT_NE(
        std::find(names.begin(), names.end(), "hot-path-allocation"),
        names.end());
    EXPECT_NE(
        std::find(names.begin(), names.end(), "stale-suppression"),
        names.end());
}

// ---------------------------------------------------------------
// Project model
// ---------------------------------------------------------------

TEST(AnalyzeModel, CallGraphRecordsDefinitionsAndEdges)
{
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/core/graph.cc",
          "void alpha() { beta(); }\n"
          "void beta() { gamma(1); gamma(2); }\n"
          "int gamma(int x) { return x; }\n"}});

    auto find = [&](const std::string &bare) -> const lint::FunctionDef * {
        for (const lint::FunctionDef &f : m.functions)
            if (f.bare == bare)
                return &f;
        return nullptr;
    };
    const lint::FunctionDef *alpha = find("alpha");
    const lint::FunctionDef *beta = find("beta");
    const lint::FunctionDef *gamma = find("gamma");
    ASSERT_NE(alpha, nullptr);
    ASSERT_NE(beta, nullptr);
    ASSERT_NE(gamma, nullptr);

    ASSERT_EQ(alpha->calls.size(), 1u);
    EXPECT_EQ(alpha->calls[0].name, "beta");
    ASSERT_EQ(beta->calls.size(), 2u);
    EXPECT_EQ(beta->calls[0].name, "gamma");
    EXPECT_EQ(beta->calls[1].name, "gamma");
    EXPECT_TRUE(gamma->calls.empty());
    EXPECT_EQ(alpha->file, "src/core/graph.cc");
}

TEST(AnalyzeModel, QualifiedDefinitionKeepsBothNames)
{
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/pipeline/fake.cc",
          "void SmtCpu::step() { tick(); }\n"}});
    bool found = false;
    for (const lint::FunctionDef &f : m.functions) {
        if (f.qual != "SmtCpu::step")
            continue;
        found = true;
        EXPECT_EQ(f.bare, "step");
    }
    EXPECT_TRUE(found) << "qualified definition missing from model";
}

TEST(AnalyzeModel, PoolLambdaCapturesAndParamsExtracted)
{
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/core/fanout.cc",
          "void f(ThreadPool &pool, int x, int y) {\n"
          "    pool.parallelForWorker(8,\n"
          "        [&x, y](std::size_t i, int w) { use(x, y, i, w); });\n"
          "}\n"}});
    ASSERT_EQ(m.poolLambdas.size(), 1u);
    const lint::PoolLambda &pl = m.poolLambdas[0];
    EXPECT_EQ(pl.callee, "parallelForWorker");
    EXPECT_FALSE(pl.byRefDefault);
    ASSERT_EQ(pl.captures.size(), 2u);
    EXPECT_EQ(pl.captures[0].name, "x");
    EXPECT_TRUE(pl.captures[0].byRef);
    EXPECT_EQ(pl.captures[1].name, "y");
    EXPECT_FALSE(pl.captures[1].byRef);
    EXPECT_EQ(pl.indexParam, "i");
    EXPECT_EQ(pl.workerParam, "w");
}

TEST(AnalyzeModel, StatTableSeparatesRegistrationFromMention)
{
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/common/widget.cc",
          "StatCounter &f() {\n"
          "    static StatCounter &c =\n"
          "        globalStats().counter(\"smthill.widget.frobs\");\n"
          "    return c;\n"
          "}\n"},
         {"tests/test_widget.cc",
          "void t() { check(\"smthill.widget.frobs\"); }\n"}});
    ASSERT_EQ(m.stats.count("smthill.widget.frobs"), 1u);
    const lint::StatUse &use = m.stats.at("smthill.widget.frobs");
    ASSERT_EQ(use.registrations.size(), 1u);
    EXPECT_EQ(use.registrations[0].file, "src/common/widget.cc");
    // The bare string in the test is a mention, not a registration.
    ASSERT_EQ(use.mentions.size(), 2u);
    EXPECT_EQ(use.mentions[1].file, "tests/test_widget.cc");
}

TEST(AnalyzeModel, SchemaTableSplitsWriterAndParserSides)
{
    // Field sites are only collected in a schema's governed files
    // (the catalog's file list); smthill.events.v1 governs two
    // distinct TUs, one per side.
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/common/event_trace.cc",
          "void w(Json &j) { j.set(\"clock\", Json(1)); }\n"},
         {"tools/smthill_trace_report.cc",
          "void r(const Json &j) { use(j.at(\"clock\")); }\n"}});
    ASSERT_EQ(m.schemas.count("smthill.events.v1"), 1u);
    const lint::SchemaUse &su = m.schemas.at("smthill.events.v1");
    ASSERT_EQ(su.written.count("clock"), 1u);
    EXPECT_EQ(su.written.at("clock")[0].file,
              "src/common/event_trace.cc");
    ASSERT_EQ(su.parsed.count("clock"), 1u);
    EXPECT_EQ(su.parsed.at("clock")[0].file,
              "tools/smthill_trace_report.cc");
}

TEST(AnalyzeModel, EventTablesRecordEmissionAndCatalog)
{
    lint::ProjectModel m = lint::buildProjectModel(
        {{"src/core/emit.cc",
          "void f(EventTrace *t) {\n"
          "    t->instant(1, 0, 0, \"hill\", \"epoch\");\n"
          "    t->counter(1, 0, 0, \"share.t\" + std::to_string(2), 8);\n"
          "    t->complete(1, 2, 0, 0, category(), \"round\");\n"
          "}\n"},
         {"tools/smthill_trace_report.cc",
          "const char *const kKnownEventNames[] = {\n"
          "    \"epoch\", \"share.t*\",\n"
          "};\n"}});
    // instant: the name is the string after the category.
    EXPECT_EQ(m.emittedEvents.count("epoch"), 1u);
    // A computed counter name records as a prefix wildcard.
    EXPECT_EQ(m.emittedEvents.count("share.t*"), 1u);
    // A computed category does not hide the literal name after it.
    EXPECT_EQ(m.emittedEvents.count("round"), 1u);
    EXPECT_EQ(m.knownEventNames.count("epoch"), 1u);
    EXPECT_EQ(m.knownEventNames.count("share.t*"), 1u);
}

// ---------------------------------------------------------------
// Cross-TU passes: fire/pass fixture pairs
// ---------------------------------------------------------------

TEST(AnalyzePasses, ParallelCaptureFlagAndPass)
{
    std::vector<Finding> fire = lint::lintUnits(
        {unit("src/core/racy.cc", "parallel_capture_flag.cc")});
    expectOnlyRule(fire, "parallel-capture");
    // Both the reduction ('sum') and the growth ('rows') must fire.
    EXPECT_EQ(fire.size(), 2u);

    EXPECT_TRUE(lint::lintUnits({unit("src/core/tidy.cc",
                                      "parallel_capture_pass.cc")})
                    .empty());
}

TEST(AnalyzePasses, HotPathAllocationFlagAndPass)
{
    std::vector<Finding> fire = lint::lintUnits(
        {unit("src/pipeline/fetch_q.cc", "hot_path_alloc_flag.cc")});
    expectOnlyRule(fire, "hot-path-allocation");
    ASSERT_EQ(fire.size(), 1u);
    // The finding names the reachability chain from the root.
    EXPECT_NE(fire[0].message.find("SmtCpu::step"), std::string::npos)
        << fire[0].message;
    EXPECT_NE(fire[0].message.find("refill"), std::string::npos);

    EXPECT_TRUE(lint::lintUnits({unit("src/pipeline/fetch_q.cc",
                                      "hot_path_alloc_pass.cc")})
                    .empty());
}

TEST(AnalyzePasses, HotPathAllocationRootsAtTheArenaSweep)
{
    // The trial sweep is a root of its own: an allocation in a
    // helper only the sweep reaches is flagged, with the chain.
    std::vector<Finding> fire = lint::lintUnits(
        {{"src/core/machine_arena.cc",
          "void\n"
          "MachineArena::sweep(ThreadPool &pool)\n"
          "{\n"
          "    scoreTrial();\n"
          "}\n"
          "\n"
          "void\n"
          "scoreTrial()\n"
          "{\n"
          "    scores.push_back(0);\n"
          "}\n"}});
    expectOnlyRule(fire, "hot-path-allocation");
    ASSERT_EQ(fire.size(), 1u);
    EXPECT_NE(fire[0].message.find("MachineArena::sweep -> scoreTrial"),
              std::string::npos)
        << fire[0].message;
}

TEST(AnalyzePasses, HotPathReachabilityIgnoresFilePlacement)
{
    // runTrialEpoch's `trial.run(...)` is an SmtCpu call. Another
    // class's `run` must not become reachable through it, whether or
    // not the two definitions share a file: the callee file is the
    // same in both layouts, so the findings must match exactly.
    const std::string callee = "void\n"
                               "OfflineExhaustive::run()\n"
                               "{\n"
                               "    stepEpoch();\n"
                               "}\n"
                               "\n"
                               "void\n"
                               "OfflineExhaustive::stepEpoch()\n"
                               "{\n"
                               "    curve.push_back(0);\n"
                               "}\n";
    const std::string caller = "IpcSample\n"
                               "runTrialEpoch(SmtCpu &trial)\n"
                               "{\n"
                               "    trial.run(64);\n"
                               "    return sample();\n"
                               "}\n";
    const lint::SourceUnit cpu = {"src/pipeline/cpu.cc",
                                  "void\n"
                                  "SmtCpu::run(Cycle n)\n"
                                  "{\n"
                                  "    events.reserve(n);\n"
                                  "}\n"};

    std::vector<Finding> oneUnit = lint::lintUnits(
        {{"src/core/offline_exhaustive.cc", callee + caller}, cpu});
    std::vector<Finding> twoUnits = lint::lintUnits(
        {{"src/core/offline_exhaustive.cc", callee},
         {"src/core/machine_arena.cc", caller},
         cpu});
    EXPECT_EQ(oneUnit, twoUnits);
    // Only the SmtCpu::run root allocates; stepEpoch stays unreached.
    ASSERT_EQ(twoUnits.size(), 1u);
    EXPECT_EQ(twoUnits[0].rule, "hot-path-allocation");
    EXPECT_EQ(twoUnits[0].file, "src/pipeline/cpu.cc");
}

TEST(AnalyzePasses, HotPathDomainExcludesTestsAndValidate)
{
    // The same growth shape outside the hot-path domain stays clean:
    // tests are not simulation inner loops, and validate/ is
    // explicitly carved out of the domain.
    EXPECT_TRUE(lint::lintUnits({unit("tests/test_fetch_q.cc",
                                      "hot_path_alloc_flag.cc")})
                    .empty());
    EXPECT_TRUE(lint::lintUnits({unit("src/validate/fetch_q.cc",
                                      "hot_path_alloc_flag.cc")})
                    .empty());
}

TEST(AnalyzePasses, CrossTuStatFlagAndPass)
{
    std::vector<Finding> fire = lint::lintUnits(
        {unit("src/common/widget.cc", "cross_tu_stat_flag.cc")});
    expectOnlyRule(fire, "cross-tu-consistency");
    ASSERT_EQ(fire.size(), 1u);
    EXPECT_NE(fire[0].message.find("smthill.widget.frobs"),
              std::string::npos);

    // With the reader unit alongside, the stat is consumed cross-TU.
    EXPECT_TRUE(
        lint::lintUnits(
            {unit("src/common/widget.cc", "cross_tu_stat_flag.cc"),
             unit("tests/test_widget.cc", "cross_tu_stat_pass.cc")})
            .empty());

    // The reader alone fires the complementary direction: a lookup
    // of a stat that src/ never registers.
    std::vector<Finding> orphan = lint::lintUnits(
        {unit("tests/test_widget.cc", "cross_tu_stat_pass.cc")});
    expectOnlyRule(orphan, "cross-tu-consistency");
}

TEST(AnalyzePasses, CrossTuSchemaAsymmetryNeedsDistinctReader)
{
    // Writer-only, no distinct reader file: a single-TU schema is
    // self-consistent by construction and must stay clean (dead
    // listed fields included — no parser means no contract yet).
    EXPECT_TRUE(
        lint::lintUnits(
            {{"src/common/event_trace.cc",
              "void w(Json &j) { j.set(\"clock\", Json(1)); }\n"}})
            .empty());

    // A distinct reader that parses a different field makes the
    // unparsed write a real asymmetry.
    std::vector<Finding> fire = lint::lintUnits(
        {{"src/common/event_trace.cc",
          "void w(Json &j) { j.set(\"clock\", Json(1)); }\n"},
         {"tools/smthill_trace_report.cc",
          "void r(const Json &j) { use(j.at(\"ts\")); }\n"}});
    bool sawClock = false;
    for (const Finding &f : fire) {
        EXPECT_EQ(f.rule, "cross-tu-consistency");
        if (f.message.find("\"clock\"") != std::string::npos)
            sawClock = true;
    }
    EXPECT_TRUE(sawClock)
        << "written-but-unparsed 'clock' must fire with a distinct "
           "reader present";
}

TEST(AnalyzePasses, CrossTuUnknownEventFires)
{
    std::vector<Finding> fire = lint::lintUnits(
        {{"src/core/emit.cc",
          "void f(EventTrace *t) {\n"
          "    t->instant(1, 0, 0, \"hill\", \"epoch\");\n"
          "    t->instant(1, 0, 0, \"hill\", \"mystery\");\n"
          "}\n"},
         {"tools/smthill_trace_report.cc",
          "const char *const kKnownEventNames[] = {\"epoch\"};\n"}});
    expectOnlyRule(fire, "cross-tu-consistency");
    ASSERT_EQ(fire.size(), 1u);
    EXPECT_NE(fire[0].message.find("mystery"), std::string::npos);
}

TEST(AnalyzePasses, StaleSuppressionFlagAndPass)
{
    std::vector<Finding> fire = lint::lintUnits(
        {unit("src/core/stale.cc", "stale_suppression_flag.cc")});
    expectOnlyRule(fire, "stale-suppression");
    ASSERT_EQ(fire.size(), 1u);
    EXPECT_NE(fire[0].message.find("parallel-capture"),
              std::string::npos);

    EXPECT_TRUE(lint::lintUnits({unit("src/core/live.cc",
                                      "stale_suppression_pass.cc")})
                    .empty());
}

TEST(AnalyzePasses, SuppressionOnlyCoversTheNamedPass)
{
    // An allow(hot-path-allocation) marker does not silence a
    // parallel-capture finding on the same line.
    std::vector<Finding> fire = lint::lintUnits(
        {{"src/core/racy.cc",
          "void f(ThreadPool &pool) {\n"
          "    int n = 0;\n"
          "    pool.parallelFor(4, [&](std::size_t) { n++; }); "
          "// smthill-lint: allow(hot-path-allocation)\n"
          "}\n"}});
    ASSERT_EQ(fire.size(), 2u);
    // The race still fires, and the marker itself goes stale.
    EXPECT_EQ(fire[0].rule, "parallel-capture");
    EXPECT_EQ(fire[1].rule, "stale-suppression");
}

// ---------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------

TEST(AnalyzeJson, FindingsRoundTripThroughLintV1)
{
    std::vector<Finding> fire = lint::lintUnits(
        {unit("src/core/racy.cc", "parallel_capture_flag.cc"),
         unit("src/pipeline/fetch_q.cc", "hot_path_alloc_flag.cc")});
    ASSERT_FALSE(fire.empty());

    Json doc = lint::findingsToJson(fire);
    EXPECT_EQ(doc.at("schema").asString(), "smthill.lint.v1");
    // One document shape for rules and passes: {schema, findings}.
    EXPECT_EQ(doc.members().size(), 2u);

    std::string error;
    std::vector<Finding> back;
    ASSERT_TRUE(lint::findingsFromJson(doc, back, error)) << error;
    ASSERT_EQ(back.size(), fire.size());
    for (std::size_t i = 0; i < fire.size(); ++i) {
        EXPECT_EQ(back[i].file, fire[i].file);
        EXPECT_EQ(back[i].line, fire[i].line);
        EXPECT_EQ(back[i].rule, fire[i].rule);
        EXPECT_EQ(back[i].message, fire[i].message);
    }

    // Serialization survives a text round-trip too.
    Json reparsed;
    ASSERT_TRUE(Json::parse(doc.dump(2), reparsed, error)) << error;
    std::vector<Finding> again;
    ASSERT_TRUE(lint::findingsFromJson(reparsed, again, error)) << error;
    EXPECT_EQ(again.size(), fire.size());
}

} // namespace
