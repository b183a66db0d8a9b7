/**
 * @file
 * Unit tests for the key=value option registry and config-file
 * parsing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/options.hh"

namespace smthill
{
namespace
{

struct Knobs
{
    std::int64_t count = 1;
    std::uint64_t cycles = 2;
    int width = 3;
    bool flag = false;
    std::string name = "default";

    OptionSet
    options()
    {
        OptionSet o;
        o.addInt("count", &count, "a count");
        o.addUint("cycles", &cycles, "cycles");
        o.addInt32("width", &width, "a width");
        o.addBool("flag", &flag, "a flag");
        o.addString("name", &name, "a name");
        return o;
    }
};

TEST(Options, SetAllKinds)
{
    Knobs k;
    OptionSet o = k.options();
    std::string err;
    EXPECT_TRUE(o.set("count", "-7", err)) << err;
    EXPECT_TRUE(o.set("cycles", "65536", err)) << err;
    EXPECT_TRUE(o.set("width", "8", err)) << err;
    EXPECT_TRUE(o.set("flag", "true", err)) << err;
    EXPECT_TRUE(o.set("name", "art-mcf", err)) << err;
    EXPECT_EQ(k.count, -7);
    EXPECT_EQ(k.cycles, 65536u);
    EXPECT_EQ(k.width, 8);
    EXPECT_TRUE(k.flag);
    EXPECT_EQ(k.name, "art-mcf");
}

TEST(Options, HexIntegers)
{
    Knobs k;
    OptionSet o = k.options();
    std::string err;
    EXPECT_TRUE(o.set("cycles", "0x10000", err));
    EXPECT_EQ(k.cycles, 65536u);
}

TEST(Options, BoolSpellings)
{
    Knobs k;
    OptionSet o = k.options();
    std::string err;
    for (const char *v : {"1", "true", "yes"}) {
        k.flag = false;
        EXPECT_TRUE(o.set("flag", v, err));
        EXPECT_TRUE(k.flag) << v;
    }
    for (const char *v : {"0", "false", "no"}) {
        k.flag = true;
        EXPECT_TRUE(o.set("flag", v, err));
        EXPECT_FALSE(k.flag) << v;
    }
    EXPECT_FALSE(o.set("flag", "maybe", err));
}

TEST(Options, RejectsUnknownAndMalformed)
{
    Knobs k;
    OptionSet o = k.options();
    std::string err;
    EXPECT_FALSE(o.set("bogus", "1", err));
    EXPECT_NE(err.find("unknown"), std::string::npos);
    EXPECT_FALSE(o.set("count", "seven", err));
    EXPECT_FALSE(o.set("width", "8x", err));
}

TEST(Options, ParseArgsSplitsPositional)
{
    Knobs k;
    OptionSet o = k.options();
    std::vector<std::string> pos;
    std::string err;
    EXPECT_TRUE(o.parseArgs({"width=5", "run", "flag=1"}, pos, err));
    EXPECT_EQ(k.width, 5);
    EXPECT_TRUE(k.flag);
    ASSERT_EQ(pos.size(), 1u);
    EXPECT_EQ(pos[0], "run");
}

TEST(Options, ParseArgsAcceptsGnuSpellingsOfKeysOnly)
{
    std::string statsJson;
    OptionSet o;
    o.addString("stats_json", &statsJson, "a path");
    std::vector<std::string> pos;
    std::string err;
    EXPECT_TRUE(o.parseArgs({"--stats-json=a-b", "tests/x-y", "--help"},
                            pos, err))
        << err;
    EXPECT_EQ(statsJson, "a-b");
    ASSERT_EQ(pos.size(), 2u);
    EXPECT_EQ(pos[0], "tests/x-y");
    EXPECT_EQ(pos[1], "help");
}

TEST(Options, ParseArgsReportsFirstError)
{
    Knobs k;
    OptionSet o = k.options();
    std::vector<std::string> pos;
    std::string err;
    EXPECT_FALSE(o.parseArgs({"width=5", "nope=1"}, pos, err));
    EXPECT_EQ(k.width, 5) << "options before the error still apply";
}

TEST(Options, LoadFileAppliesAndSkipsComments)
{
    Knobs k;
    OptionSet o = k.options();
    std::string path = "/tmp/smthill_opt_test.cfg";
    {
        std::ofstream f(path);
        f << "# a comment\n\n"
          << "width = 11\n"
          << "  name =  spaced value  \n"
          << "count=-25\n";
    }
    std::string err;
    EXPECT_TRUE(o.loadFile(path, err)) << err;
    EXPECT_EQ(k.width, 11);
    EXPECT_EQ(k.name, "spaced value");
    EXPECT_EQ(k.count, -25);
    std::remove(path.c_str());
}

TEST(Options, LoadFileReportsLineNumbers)
{
    Knobs k;
    OptionSet o = k.options();
    std::string path = "/tmp/smthill_opt_bad.cfg";
    {
        std::ofstream f(path);
        f << "width = 11\n"
          << "this line has no equals\n";
    }
    std::string err;
    EXPECT_FALSE(o.loadFile(path, err));
    EXPECT_NE(err.find(":2"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Options, LoadMissingFileFails)
{
    Knobs k;
    OptionSet o = k.options();
    std::string err;
    EXPECT_FALSE(o.loadFile("/nonexistent/path.cfg", err));
}

TEST(Options, HasAndDuplicates)
{
    Knobs k;
    OptionSet o = k.options();
    EXPECT_TRUE(o.has("width"));
    EXPECT_FALSE(o.has("height"));
    int dummy = 0;
    EXPECT_DEATH(o.addInt32("width", &dummy, "dup"), "duplicate");
}

} // namespace
} // namespace smthill
