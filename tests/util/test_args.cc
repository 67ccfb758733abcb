/**
 * @file
 * Tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include <iostream>

#include "util/args.h"

namespace pra {
namespace util {
namespace {

ArgParser
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm)
{
    auto args = parse({"--network=alexnet", "--pallets=64"});
    EXPECT_EQ(args.getString("network"), "alexnet");
    EXPECT_EQ(args.getInt("pallets", 0), 64);
}

TEST(ArgParser, SpaceFormIsPositionalNotValue)
{
    // "--name value" is ambiguous against positionals, so the value
    // stays positional and the flag is boolean.
    auto args = parse({"--network", "vgg19"});
    EXPECT_TRUE(args.has("network"));
    EXPECT_EQ(args.getString("network"), "");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "vgg19");
}

TEST(ArgParser, BareBooleanFlag)
{
    auto args = parse({"--full"});
    EXPECT_TRUE(args.getBool("full"));
    EXPECT_FALSE(args.getBool("absent"));
    EXPECT_TRUE(args.getBool("absent", true));
}

TEST(ArgParser, ExplicitBooleanValues)
{
    EXPECT_TRUE(parse({"--x=true"}).getBool("x"));
    EXPECT_TRUE(parse({"--x=1"}).getBool("x"));
    EXPECT_TRUE(parse({"--x=on"}).getBool("x"));
    EXPECT_FALSE(parse({"--x=false"}).getBool("x"));
    EXPECT_FALSE(parse({"--x=0"}).getBool("x"));
    EXPECT_FALSE(parse({"--x=off"}).getBool("x"));
}

TEST(ArgParserDeathTest, RejectsMalformedBoolean)
{
    auto args = parse({"--cache=of"});
    EXPECT_DEATH(args.getBool("cache", true), "expects a boolean");
}

TEST(ArgParser, Doubles)
{
    auto args = parse({"--scale=2.5"});
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
}

TEST(ArgParser, Positional)
{
    auto args = parse({"alexnet", "--full", "vgg19"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "alexnet");
    EXPECT_EQ(args.positional()[1], "vgg19");
}

TEST(ArgParser, FallbacksWhenAbsent)
{
    auto args = parse({});
    EXPECT_EQ(args.getString("x", "dflt"), "dflt");
    EXPECT_EQ(args.getInt("x", 7), 7);
}

TEST(ArgParser, HasDetectsPresence)
{
    auto args = parse({"--a=1"});
    EXPECT_TRUE(args.has("a"));
    EXPECT_FALSE(args.has("b"));
}

TEST(ArgParser, NegativeNumberValue)
{
    auto args = parse({"--offset=-5"});
    EXPECT_EQ(args.getInt("offset", 0), -5);
}

TEST(ArgParser, CheckUnknownAcceptsKnownFlags)
{
    auto args = parse({"--smoke", "--units=4", "positional"});
    args.checkUnknown({"smoke", "units", "full"});
    SUCCEED(); // Positionals are not flags; known flags pass.
}

TEST(ArgParser, SampleUnitsFromUnitsAndFull)
{
    EXPECT_EQ(parse({}).sampleUnits(64), 64);
    EXPECT_EQ(parse({"--units=4"}).sampleUnits(64), 4);
    EXPECT_EQ(parse({"--full"}).sampleUnits(64), 0);
    EXPECT_EQ(parse({"--units=4", "--full"}).sampleUnits(64), 0);
}

TEST(ArgParserDeathTest, SampleUnitsRejectsNonPositiveUnits)
{
    // Zero must not silently mean "price everything": that is
    // --full's job.
    EXPECT_DEATH(parse({"--units=0"}).sampleUnits(64),
                 "--units must be a positive sampling cap \\(got 0\\)");
    EXPECT_DEATH(parse({"--units=-4", "--full"}).sampleUnits(64),
                 "got -4.*use --full");
}

TEST(ArgParser, GetCountReadsIntsInRange)
{
    EXPECT_EQ(parse({}).getCount("requests", 64, 1, "a count"), 64);
    EXPECT_EQ(parse({"--requests=7"}).getCount("requests", 64, 1, "x"),
              7);
    EXPECT_EQ(parse({"--retries=0"}).getCount("retries", 3, 0, "x"), 0);
    EXPECT_EQ(parse({"--requests=2147483647"})
                  .getCount("requests", 64, 1, "x"),
              2147483647);
}

TEST(ArgParserDeathTest, GetCountRejectsValuesAnIntCannotHold)
{
    // Regression: 4294967297 used to wrap to 1 through a narrowing
    // cast, so --requests=4294967297 silently simulated one request.
    EXPECT_DEATH(parse({"--requests=4294967297"})
                     .getCount("requests", 64, 1, "a positive count"),
                 "--requests must be at most 2147483647 \\(got "
                 "4294967297\\)");
    EXPECT_DEATH(parse({"--retries=2147483648"})
                     .getCount("retries", 3, 0, "a budget"),
                 "at most 2147483647");
    EXPECT_DEATH(parse({"--requests=0"})
                     .getCount("requests", 64, 1, "a positive count"),
                 "--requests must be a positive count \\(got 0\\)");
    EXPECT_DEATH(parse({"--retries=-1"}).getCount("retries", 3, 0,
                                                  "a budget"),
                 "got -1");
    // Beyond int64 the parse itself fails instead of saturating.
    EXPECT_DEATH(parse({"--requests=99999999999999999999"})
                     .getInt("requests", 64),
                 "out of range");
}

TEST(SplitList, KeepsNonEmptyItemsInOrder)
{
    EXPECT_EQ(splitList("a,b,,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList(",a,"), std::vector<std::string>{"a"});
    EXPECT_TRUE(splitList("").empty());
    EXPECT_TRUE(splitList(",").empty());
}

TEST(ArgParserDeathTest, CheckUnknownRejectsTypo)
{
    // Regression: "--smke" used to be silently ignored, running the
    // full non-smoke bench in CI.
    auto args = parse({"--smke"});
    EXPECT_DEATH(args.checkUnknown({"smoke", "units"}),
                 "unknown flag --smke.*did you mean --smoke");
}

TEST(ArgParserDeathTest, CheckUnknownRejectsUnrelatedFlag)
{
    auto args = parse({"--frobnicate=1"});
    EXPECT_DEATH(args.checkUnknown({"smoke", "units"}),
                 "unknown flag --frobnicate");
}

TEST(ArgParserDeathTest, HelpListsKnownFlagsSortedAndExitsZero)
{
    // The help stream is stderr here so the death test can match it.
    auto args = parse({"--help", "--frobnicate"});
    EXPECT_EXIT(args.checkUnknown({"units", "smoke", "csv"}, &std::cerr),
                ::testing::ExitedWithCode(0), "^--csv\n--smoke\n--units\n$");
}

TEST(ArgParserDeathTest, UnknownFlagStillFailsWhenHelpIsOffered)
{
    auto args = parse({"--smke"});
    EXPECT_EXIT(args.checkUnknown({"smoke", "units"}, &std::cerr),
                ::testing::ExitedWithCode(1),
                "unknown flag --smke.*did you mean --smoke");
}

TEST(ArgParserDeathTest, RepeatedFlagIsFatal)
{
    // Regression: "--threads=1 --threads=4" used to run on 4 threads.
    EXPECT_EXIT(parse({"--threads=1", "--threads=4"}),
                ::testing::ExitedWithCode(1),
                "flag --threads given more than once");
    EXPECT_EXIT(parse({"--smoke", "--units=2", "--smoke"}),
                ::testing::ExitedWithCode(1),
                "flag --smoke given more than once");
}

TEST(ArgParserDeathTest, HelpIsUnknownWithoutAHelpStream)
{
    EXPECT_EXIT(parse({"--help"}).checkUnknown({"smoke"}),
                ::testing::ExitedWithCode(1), "unknown flag --help");
}

} // namespace
} // namespace util
} // namespace pra
