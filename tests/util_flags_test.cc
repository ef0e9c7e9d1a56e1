/**
 * @file
 * Tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include "util/flags.hh"

namespace longsight {
namespace {

Flags
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax)
{
    const Flags f = parse({"--count=42", "--name=widget"});
    EXPECT_EQ(f.getInt("count", 0), 42);
    EXPECT_EQ(f.getString("name", ""), "widget");
}

TEST(Flags, SpaceSyntax)
{
    const Flags f = parse({"--count", "7", "--ratio", "2.5"});
    EXPECT_EQ(f.getInt("count", 0), 7);
    EXPECT_DOUBLE_EQ(f.getDouble("ratio", 0.0), 2.5);
}

TEST(Flags, BareSwitchIsTrue)
{
    const Flags f = parse({"--verbose"});
    EXPECT_TRUE(f.getBool("verbose"));
    EXPECT_FALSE(f.getBool("quiet"));
}

TEST(Flags, ExplicitBooleans)
{
    const Flags f = parse({"--a=true", "--b=false", "--c=1", "--d=0"});
    EXPECT_TRUE(f.getBool("a"));
    EXPECT_FALSE(f.getBool("b"));
    EXPECT_TRUE(f.getBool("c"));
    EXPECT_FALSE(f.getBool("d"));
}

TEST(Flags, PositionalCollected)
{
    const Flags f = parse({"serve", "--users=3", "extra"});
    ASSERT_EQ(f.positional().size(), 2u);
    EXPECT_EQ(f.positional()[0], "serve");
    EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, DefaultsWhenAbsent)
{
    const Flags f = parse({});
    EXPECT_EQ(f.getInt("missing", -5), -5);
    EXPECT_EQ(f.getString("missing", "d"), "d");
    EXPECT_DOUBLE_EQ(f.getDouble("missing", 1.5), 1.5);
}

TEST(Flags, HasTracksPresence)
{
    const Flags f = parse({"--x=1"});
    EXPECT_TRUE(f.has("x"));
    EXPECT_FALSE(f.has("y"));
}

TEST(Flags, UnconsumedReportsTypos)
{
    const Flags f = parse({"--right=1", "--wrnog=2"});
    f.getInt("right", 0);
    const auto leftover = f.unconsumed();
    ASSERT_EQ(leftover.size(), 1u);
    EXPECT_EQ(leftover[0], "wrnog");
}

TEST(Flags, RejectUnknownExitsNamingTheFlag)
{
    const Flags f = parse({"--right=1", "--typo=2"});
    f.getInt("right", 0);
    EXPECT_EXIT(f.rejectUnknown(), ::testing::ExitedWithCode(1),
                "unknown flag --typo");
}

TEST(Flags, RejectUnknownAcceptsAllConsumed)
{
    const Flags f = parse({"--right=1", "pos"});
    f.getInt("right", 0);
    f.rejectUnknown(); // returns normally
    SUCCEED();
}

TEST(Flags, BadIntegerDies)
{
    const Flags f = parse({"--n=abc"});
    EXPECT_DEATH({ f.getInt("n", 0); }, "integer");
}

TEST(Flags, NegativeNumberAsValue)
{
    // "--n -3": -3 does not start with "--" so it binds as the value.
    const Flags f = parse({"--n", "-3"});
    EXPECT_EQ(f.getInt("n", 0), -3);
}

} // namespace
} // namespace longsight
