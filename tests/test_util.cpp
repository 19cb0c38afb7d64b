/**
 * @file
 * Tests for the CLI parser, logging levels and stopwatch.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

using namespace ising::util;

namespace {

/** Build a mutable argv from string literals. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : storage_(std::move(args))
    {
        for (auto &s : storage_)
            ptrs_.push_back(s.data());
    }
    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> ptrs_;
};

} // namespace

TEST(Cli, ParsesSpaceSeparatedValues)
{
    Argv a({"prog", "--name", "value", "--count", "7"});
    CliArgs args(a.argc(), a.argv());
    EXPECT_TRUE(args.has("name"));
    EXPECT_EQ(args.get("name", ""), "value");
    EXPECT_EQ(args.getInt("count", 0), 7);
}

TEST(Cli, ParsesEqualsSyntax)
{
    Argv a({"prog", "--rate=0.25", "--label=xyz"});
    CliArgs args(a.argc(), a.argv());
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 0.25);
    EXPECT_EQ(args.get("label", ""), "xyz");
}

TEST(Cli, BooleanFlags)
{
    Argv a({"prog", "--verbose", "--fast=false", "--slow=1"});
    CliArgs args(a.argc(), a.argv());
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_FALSE(args.getBool("fast", true));
    EXPECT_TRUE(args.getBool("slow", false));
    EXPECT_TRUE(args.getBool("absent", true));
    EXPECT_FALSE(args.getBool("absent", false));
}

TEST(Cli, DefaultsWhenMissingOrMalformed)
{
    Argv a({"prog", "--count", "notanumber", "--nan", "nan", "--inf",
            "inf", "--neg-inf", "-inf", "--huge", "99999999999999999999",
            "--neg-huge", "-99999999999999999999"});
    CliArgs args(a.argc(), a.argv());
    EXPECT_EQ(args.getInt("count", 42), 42);
    EXPECT_EQ(args.getInt("missing", -1), -1);
    // Past the range of long, strtol saturates and flags ERANGE: a
    // clamped value would pass for a real one.
    EXPECT_EQ(args.getInt("huge", 7), 7);
    EXPECT_EQ(args.getInt("neg-huge", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
    // strtod parses these, but a non-finite threshold would switch off
    // every gate compared against it.
    EXPECT_DOUBLE_EQ(args.getDouble("nan", 0.25), 0.25);
    EXPECT_DOUBLE_EQ(args.getDouble("inf", 0.25), 0.25);
    EXPECT_DOUBLE_EQ(args.getDouble("neg-inf", 0.25), 0.25);
}

TEST(Cli, PositionalArgumentsPreserved)
{
    Argv a({"prog", "input.txt", "--flag", "v", "more.txt"});
    CliArgs args(a.argc(), a.argv());
    ASSERT_EQ(args.positional().size(), 3u);
    EXPECT_EQ(args.positional()[0], "prog");
    EXPECT_EQ(args.positional()[1], "input.txt");
    EXPECT_EQ(args.positional()[2], "more.txt");
}

TEST(Cli, NegativeNumbersAsValues)
{
    Argv a({"prog", "--offset=-3"});
    CliArgs args(a.argc(), a.argv());
    EXPECT_EQ(args.getInt("offset", 0), -3);
}

TEST(Logging, LevelThresholding)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    // Messages below the threshold are simply dropped (no crash).
    debug("dropped");
    inform("dropped");
    warn("shown (stderr)");
    setLogLevel(saved);
}

TEST(Logging, StrcatJoinsArbitraryTypes)
{
    EXPECT_EQ(strcat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(strcat(), "");
}

// The stopwatch tests assert only what a monotonic clock guarantees,
// however long the thread is descheduled: a window never exceeds one
// that encloses it, successive reads never decrease, and a window
// around a sleep lasts at least the sleep.

TEST(Stopwatch, MeasuresElapsedTime)
{
    Stopwatch sw;
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    const double s1 = sw.seconds();
    const double ms = sw.milliseconds();
    const double s2 = sw.seconds();
    EXPECT_GE(s1, 0.015);
    EXPECT_LE(s1 * 1e3, ms);
    EXPECT_LE(ms, s2 * 1e3);
}

TEST(Stopwatch, ResetRestartsWindow)
{
    Stopwatch sw;
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
    Stopwatch outer;
    sw.reset();
    const double inner = sw.seconds();
    // The reset window starts inside the outer one and is read before
    // it, so it cannot be longer -- and it no longer holds the sleep
    // that the outer window never saw.
    EXPECT_LE(inner, outer.seconds());
    EXPECT_GE(inner, 0.0);
}
