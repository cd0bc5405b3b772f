// Tests for the CLI argument parser.

#include "util/args.hpp"

#include <gtest/gtest.h>

namespace scapegoat {
namespace {

ArgParser parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, CommandAndFlags) {
  ArgParser a = parse({"attack", "--seed", "42", "--csv"});
  ASSERT_TRUE(a.command().has_value());
  EXPECT_EQ(*a.command(), "attack");
  EXPECT_EQ(a.get_int("seed", 0), 42);
  EXPECT_TRUE(a.get_bool("csv"));
  EXPECT_FALSE(a.get_bool("quiet"));
  EXPECT_TRUE(a.errors().empty());
  EXPECT_TRUE(a.unused().empty());
}

TEST(Args, EqualsSyntax) {
  ArgParser a = parse({"topo", "--topology=wireless", "--alpha=12.5"});
  EXPECT_EQ(a.get_string("topology"), "wireless");
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 0.0), 12.5);
}

TEST(Args, FallbacksWhenAbsent) {
  ArgParser a = parse({"topo"});
  EXPECT_EQ(a.get_string("topology", "fig1"), "fig1");
  EXPECT_EQ(a.get_int("seed", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 200.0), 200.0);
  EXPECT_TRUE(a.get_int_list("attackers").empty());
}

TEST(Args, IntList) {
  ArgParser a = parse({"attack", "--attackers", "3,17,42"});
  EXPECT_EQ(a.get_int_list("attackers"), (std::vector<long>{3, 17, 42}));
}

TEST(Args, ParseErrorsAreRecorded) {
  ArgParser a = parse({"attack", "--seed", "abc"});
  EXPECT_EQ(a.get_int("seed", 5), 5);
  ASSERT_EQ(a.errors().size(), 1u);
  ArgParser b = parse({"attack", "--attackers", "1,x"});
  b.get_int_list("attackers");
  EXPECT_FALSE(b.errors().empty());
}

TEST(Args, ExtraPositionalIsError) {
  ArgParser a = parse({"attack", "extra"});
  EXPECT_FALSE(a.errors().empty());
}

TEST(Args, UnusedFlagsReported) {
  ArgParser a = parse({"attack", "--seed", "1", "--typo", "x"});
  a.get_int("seed", 0);
  const auto unused = a.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Args, BareFlagFollowedByFlag) {
  ArgParser a = parse({"detect", "--csv", "--seed", "9"});
  EXPECT_TRUE(a.get_bool("csv"));
  EXPECT_EQ(a.get_int("seed", 0), 9);
}

TEST(Args, NoCommand) {
  ArgParser a = parse({"--seed", "1"});
  EXPECT_FALSE(a.command().has_value());
}

TEST(Args, ThreadsAbsentMeansAuto) {
  ArgParser a = parse({"attack"});
  EXPECT_EQ(a.get_threads(), 0u);
  EXPECT_TRUE(a.errors().empty());
}

TEST(Args, ThreadsAcceptsPositive) {
  ArgParser a = parse({"attack", "--threads", "4"});
  EXPECT_EQ(a.get_threads(), 4u);
  EXPECT_TRUE(a.errors().empty());
}

TEST(Args, ThreadsRejectsExplicitZero) {
  ArgParser a = parse({"attack", "--threads", "0"});
  EXPECT_EQ(a.get_threads(), 0u);  // still safe to feed downstream
  EXPECT_FALSE(a.errors().empty());
}

TEST(Args, ThreadsRejectsNegative) {
  ArgParser a = parse({"attack", "--threads=-2"});
  EXPECT_EQ(a.get_threads(), 0u);
  EXPECT_FALSE(a.errors().empty());
}

TEST(Args, ThreadsRejectsGarbage) {
  ArgParser a = parse({"attack", "--threads", "lots"});
  EXPECT_EQ(a.get_threads(), 0u);
  EXPECT_FALSE(a.errors().empty());
}

// Counts above the bound are refused at parse time; no pool is started here.
TEST(Args, ThreadsRejectsCountsAboveTheBound) {
  ArgParser at = parse({"attack", "--threads", "256"});
  EXPECT_EQ(at.get_threads(), kMaxThreads);
  EXPECT_TRUE(at.errors().empty());

  ArgParser above = parse({"attack", "--threads", "257"});
  EXPECT_EQ(above.get_threads(), 0u);
  ASSERT_EQ(above.errors().size(), 1u);
  EXPECT_NE(above.errors()[0].find("at most 256"), std::string::npos);

  ArgParser huge = parse({"attack", "--threads=1000000"});
  EXPECT_EQ(huge.get_threads(), 0u);
  ASSERT_EQ(huge.errors().size(), 1u);
  EXPECT_NE(huge.errors()[0].find("'1000000'"), std::string::npos);
}

TEST(Args, ThreadListHoldsEveryEntryToTheThreadsRange) {
  ArgParser ok = parse({"bench", "--threads", "1,2,256"});
  EXPECT_EQ(ok.get_thread_list(), (std::vector<std::size_t>{1, 2, 256}));
  EXPECT_TRUE(ok.errors().empty());

  EXPECT_TRUE(parse({"bench"}).get_thread_list().empty());

  for (const char* bad : {"1,-1", "0", "4,257", "2,x"}) {
    ArgParser a = parse({"bench", "--threads", bad});
    EXPECT_TRUE(a.get_thread_list().empty()) << bad;
    EXPECT_EQ(a.errors().size(), 1u) << bad;
  }
}

TEST(Args, GrainRejectsZeroAndNegative) {
  for (const char* bad : {"--grain=0", "--grain=-1"}) {
    ArgParser a = parse({"fig7", "--threads", "1", bad});
    ExecutionPolicy exec(0, /*grain=*/8, /*seed=*/5);
    a.apply_execution(exec);
    EXPECT_EQ(exec.grain, 8u) << bad;  // the default is kept
    ASSERT_EQ(a.errors().size(), 1u) << bad;
    EXPECT_NE(a.errors()[0].find("--grain expects a positive chunk size"),
              std::string::npos)
        << a.errors()[0];
  }
  ArgParser good = parse({"fig7", "--threads", "1", "--grain", "3"});
  ExecutionPolicy exec(0, /*grain=*/8, /*seed=*/5);
  good.apply_execution(exec);
  EXPECT_EQ(exec.grain, 3u);
  EXPECT_TRUE(good.errors().empty());
}

TEST(Args, IntOverflowIsRangeError) {
  ArgParser a = parse({"attack", "--seed", "999999999999999999999999"});
  EXPECT_EQ(a.get_int("seed", 3), 3);
  ASSERT_EQ(a.errors().size(), 1u);
  EXPECT_NE(a.errors()[0].find("out of range"), std::string::npos);
}

TEST(Args, DoubleOverflowIsRangeError) {
  ArgParser a = parse({"attack", "--alpha", "1e999"});
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 200.0), 200.0);
  ASSERT_EQ(a.errors().size(), 1u);
  EXPECT_NE(a.errors()[0].find("out of range"), std::string::npos);
}

TEST(Args, IntListOverflowIsError) {
  ArgParser a = parse({"attack", "--attackers", "1,99999999999999999999"});
  a.get_int_list("attackers");
  EXPECT_FALSE(a.errors().empty());
}

}  // namespace
}  // namespace scapegoat
