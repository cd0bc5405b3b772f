// Tests for the Rocketfuel/edge-list topology loaders.

#include "topology/rocketfuel.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace scapegoat {
namespace {

TEST(EdgeList, ParsesSimpleFile) {
  std::istringstream in(
      "# AS example\n"
      "10 20\n"
      "20 30\n"
      "\n"
      "10 30  # triangle\n");
  auto topo = load_edge_list(in);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->graph.num_nodes(), 3u);
  EXPECT_EQ(topo->graph.num_links(), 3u);
  EXPECT_EQ(topo->original_ids, (std::vector<long>{10, 20, 30}));
}

TEST(EdgeList, DeduplicatesParallelEdges) {
  std::istringstream in("1 2\n2 1\n1 2\n");
  auto topo = load_edge_list(in);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->graph.num_links(), 1u);
}

TEST(EdgeList, RejectsMalformedLines) {
  std::istringstream missing("1\n");
  EXPECT_FALSE(load_edge_list(missing).has_value());
  std::istringstream extra("1 2 3\n");
  EXPECT_FALSE(load_edge_list(extra).has_value());
  std::istringstream empty("# nothing\n");
  EXPECT_FALSE(load_edge_list(empty).has_value());
}

TEST(EdgeList, RejectsListWithNoLinks) {
  // Self-loops are dropped, so "0 0" alone names a node but no link.
  std::istringstream loop("0 0\n");
  EXPECT_FALSE(load_edge_list(loop).has_value());
  std::istringstream loops("3 3\n# comment\n4 4\n");
  EXPECT_FALSE(load_edge_list(loops).has_value());
  std::istringstream one("0 0\n0 1\n");
  const auto topo = load_edge_list(one);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->graph.num_links(), 1u);
}

TEST(RocketfuelCch, ParsesRouterLines) {
  // Shape of real .cch lines: uid @loc [bb] (n) -> <nuid> ... =name rn
  std::istringstream in(
      "1 @Sydney,+Australia bb (2) -> <2> <3> =r1.syd rn\n"
      "2 @Sydney,+Australia bb (1) -> <1> =r2.syd rn\n"
      "3 @Melbourne,+Australia (2) -> <1> {-99} =r1.mel rn\n"
      "-99 external stuff\n");
  auto topo = load_rocketfuel_cch(in);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->graph.num_nodes(), 3u);
  EXPECT_EQ(topo->graph.num_links(), 2u);  // 1-2 and 1-3; {-99} skipped
}

TEST(RocketfuelCch, SymmetricDeclarationsCollapse) {
  std::istringstream in(
      "5 (1) -> <6>\n"
      "6 (1) -> <5>\n");
  auto topo = load_rocketfuel_cch(in);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->graph.num_links(), 1u);
}

TEST(RocketfuelCch, NoEdgesMeansFailure) {
  std::istringstream in("hello world\n");
  EXPECT_FALSE(load_rocketfuel_cch(in).has_value());
}

TEST(RocketfuelCch, TokensBeforeArrowIgnored) {
  // "<...>"-looking tokens before "->" (e.g. weird names) must not create
  // edges.
  std::istringstream in("7 <8> -> <9>\n");
  auto topo = load_rocketfuel_cch(in);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->graph.num_nodes(), 2u);  // 7 and 9 only
  EXPECT_EQ(topo->graph.num_links(), 1u);
}

TEST(EdgeList, MalformedLinesSkippedWithDiagnostics) {
  // A truncated download: one cut-off pair and one line of debris in the
  // middle of good data. The good edges must survive, the bad lines must be
  // counted and named.
  std::istringstream in(
      "10 20\n"
      "30\n"          // truncated pair
      "20 30\n"
      "1 2 3\n"       // debris: three ids
      "10 30\n");
  auto topo = load_edge_list(in);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->graph.num_nodes(), 3u);
  EXPECT_EQ(topo->graph.num_links(), 3u);
  EXPECT_EQ(topo->skipped_lines, 2u);
  ASSERT_EQ(topo->warnings.size(), 2u);
  EXPECT_NE(topo->warnings[0].find("line 2"), std::string::npos);
  EXPECT_NE(topo->warnings[1].find("line 4"), std::string::npos);
}

TEST(EdgeList, WarningMessagesAreCappedButCountsAreNot) {
  std::ostringstream gen;
  gen << "1 2\n";
  for (int i = 0; i < 50; ++i) gen << "7 8 9\n";  // 50 malformed lines
  std::istringstream in(gen.str());
  auto topo = load_edge_list(in);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->skipped_lines, 50u);
  EXPECT_LE(topo->warnings.size(), 20u);
}

TEST(EdgeList, CleanFileHasNoWarnings) {
  std::istringstream in("1 2\n2 3\n");
  auto topo = load_edge_list(in);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->skipped_lines, 0u);
  EXPECT_TRUE(topo->warnings.empty());
}

TEST(RocketfuelCch, GarbageNeighborRefSkippedNotFatal) {
  std::istringstream in("1 (2) -> <garbage> <2>\n");
  auto topo = load_rocketfuel_cch(in);
  ASSERT_TRUE(topo.has_value());  // the readable ref still contributes
  EXPECT_EQ(topo->graph.num_links(), 1u);
  EXPECT_EQ(topo->skipped_lines, 1u);
  ASSERT_FALSE(topo->warnings.empty());
  EXPECT_NE(topo->warnings[0].find("garbage"), std::string::npos);
}

TEST(LoaderFiles, MissingFileYieldsNullopt) {
  EXPECT_FALSE(load_edge_list_file("/nonexistent/file.txt").has_value());
  EXPECT_FALSE(load_rocketfuel_cch_file("/nonexistent/file.cch").has_value());
}

}  // namespace
}  // namespace scapegoat
