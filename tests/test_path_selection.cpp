// Tests for greedy rank-augmenting measurement-path selection.

#include "tomography/path_selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "linalg/qr.hpp"
#include "tomography/routing_matrix.hpp"
#include "topology/generators.hpp"

namespace scapegoat {
namespace {

std::vector<NodeId> all_nodes(const Graph& g) {
  std::vector<NodeId> v(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) v[i] = i;
  return v;
}

TEST(PathSelection, AllMonitorsOnCompleteGraphIsIdentifiable) {
  Graph g = complete(6);
  Rng rng(1);
  auto res = select_paths(g, all_nodes(g), PathSelectionOptions{}, rng);
  EXPECT_TRUE(res.identifiable);
  EXPECT_EQ(res.rank, g.num_links());
  EXPECT_TRUE(is_identifiable(routing_matrix(g, res.paths)));
}

TEST(PathSelection, GridWithAllMonitors) {
  Graph g = grid(4, 4);
  Rng rng(2);
  auto res = select_paths(g, all_nodes(g), PathSelectionOptions{}, rng);
  EXPECT_TRUE(res.identifiable);
  EXPECT_EQ(res.rank, g.num_links());
}

TEST(PathSelection, TwoMonitorsOnChainAreInsufficient) {
  // Chain 0-1-2-3 with monitors {0, 3}: only one path, rank 1 < 3.
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  Rng rng(3);
  auto res = select_paths(g, {0, 3}, PathSelectionOptions{}, rng);
  EXPECT_FALSE(res.identifiable);
  EXPECT_EQ(res.rank, 1u);
}

TEST(PathSelection, RedundantPathsMakeRTall) {
  Graph g = complete(5);
  Rng rng(4);
  PathSelectionOptions opt;
  opt.redundant_paths = 6;
  auto res = select_paths(g, all_nodes(g), opt, rng);
  ASSERT_TRUE(res.identifiable);
  EXPECT_GE(res.paths.size(), g.num_links() + 4);  // rank + most extras
}

TEST(PathSelection, NoDuplicateLinkSets) {
  Graph g = complete(5);
  Rng rng(5);
  PathSelectionOptions opt;
  opt.redundant_paths = 8;
  auto res = select_paths(g, all_nodes(g), opt, rng);
  std::set<std::vector<LinkId>> seen;
  for (Path p : res.paths) {
    std::sort(p.links.begin(), p.links.end());
    EXPECT_TRUE(seen.insert(p.links).second);
  }
}

TEST(PathSelection, AllPathsAreValidMonitorPairs) {
  Graph g = grid(3, 3);
  Rng rng(6);
  std::vector<NodeId> monitors{0, 2, 4, 6, 8};
  auto res = select_paths(g, monitors, PathSelectionOptions{}, rng);
  const std::set<NodeId> mset(monitors.begin(), monitors.end());
  for (const Path& p : res.paths) {
    EXPECT_TRUE(is_valid_simple_path(g, p));
    EXPECT_TRUE(mset.contains(p.source()));
    EXPECT_TRUE(mset.contains(p.destination()));
    EXPECT_NE(p.source(), p.destination());
  }
}

TEST(PathSelection, RankMatchesRoutingMatrixRank) {
  Graph g = grid(3, 4);
  Rng rng(7);
  std::vector<NodeId> monitors{0, 3, 8, 11};
  auto res = select_paths(g, monitors, PathSelectionOptions{}, rng);
  const Matrix r = routing_matrix(g, res.paths).to_dense();
  EXPECT_EQ(res.rank, matrix_rank(r));
}

}  // namespace
}  // namespace scapegoat
