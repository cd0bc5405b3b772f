// Tests for greedy rank-augmenting measurement-path selection and its exact
// incidence-row rank test.

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

TEST(IncidenceRankTracker, OddCycleIsFullRankOverTheRationals) {
  // {a,b}, {b,c}, {a,c} sum to 0 over GF(2) but have rank 3 over ℚ (their
  // determinant is 2): a parity-based test would reject the third row.
  IncidenceRankTracker t(3);
  EXPECT_TRUE(t.add({0, 1}));
  EXPECT_TRUE(t.add({1, 2}));
  EXPECT_TRUE(t.is_independent({0, 2}));
  EXPECT_TRUE(t.add({0, 2}));
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_TRUE(t.full());
}

TEST(IncidenceRankTracker, RepeatedLinkSetIsDependent) {
  IncidenceRankTracker t(4);
  EXPECT_TRUE(t.add({0, 2, 3}));
  EXPECT_FALSE(t.is_independent({0, 2, 3}));
  EXPECT_FALSE(t.add({0, 2, 3}));
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_TRUE(t.add({1, 2}));
  EXPECT_FALSE(t.add({1, 2}));
  EXPECT_FALSE(t.add({0, 2, 3}));
  EXPECT_EQ(t.rank(), 2u);
}

TEST(IncidenceRankTracker, ZeroWidthTrackerIsFullAndAcceptsNothing) {
  IncidenceRankTracker t(0);
  EXPECT_EQ(t.dimension(), 0u);
  EXPECT_EQ(t.rank(), 0u);
  EXPECT_TRUE(t.full());
  EXPECT_FALSE(t.is_independent({}));
  EXPECT_FALSE(t.add({}));
  EXPECT_EQ(t.rank(), 0u);
}

TEST(IncidenceRankTracker, EmptyLinkSetIsNeverIndependent) {
  IncidenceRankTracker t(3);
  EXPECT_FALSE(t.is_independent({}));
  EXPECT_FALSE(t.add({}));
  EXPECT_EQ(t.rank(), 0u);
}

TEST(IncidenceRankTracker, RejectedRowLeavesStateUnchanged) {
  // `probed` sees the rows `plain` sees, but before each one it is also
  // offered a row it already holds and asked about the next; every
  // decision and rank must still match. {0,1,2,4} = {0,1} + {2,4} is
  // dependent when it arrives.
  const std::vector<std::vector<LinkId>> rows{
      {0, 1}, {1, 2, 3}, {0, 3}, {2, 4}, {0, 1, 2, 4},
      {3, 5}, {4, 5},    {1, 5}, {0, 5}};
  IncidenceRankTracker plain(6), probed(6);
  Matrix dense(rows.size(), 6);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (probed.rank() > 0) {
      EXPECT_FALSE(probed.add(rows[0]));
    }
    const bool queried = probed.is_independent(rows[k]);
    const bool accepted = plain.add(rows[k]);
    EXPECT_EQ(probed.add(rows[k]), accepted) << "row " << k;
    EXPECT_EQ(queried, accepted) << "row " << k;
    EXPECT_EQ(plain.rank(), probed.rank());
    for (LinkId l : rows[k]) dense(k, l) = 1.0;
  }
  EXPECT_FALSE(plain.is_independent({0, 1, 2, 4}));
  EXPECT_EQ(plain.rank(), matrix_rank(dense));
}

TEST(IncidenceRankTracker, FullRankStopsAcceptance) {
  IncidenceRankTracker t(3);
  EXPECT_TRUE(t.add({0}));
  EXPECT_TRUE(t.add({0, 1}));
  EXPECT_FALSE(t.full());
  EXPECT_TRUE(t.add({1, 2}));
  EXPECT_TRUE(t.full());
  for (const std::vector<LinkId>& row :
       {std::vector<LinkId>{0}, {1}, {2}, {0, 1, 2}, {0, 2}}) {
    EXPECT_FALSE(t.is_independent(row));
    EXPECT_FALSE(t.add(row));
  }
  EXPECT_EQ(t.rank(), 3u);
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

TEST(PathSelection, RedundantDrawsNeedTwoDistinctMonitors) {
  // One monitor listed twice: no draw can have s ≠ t, so add_redundant must
  // return instead of redrawing forever.
  Graph g = ring(4);
  Rng rng(8);
  PathSelectionOptions opt;
  opt.redundant_paths = 3;
  auto res = select_paths(g, {1, 1}, opt, rng);
  EXPECT_TRUE(res.paths.empty());
  EXPECT_EQ(res.rank, 0u);
  EXPECT_FALSE(res.identifiable);
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
