// Tests for routing-matrix construction (Eq. 1) beyond the Fig. 1 checks.

#include "tomography/routing_matrix.hpp"

#include <gtest/gtest.h>

#include "topology/generators.hpp"

namespace scapegoat {
namespace {

Path one_hop(const Graph& g, LinkId l) {
  Path p;
  p.nodes = {g.link(l).u, g.link(l).v};
  p.links = {l};
  return p;
}

TEST(RoutingMatrix, EntriesAreLinkIncidence) {
  Graph g(4);
  LinkId a = *g.add_link(0, 1);
  LinkId b = *g.add_link(1, 2);
  LinkId c = *g.add_link(2, 3);
  Path p;
  p.nodes = {0, 1, 2};
  p.links = {a, b};
  const SparseMatrix r = routing_matrix(g, {p, one_hop(g, c)});
  EXPECT_EQ(r.rows(), 2u);
  EXPECT_EQ(r.cols(), 3u);
  EXPECT_EQ(r.nnz(), 3u);
  EXPECT_DOUBLE_EQ(r.at(0, a), 1.0);
  EXPECT_DOUBLE_EQ(r.at(0, b), 1.0);
  EXPECT_DOUBLE_EQ(r.at(0, c), 0.0);
  EXPECT_DOUBLE_EQ(r.at(1, c), 1.0);
}

TEST(RoutingMatrix, IdentityFromOneHopPaths) {
  Graph g = ring(5);
  std::vector<Path> paths;
  for (LinkId l = 0; l < g.num_links(); ++l) paths.push_back(one_hop(g, l));
  const SparseMatrix r = routing_matrix(g, paths);
  EXPECT_TRUE(approx_equal(r, Matrix::identity(5)));
  EXPECT_TRUE(is_identifiable(r));
}

TEST(RoutingMatrix, IdentifiabilityNeedsEnoughRows) {
  Graph g = ring(5);
  std::vector<Path> paths;
  for (LinkId l = 0; l + 1 < g.num_links(); ++l)
    paths.push_back(one_hop(g, l));
  EXPECT_FALSE(is_identifiable(routing_matrix(g, paths)));
}

TEST(RoutingMatrix, EmptyLinkSetNotIdentifiable) {
  EXPECT_FALSE(is_identifiable(SparseMatrix(3, 0)));
}

TEST(PathsThrough, NodeAndLinkQueries) {
  Graph g = ring(6);
  std::vector<Path> paths;
  for (LinkId l = 0; l < g.num_links(); ++l) paths.push_back(one_hop(g, l));
  // Node 0 is incident to exactly two ring links.
  EXPECT_EQ(paths_through_nodes(paths, {0}).size(), 2u);
  EXPECT_EQ(paths_through_links(paths, {2}).size(), 1u);
  EXPECT_TRUE(paths_through_nodes(paths, {}).empty());
  EXPECT_TRUE(paths_through_links(paths, {}).empty());
  // Multiple query links: no double-counting of a path.
  const auto multi = paths_through_links(paths, {2, 2, 2});
  EXPECT_EQ(multi.size(), 1u);
}

}  // namespace
}  // namespace scapegoat
