// Tests for monitor placement: the loop must always end identifiable on a
// connected graph, and degree-1 nodes must be monitors.

#include "tomography/monitor_placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "tomography/routing_matrix.hpp"
#include "topology/generators.hpp"
#include "topology/geometric.hpp"
#include "topology/isp.hpp"

namespace scapegoat {
namespace {

void expect_identifiable_placement(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  MonitorPlacementResult res = place_monitors(g, MonitorPlacementOptions{}, rng);
  ASSERT_TRUE(res.identifiable);
  EXPECT_EQ(res.rank, g.num_links());
  EXPECT_TRUE(is_identifiable(routing_matrix(g, res.paths)));
  EXPECT_GE(res.monitors.size(), 2u);
  // Degree-1 nodes must be monitors (their stub link is unmeasurable
  // otherwise).
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) == 1) {
      EXPECT_TRUE(std::find(res.monitors.begin(), res.monitors.end(), v) !=
                  res.monitors.end());
    }
  }
}

TEST(MonitorPlacement, CompleteGraph) {
  expect_identifiable_placement(complete(8), 1);
}

TEST(MonitorPlacement, SingleNodeGraphIsNotIdentifiable) {
  // No link to identify (a self-loop-only edge list once loaded as this):
  // placement returns not identifiable instead of looping on redundant
  // draws between one monitor and itself.
  MonitorPlacementOptions opt;
  opt.path_options.redundant_paths = 4;
  for (std::size_t nodes : {1, 2}) {
    Rng rng(9);
    const MonitorPlacementResult res = place_monitors(Graph(nodes), opt, rng);
    EXPECT_FALSE(res.identifiable) << nodes << " nodes";
    EXPECT_TRUE(res.paths.empty());
    EXPECT_EQ(res.rank, 0u);
  }
}

TEST(MonitorPlacement, Grid) { expect_identifiable_placement(grid(4, 4), 2); }

TEST(MonitorPlacement, Ring) { expect_identifiable_placement(ring(8), 3); }

TEST(MonitorPlacement, ChainForcesAllMonitors) {
  // On a chain every interior node is an articulation point of degree 2:
  // identifiability requires essentially every node to become a monitor.
  Graph g(5);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  g.add_link(3, 4);
  expect_identifiable_placement(g, 4);
}

TEST(MonitorPlacement, StarGraph) {
  // Hub + 5 leaves: all leaves are degree-1 ⇒ monitors; pairwise 2-hop
  // paths identify all spokes... they don't (each path covers 2 spokes), but
  // the hub can be promoted. The loop must sort this out by itself.
  Graph g(6);
  for (NodeId leaf = 1; leaf < 6; ++leaf) g.add_link(0, leaf);
  expect_identifiable_placement(g, 5);
}

TEST(MonitorPlacement, IspTopology) {
  Rng rng(6);
  expect_identifiable_placement(isp_topology(IspParams{}, rng), 7);
}

TEST(MonitorPlacement, GeometricTopology) {
  Rng rng(8);
  GeometricParams p;
  p.num_nodes = 60;  // keep the test quick
  expect_identifiable_placement(random_geometric(p, rng).graph, 9);
}

TEST(MonitorPlacement, RedundantPathsRequestHonored) {
  Rng rng(10);
  MonitorPlacementOptions opt;
  opt.path_options.redundant_paths = 5;
  Graph g = complete(7);
  MonitorPlacementResult res = place_monitors(g, opt, rng);
  ASSERT_TRUE(res.identifiable);
  EXPECT_GT(res.paths.size(), g.num_links());  // strictly tall R
}

}  // namespace
}  // namespace scapegoat
