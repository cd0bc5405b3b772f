// Tests for the reconstructed Fig. 1 / Fig. 3 example networks — every
// constraint the paper's text states must hold on our reconstruction.

#include "topology/example_networks.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "attack/cut.hpp"
#include "graph/connectivity.hpp"
#include "tomography/routing_matrix.hpp"

namespace scapegoat {
namespace {

TEST(Fig1, BasicShape) {
  ExampleNetwork net = fig1_network();
  EXPECT_EQ(net.graph.num_nodes(), 7u);   // M1-M3, A-D
  EXPECT_EQ(net.graph.num_links(), 10u);  // paper: 10 links
  EXPECT_EQ(net.paths.size(), 23u);       // paper: 23 measurement paths
  EXPECT_EQ(net.monitors.size(), 3u);
  EXPECT_EQ(net.attackers.size(), 2u);
}

TEST(Fig1, AllPathsAreValidMonitorToMonitor) {
  ExampleNetwork net = fig1_network();
  for (const Path& p : net.paths) {
    EXPECT_TRUE(is_valid_simple_path(net.graph, p));
    const bool src_is_monitor =
        std::find(net.monitors.begin(), net.monitors.end(), p.source()) !=
        net.monitors.end();
    const bool dst_is_monitor =
        std::find(net.monitors.begin(), net.monitors.end(),
                  p.destination()) != net.monitors.end();
    EXPECT_TRUE(src_is_monitor);
    EXPECT_TRUE(dst_is_monitor);
    EXPECT_NE(p.source(), p.destination());
  }
}

TEST(Fig1, StatedPathCompositionsHold) {
  ExampleNetwork net = fig1_network();
  // Paper: path 3 consists of links 1, 4, 7, 10 (1-based link ids).
  EXPECT_EQ(net.paths[2].links, (std::vector<LinkId>{0, 3, 6, 9}));
  // Paper: path 5 consists of links 8, 7, 5, 3.
  EXPECT_EQ(net.paths[4].links, (std::vector<LinkId>{7, 6, 4, 2}));
  // Paper: path 17 is formed by links 9 and 10.
  EXPECT_EQ(net.paths[16].links, (std::vector<LinkId>{8, 9}));
}

TEST(Fig1, AttackersControlLinks2Through8) {
  ExampleNetwork net = fig1_network();
  const auto controlled = net.graph.incident_links(net.attackers);
  // Paper: B and C can affect links 2-8 (1-based) = LinkIds 1..7.
  EXPECT_EQ(controlled, (std::vector<LinkId>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Fig1, AttackersPerfectlyCutLink1) {
  ExampleNetwork net = fig1_network();
  EXPECT_TRUE(is_perfect_cut(net.paths, net.attackers, {0}));
  // 13 of the 23 paths contain link 1 (all paths with endpoint M1).
  std::size_t with_link1 = 0;
  for (const Path& p : net.paths)
    if (p.contains_link(0)) ++with_link1;
  EXPECT_EQ(with_link1, 13u);
}

TEST(Fig1, Link10IsImperfectlyCut) {
  ExampleNetwork net = fig1_network();
  // Path 17 (links 9,10) carries link 10 but neither attacker — imperfect.
  EXPECT_FALSE(is_perfect_cut(net.paths, net.attackers, {9}));
  const PresenceRatio pr =
      attack_presence_ratio(net.paths, net.attackers, {9});
  EXPECT_GT(pr.victim_paths, 0u);
  EXPECT_EQ(pr.victim_paths - pr.covered_paths, 1u);  // only path 17 escapes
}

TEST(Fig1, Path17AvoidsBothAttackers) {
  ExampleNetwork net = fig1_network();
  EXPECT_FALSE(net.paths[16].contains_any_node(net.attackers));
}

TEST(Fig1, RoutingMatrixIsIdentifiable) {
  ExampleNetwork net = fig1_network();
  const SparseMatrix r = routing_matrix(net.graph, net.paths);
  EXPECT_EQ(r.rows(), 23u);
  EXPECT_EQ(r.cols(), 10u);
  EXPECT_TRUE(is_identifiable(r));
}

TEST(Fig1, NodeAIsOnlyReachableViaAttackersOrM1) {
  // The scapegoating narrative needs A enclosed by {M1, B, C}.
  ExampleNetwork net = fig1_network();
  std::vector<NodeId> nbrs;
  for (const Adjacent& a : net.graph.neighbors(net.a))
    nbrs.push_back(a.neighbor);
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<NodeId>{net.m1, net.b, net.c}));
}

TEST(Fig3, PerfectCutSeparatesVictim) {
  CutExample ex = fig3_perfect_cut();
  const Link victim = ex.graph.link(ex.victim_link);
  // Removing the attackers separates every monitor from... the victim link
  // remains reachable only through attackers on one side: check M1 side.
  EXPECT_TRUE(separates(ex.graph, ex.attackers, ex.monitors[0], victim.u));
}

TEST(Fig3, ImperfectCutHasBypassPath) {
  CutExample ex = fig3_imperfect_cut();
  const Link victim = ex.graph.link(ex.victim_link);
  // M1 can reach C without touching A1/A2 (via B).
  EXPECT_FALSE(separates(ex.graph, ex.attackers, ex.monitors[0], victim.u));
}

}  // namespace
}  // namespace scapegoat
