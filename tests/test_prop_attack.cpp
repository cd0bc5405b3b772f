// Differential property suite for the attack layer: Theorem 1's perfect-cut
// condition computed literally from the graph vs the attack-LP feasibility
// verdict, with the Theorem 3 consistency corollary (a consistent
// chosen-victim attack must pass the Eq. 23 detector), and the obfuscation
// shrink vs the one-victim-at-a-time scan it replaces.

#include <gtest/gtest.h>

#include "prop_gtest.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "testkit/oracles.hpp"

namespace scapegoat {
namespace {

TEST(PropAttack, FeasibilityMatchesCutCondition) {
  SCAPEGOAT_RUN_PROPERTY("attack_feasibility_matches_cut_condition");
}

TEST(PropAttack, ObfuscationBisectionMatchesDescendingScan) {
  SCAPEGOAT_RUN_PROPERTY(
      "attack_obfuscation_bisection_matches_descending_scan");
}

// ---- oracle self-check: ref_perfect_cut on a hand-built path set ----------

TEST(AttackOracle, PerfectCutOnHandBuiltPaths) {
  // Path line graph 0 -1- 1 -2- 2: one path over links {l01, l12}.
  Graph g(3);
  const LinkId l01 = *g.add_link(0, 1);
  const LinkId l12 = *g.add_link(1, 2);

  Path p;
  p.nodes = {0, 1, 2};
  p.links = {l01, l12};
  const std::vector<Path> paths = {p};

  // Victim l01, attacker node 1: the path visits node 1 → perfect cut.
  EXPECT_TRUE(testkit::ref_perfect_cut(paths, {1}, {l01}));
  // Attacker node 2 also lies on the path → still a perfect cut.
  EXPECT_TRUE(testkit::ref_perfect_cut(paths, {2}, {l01}));
  // No attackers: the path crosses the victim unobserved → no cut.
  EXPECT_FALSE(testkit::ref_perfect_cut(paths, {}, {l01}));
  // Victim not on any path: vacuously a perfect cut.
  Path q;
  q.nodes = {0, 1};
  q.links = {l01};
  EXPECT_TRUE(testkit::ref_perfect_cut({q}, {}, {l12}));
}

}  // namespace
}  // namespace scapegoat
