// Tests for the §II-C naive-attacker baseline: uniform delaying exposes the
// attacker instead of framing a scapegoat.

#include "attack/naive_attack.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "attack/chosen_victim.hpp"
#include "core/scenario.hpp"
#include "detect/detector.hpp"
#include "topology/example_networks.hpp"

namespace scapegoat {
namespace {

class NaiveAttackTest : public ::testing::Test {
 protected:
  NaiveAttackTest()
      : rng_(601), scenario_(Scenario::fig1(rng_)), net_(fig1_network()) {}

  Rng rng_;
  Scenario scenario_;
  ExampleNetwork net_;
};

TEST_F(NaiveAttackTest, ManipulationShapeFollowsNodeMembership) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r = naive_delay_attack(ctx, 500.0);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(satisfies_constraint1(ctx, r.m));
  const auto& paths = scenario_.estimator().paths();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    double expected = 0.0;
    if (paths[i].contains_node(net_.b)) expected += 500.0;
    if (paths[i].contains_node(net_.c)) expected += 500.0;
    EXPECT_NEAR(r.m[i], expected, 1e-12) << "path " << i;
  }
}

TEST_F(NaiveAttackTest, AttackerAdjacentLinksGetTheBlame) {
  // The paper's §II-C point: naive delaying makes the links around B and C
  // look bad — no scapegoating happens.
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r = naive_delay_attack(ctx, 800.0);
  ASSERT_TRUE(r.success);
  // Some controlled link must read abnormal...
  bool controlled_flagged = false;
  for (LinkId l : ctx.controlled_links())
    controlled_flagged |= r.states[l] == LinkState::kAbnormal;
  EXPECT_TRUE(controlled_flagged);
  // ...and no non-controlled link should read worse than the worst
  // controlled link.
  double worst_controlled = 0.0;
  for (LinkId l : ctx.controlled_links())
    worst_controlled = std::max(worst_controlled, r.x_estimated[l]);
  for (LinkId l : {LinkId{0}, LinkId{8}, LinkId{9}}) {
    EXPECT_LE(r.x_estimated[l], worst_controlled + 1e-6) << "link " << l;
  }
}

TEST_F(NaiveAttackTest, ContrastWithScapegoatingOnSameBudget) {
  // Given the damage budget the naive attack spends, the LP attacker hides
  // completely while the naive one lights up its own links.
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult naive = naive_delay_attack(ctx, 600.0);
  const AttackResult crafted = chosen_victim_attack(ctx, {0});
  ASSERT_TRUE(naive.success);
  ASSERT_TRUE(crafted.success);
  for (LinkId l : ctx.controlled_links())
    EXPECT_EQ(crafted.states[l], LinkState::kNormal);
  bool naive_exposed = false;
  for (LinkId l : ctx.controlled_links())
    naive_exposed |= naive.states[l] != LinkState::kNormal;
  EXPECT_TRUE(naive_exposed);
}

TEST_F(NaiveAttackTest, PerNodeDelaysAreIndividallyApplied) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r = naive_delay_attack(ctx, {100.0, 900.0});
  ASSERT_TRUE(r.success);
  const auto& paths = scenario_.estimator().paths();
  // Path 1 (M1 A B M2) has only B: 100ms. Path 12 (M1 A C M3) only C: 900.
  EXPECT_NEAR(r.m[0], 100.0, 1e-12);
  EXPECT_NEAR(r.m[11], 900.0, 1e-12);
  // Path 13 (M1 A B C M3) has both: 1000.
  EXPECT_NEAR(r.m[12], 1000.0, 1e-12);
  (void)paths;
}

TEST_F(NaiveAttackTest, ZeroDelayIsNoAttack) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r = naive_delay_attack(ctx, 0.0);
  EXPECT_FALSE(r.success);
  EXPECT_NEAR(r.damage, 0.0, 1e-12);
}

TEST_F(NaiveAttackTest, DelayCountMismatchIsAnUnsuccessfulResult) {
  // Two attackers, so one delay or three delays pair with no attacker list.
  AttackContext ctx = scenario_.context(net_.attackers);
  ASSERT_EQ(ctx.attackers.size(), 2u);
  for (const std::vector<double>& delays :
       {std::vector<double>{500.0}, std::vector<double>{1.0, 2.0, 3.0},
        std::vector<double>{}}) {
    const AttackResult r = naive_delay_attack(ctx, delays);
    EXPECT_FALSE(r.success) << delays.size() << " delays";
    EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
    EXPECT_TRUE(r.m.empty());
    EXPECT_TRUE(r.y_observed.empty());
  }
}

TEST_F(NaiveAttackTest, NaiveAttackIsModelConsistentHenceUndetected) {
  // Uniform node delay IS link-explainable: a simple path visiting an
  // interior node crosses exactly two of its incident links, so putting
  // d_v/2 on each of v's links reproduces m exactly (R Δx = m). The Eq. 23
  // residual check therefore does NOT fire on naive attacks — they are
  // caught at the classification layer instead (the attacker's own links
  // read abnormal). This pins down that division of labor.
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r = naive_delay_attack(ctx, 700.0);
  ASSERT_TRUE(r.success);
  const DetectionOutcome d =
      detect_scapegoating(scenario_.estimator(), r.y_observed);
  EXPECT_FALSE(d.detected);
  EXPECT_NEAR(d.residual_norm1, 0.0, 1e-5);
}

}  // namespace
}  // namespace scapegoat
