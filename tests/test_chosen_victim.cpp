// Focused tests for the chosen-victim strategy (Eq. 4-7), including the
// consistent manipulation mode and collateral policies.

#include "attack/chosen_victim.hpp"

#include <gtest/gtest.h>

#include "attack/cut.hpp"
#include "core/scenario.hpp"
#include "tomography/estimator.hpp"
#include "topology/example_networks.hpp"
#include "topology/generators.hpp"

namespace scapegoat {
namespace {

class ChosenVictimTest : public ::testing::Test {
 protected:
  ChosenVictimTest()
      : rng_(31), scenario_(Scenario::fig1(rng_)), net_(fig1_network()) {}

  Rng rng_;
  Scenario scenario_;
  ExampleNetwork net_;
};

TEST_F(ChosenVictimTest, EveryNonControlledLinkIsAttackable) {
  // On Fig. 1 the attackers sit on 22/23 paths: all of links 1, 9, 10 can be
  // scapegoated (link 1 perfectly, 9/10 imperfectly).
  AttackContext ctx = scenario_.context(net_.attackers);
  for (LinkId v : {LinkId{0}, LinkId{8}, LinkId{9}}) {
    const AttackResult r = chosen_victim_attack(ctx, {v});
    EXPECT_TRUE(r.success) << "victim " << v;
    if (r.success) {
      EXPECT_TRUE(verify_chosen_victim_result(ctx, r));
    }
  }
}

TEST_F(ChosenVictimTest, MultiVictimAttackWorks) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r = chosen_victim_attack(ctx, {0, 9});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.states[0], LinkState::kAbnormal);
  EXPECT_EQ(r.states[9], LinkState::kAbnormal);
  EXPECT_TRUE(verify_chosen_victim_result(ctx, r));
}

TEST_F(ChosenVictimTest, DamageIsMaximizedNotJustFeasible) {
  // The LP must saturate some path caps — a merely-feasible solution would
  // leave obvious headroom.
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r = chosen_victim_attack(ctx, {0});
  ASSERT_TRUE(r.success);
  double max_entry = 0.0;
  for (double mi : r.m) max_entry = std::max(max_entry, mi);
  EXPECT_NEAR(max_entry, ctx.per_path_cap, 1e-6);
}

TEST_F(ChosenVictimTest, CollateralAvoidAbnormalHolds) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r =
      chosen_victim_attack(ctx, {9}, ManipulationMode::kUnrestricted,
                           CollateralPolicy::kAvoidAbnormal);
  ASSERT_TRUE(r.success);
  for (LinkId l = 0; l < r.x_estimated.size(); ++l) {
    if (l == 9) continue;
    EXPECT_NE(r.states[l], LinkState::kAbnormal) << "link " << l;
  }
  EXPECT_EQ(r.states[9], LinkState::kAbnormal);
}

TEST_F(ChosenVictimTest, CollateralKeepNormalIsStricter) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult loose =
      chosen_victim_attack(ctx, {9}, ManipulationMode::kUnrestricted,
                           CollateralPolicy::kAvoidAbnormal);
  const AttackResult strict =
      chosen_victim_attack(ctx, {9}, ManipulationMode::kUnrestricted,
                           CollateralPolicy::kKeepNormal);
  ASSERT_TRUE(loose.success);
  if (strict.success) {
    // Stricter constraints can only reduce the achievable damage.
    EXPECT_LE(strict.damage, loose.damage + 1e-6);
    for (LinkId l = 0; l < strict.x_estimated.size(); ++l)
      if (l != 9) {
        EXPECT_EQ(strict.states[l], LinkState::kNormal);
      }
  }
}

TEST_F(ChosenVictimTest, ConsistentModeProducesExactlyConsistentY) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult r =
      chosen_victim_attack(ctx, {0}, ManipulationMode::kConsistent);
  ASSERT_TRUE(r.success);
  // R x̂ == y′ to numerical precision.
  const Vector reproduced = ctx.estimator->sparse_r() * r.x_estimated;
  EXPECT_TRUE(approx_equal(reproduced, r.y_observed, 1e-6));
  // The consistent attack moves ONLY links in L_m ∪ L_s.
  for (LinkId l = 0; l < r.x_estimated.size(); ++l) {
    if (l == 0) continue;
    const auto lm = ctx.controlled_links();
    if (std::find(lm.begin(), lm.end(), l) != lm.end()) continue;
    EXPECT_NEAR(r.x_estimated[l], ctx.x_true[l], 1e-6) << "link " << l;
  }
}

TEST_F(ChosenVictimTest, ConsistentDamageNeverExceedsUnrestricted) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const AttackResult consistent =
      chosen_victim_attack(ctx, {0}, ManipulationMode::kConsistent);
  const AttackResult unrestricted = chosen_victim_attack(ctx, {0});
  ASSERT_TRUE(consistent.success);
  ASSERT_TRUE(unrestricted.success);
  EXPECT_LE(consistent.damage, unrestricted.damage + 1e-6);
}

TEST_F(ChosenVictimTest, OutOfRangeVictimIsRefusedWithoutSolving) {
  // A victim id past the last link names no link: refused like an L_m
  // overlap, before any band reads its true metric or pseudo-inverse row.
  AttackContext ctx = scenario_.context(net_.attackers);
  const LinkId missing = ctx.estimator->num_links();
  for (CollateralPolicy collateral :
       {CollateralPolicy::kUnconstrained, CollateralPolicy::kAvoidAbnormal}) {
    const AttackResult r = chosen_victim_attack(
        ctx, {0, missing}, ManipulationMode::kUnrestricted, collateral);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
    EXPECT_EQ(r.victims, (std::vector<LinkId>{0, missing}));
  }
  const AttackResult consistent =
      chosen_victim_attack(ctx, {missing}, ManipulationMode::kConsistent);
  EXPECT_FALSE(consistent.success);
  EXPECT_EQ(consistent.status, lp::SolveStatus::kInfeasible);
}

TEST(ChosenVictimNoAttackers, AttackIsInfeasible) {
  Rng rng(32);
  Scenario sc = Scenario::fig1(rng);
  AttackContext ctx = sc.context({});
  const AttackResult r = chosen_victim_attack(ctx, {0});
  EXPECT_FALSE(r.success);
}

TEST(ChosenVictimWeakAttacker, UninfluencedVictimIsInfeasible) {
  // Hand-built deployment where R is the identity (one 1-hop path per link,
  // all nodes monitors): the pseudo-inverse is the identity too, so an
  // attacker at node 0 has zero influence on the estimate of any link not
  // incident to it — the attack must come back infeasible.
  Graph g = ring(8);
  std::vector<Path> paths;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    Path p;
    p.nodes = {g.link(l).u, g.link(l).v};
    p.links = {l};
    paths.push_back(p);
  }
  // One redundant 2-hop path (keeps R non-square) away from node 0.
  {
    Path p;
    p.nodes = {3, 4, 5};
    p.links = {*g.find_link(3, 4), *g.find_link(4, 5)};
    paths.push_back(p);
  }
  TomographyEstimator est(g, paths);
  ASSERT_TRUE(est.ok());

  AttackContext ctx(g, est, {0});
  ctx.x_true = Vector(g.num_links(), 10.0);
  const auto victim = g.find_link(4, 5);
  ASSERT_TRUE(victim.has_value());
  const AttackResult r = chosen_victim_attack(ctx, {*victim});
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

}  // namespace
}  // namespace scapegoat
