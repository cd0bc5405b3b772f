// Sparsity-aware scapegoating: the chosen-victim attack re-asked against a
// sparse-recovery defender with an ∞-ball tolerance ε (DESIGN.md §14).

#include "attack/sparse_aware.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/scenario.hpp"
#include "detect/detector.hpp"
#include "tomography/estimator.hpp"
#include "tomography/sparse_recovery.hpp"
#include "topology/example_networks.hpp"

namespace scapegoat {
namespace {

class SparseAwareTest : public ::testing::Test {
 protected:
  SparseAwareTest()
      : rng_(31), scenario_(Scenario::fig1(rng_)), net_(fig1_network()) {}

  Rng rng_;
  Scenario scenario_;
  ExampleNetwork net_;
};

TEST_F(SparseAwareTest, VictimControlledOverlapIsInfeasible) {
  // Eq. (7): a victim the attackers sit on cannot be framed.
  AttackContext ctx = scenario_.context(net_.attackers);
  const auto controlled = ctx.controlled_links();
  ASSERT_FALSE(controlled.empty());
  const AttackResult r = sparse_aware_attack(ctx, {controlled[0]});
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST_F(SparseAwareTest, AttackFramesTheVictimWithinTheBudget) {
  AttackContext ctx = scenario_.context(net_.attackers);
  SparseAwareOptions opt;
  opt.epsilon_ms = 10.0;
  const AttackResult r = sparse_aware_attack(ctx, {0}, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.states[0], LinkState::kAbnormal);
  EXPECT_GT(r.damage, 0.0);
  // Constraint 1: manipulation only on attacker-traversed paths, m ⪰ 0.
  EXPECT_TRUE(satisfies_constraint1(ctx, r.m));
  for (const double mi : r.m) EXPECT_GE(mi, 0.0);
  // y′ is the true measurements plus the manipulation.
  const Vector y_true = ctx.true_measurements();
  for (std::size_t i = 0; i < y_true.size(); ++i)
    EXPECT_NEAR(r.y_observed[i], y_true[i] + r.m[i], 1e-9);
}

TEST_F(SparseAwareTest, StealthyAgainstTheMatchingSparseDefender) {
  // Attacker budget ε_att ≤ defender ball ε_def: every per-path discrepancy
  // the attack leaves is inside the defender's measurement model, so the
  // excess statistic stays at zero and the Eq. 23 detector cannot fire.
  SparseRecoveryOptions so;
  so.epsilon_ms = 10.0;
  so.prior = scenario_.x_true();
  const SparseRecoveryEstimator defender(scenario_.graph(),
                                         scenario_.estimator().paths(), so);
  const AttackContext ctx(scenario_.context(net_.attackers), defender);
  SparseAwareOptions opt;
  opt.epsilon_ms = 10.0;
  const AttackResult r = sparse_aware_attack(ctx, {0}, opt);
  ASSERT_TRUE(r.success);
  const DetectionOutcome out = detect_scapegoating(defender, r.y_observed);
  EXPECT_NEAR(out.residual_norm1, 0.0, 1e-6);
  EXPECT_FALSE(out.detected);
}

TEST_F(SparseAwareTest, ZeroEpsilonDegeneratesToTheConsistentAttack) {
  AttackContext ctx = scenario_.context(net_.attackers);
  SparseAwareOptions opt;
  opt.epsilon_ms = 0.0;
  const AttackResult r = sparse_aware_attack(ctx, {0}, opt);
  ASSERT_TRUE(r.success);
  // The forged target estimate explains y′ exactly: invisible even to the
  // least-squares defender (Theorem 3 all over again).
  const Vector reproduced = ctx.estimator->sparse_r() * r.x_estimated;
  for (std::size_t i = 0; i < reproduced.size(); ++i)
    EXPECT_NEAR(reproduced[i], r.y_observed[i], 1e-6) << "path " << i;
  const DetectionOutcome out =
      detect_scapegoating(scenario_.estimator(), r.y_observed);
  EXPECT_FALSE(out.detected);
}

TEST_F(SparseAwareTest, LeakageBudgetOnlyAddsDamage) {
  AttackContext ctx = scenario_.context(net_.attackers);
  SparseAwareOptions tight;
  tight.epsilon_ms = 0.0;
  SparseAwareOptions loose;
  loose.epsilon_ms = 50.0;
  const AttackResult a = sparse_aware_attack(ctx, {0}, tight);
  const AttackResult b = sparse_aware_attack(ctx, {0}, loose);
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  // ε buys up to ε extra manipulation per controlled path, never less
  // total damage: the tight feasible set is contained in the loose one.
  EXPECT_GE(b.damage, a.damage - 1e-6);
}

TEST_F(SparseAwareTest, AttackerPathScopeIsTheTighterFeasibleSet) {
  // kAttackerPaths forces exact consistency on attacker-free paths, a
  // strict subset of the kAllPaths feasible set: same feasibility here,
  // and never more damage.
  AttackContext ctx = scenario_.context(net_.attackers);
  SparseAwareOptions tight;
  tight.epsilon_ms = 25.0;
  tight.scope = LeakageScope::kAttackerPaths;
  SparseAwareOptions loose = tight;
  loose.scope = LeakageScope::kAllPaths;
  const AttackResult a = sparse_aware_attack(ctx, {0}, tight);
  const AttackResult b = sparse_aware_attack(ctx, {0}, loose);
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_GE(b.damage, a.damage - 1e-6);
}

TEST(SparseAwareNoAttackers, AttackIsInfeasible) {
  Rng rng(32);
  Scenario sc = Scenario::fig1(rng);
  AttackContext ctx = sc.context({});
  const AttackResult r = sparse_aware_attack(ctx, {0});
  EXPECT_FALSE(r.success);
}

}  // namespace
}  // namespace scapegoat
