// Tests for the manipulation model: AttackContext derived quantities and
// Constraint 1 validation.

#include "attack/manipulation.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "attack/chosen_victim.hpp"
#include "core/scenario.hpp"
#include "tomography/estimator.hpp"
#include "tomography/routing_matrix.hpp"
#include "topology/example_networks.hpp"

namespace scapegoat {
namespace {

class ManipulationTest : public ::testing::Test {
 protected:
  ManipulationTest()
      : rng_(12), scenario_(Scenario::fig1(rng_)), net_(fig1_network()) {}

  Rng rng_;
  Scenario scenario_;
  ExampleNetwork net_;
};

TEST_F(ManipulationTest, ControlledLinksAreLinks2Through8) {
  AttackContext ctx = scenario_.context(net_.attackers);
  EXPECT_EQ(ctx.controlled_links(),
            (std::vector<LinkId>{1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(ManipulationTest, AttackerPathIndicesExcludeOnlyPath17) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const auto support = ctx.attacker_path_indices();
  EXPECT_EQ(support.size(), 22u);
  for (std::size_t i : support) EXPECT_NE(i, 16u);
}

TEST_F(ManipulationTest, TrueMeasurementsMatchPathSums) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const Vector y = ctx.true_measurements();
  ASSERT_EQ(y.size(), 23u);
  // Path 17 = links 9, 10 (ids 8, 9).
  EXPECT_NEAR(y[16], ctx.x_true[8] + ctx.x_true[9], 1e-12);
  // Path 3 = links 1, 4, 7, 10 (ids 0, 3, 6, 9).
  EXPECT_NEAR(y[2],
              ctx.x_true[0] + ctx.x_true[3] + ctx.x_true[6] + ctx.x_true[9],
              1e-12);
}

TEST_F(ManipulationTest, Constraint1AcceptsValidVectors) {
  AttackContext ctx = scenario_.context(net_.attackers);
  Vector m(23, 0.0);
  EXPECT_TRUE(satisfies_constraint1(ctx, m));  // zero vector: trivially OK
  m[0] = 150.0;                                // path 1 passes through B
  EXPECT_TRUE(satisfies_constraint1(ctx, m));
}

TEST_F(ManipulationTest, Constraint1RejectsNegativeEntries) {
  AttackContext ctx = scenario_.context(net_.attackers);
  Vector m(23, 0.0);
  m[0] = -1.0;
  EXPECT_FALSE(satisfies_constraint1(ctx, m));
}

TEST_F(ManipulationTest, Constraint1RejectsUncoveredPaths) {
  AttackContext ctx = scenario_.context(net_.attackers);
  Vector m(23, 0.0);
  m[16] = 10.0;  // path 17 has no attacker on it
  EXPECT_FALSE(satisfies_constraint1(ctx, m));
}

TEST_F(ManipulationTest, Constraint1RejectsWrongLength) {
  AttackContext ctx = scenario_.context(net_.attackers);
  EXPECT_FALSE(satisfies_constraint1(ctx, Vector(10, 0.0)));
}

TEST_F(ManipulationTest, VerifyAcceptsLpOutputAndRejectsTampering) {
  AttackContext ctx = scenario_.context(net_.attackers);
  AttackResult r = chosen_victim_attack(ctx, {0});
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(verify_chosen_victim_result(ctx, r));

  // Claiming a controlled link as victim must fail verification.
  AttackResult tampered = r;
  tampered.victims = {1};
  EXPECT_FALSE(verify_chosen_victim_result(ctx, tampered));

  // Violating the support constraint must fail verification.
  AttackResult bad_support = r;
  bad_support.m[16] = 5.0;
  EXPECT_FALSE(verify_chosen_victim_result(ctx, bad_support));

  // Exceeding the per-path cap must fail verification.
  AttackResult over_cap = r;
  over_cap.m[0] = ctx.per_path_cap + 10.0;
  EXPECT_FALSE(verify_chosen_victim_result(ctx, over_cap));

  // Unsuccessful results never verify.
  AttackResult failed;
  EXPECT_FALSE(verify_chosen_victim_result(ctx, failed));
}

TEST_F(ManipulationTest, SingleAttackerHasSmallerFootprint) {
  AttackContext both = scenario_.context(net_.attackers);
  AttackContext only_b = scenario_.context({net_.b});
  EXPECT_LT(only_b.controlled_links().size(),
            both.controlled_links().size());
  EXPECT_LE(only_b.attacker_path_indices().size(),
            both.attacker_path_indices().size());
}

// The inputs the derived sets depend on cannot change under them.
static_assert(!std::is_assignable_v<
              decltype((std::declval<AttackContext&>().attackers)),
              std::vector<NodeId>>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<AttackContext&>().estimator)),
              const Estimator*>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<AttackContext&>().graph)),
              const Graph*>);

TEST_F(ManipulationTest, DerivedSetsMatchTheirDefinitions) {
  const AttackContext ctx = scenario_.context(net_.attackers);
  EXPECT_EQ(ctx.attacker_path_indices(),
            paths_through_nodes(scenario_.estimator().paths(), net_.attackers));
  EXPECT_EQ(ctx.controlled_links(),
            scenario_.graph().incident_links(net_.attackers));

  const AttackContext copy = ctx;
  EXPECT_EQ(copy.attacker_path_indices(), ctx.attacker_path_indices());
  EXPECT_EQ(copy.controlled_links(), ctx.controlled_links());
}

TEST_F(ManipulationTest, ContextOnAnotherEstimatorDerivesItsOwnSupport) {
  // An attacker's belief system over every other path (the knowledge
  // ablation's pattern): same attackers, fewer paths, its own support.
  const AttackContext real = scenario_.context(net_.attackers);
  std::vector<Path> known;
  for (std::size_t i = 0; i < net_.paths.size(); i += 2)
    known.push_back(net_.paths[i]);
  const TomographyEstimator belief(scenario_.graph(), known);
  const AttackContext belief_ctx(real, belief);

  EXPECT_EQ(belief_ctx.estimator, &belief);
  EXPECT_EQ(belief_ctx.attackers, real.attackers);
  EXPECT_EQ(belief_ctx.x_true.data(), real.x_true.data());
  EXPECT_EQ(belief_ctx.attacker_path_indices(),
            paths_through_nodes(known, net_.attackers));
  EXPECT_LT(belief_ctx.attacker_path_indices().size(),
            real.attacker_path_indices().size());
  EXPECT_EQ(belief_ctx.controlled_links(), real.controlled_links());
}

TEST_F(ManipulationTest, OutOfRangeAttackerIdsReachNothing) {
  // An id past num_nodes() names no node: the derived sets skip it, and
  // the attacks see the same reach as without it.
  std::vector<NodeId> attackers = net_.attackers;
  attackers.push_back(scenario_.graph().num_nodes());
  attackers.push_back(scenario_.graph().num_nodes() + 1000);
  const AttackContext ctx = scenario_.context(attackers);
  const AttackContext valid = scenario_.context(net_.attackers);
  EXPECT_EQ(ctx.attackers, attackers);
  EXPECT_EQ(ctx.controlled_links(), valid.controlled_links());
  EXPECT_EQ(ctx.attacker_path_indices(), valid.attacker_path_indices());

  const AttackResult r = chosen_victim_attack(ctx, {0});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.m.data(), chosen_victim_attack(valid, {0}).m.data());

  const AttackContext only_bad =
      scenario_.context({scenario_.graph().num_nodes()});
  EXPECT_TRUE(only_bad.controlled_links().empty());
  EXPECT_TRUE(only_bad.attacker_path_indices().empty());
}

}  // namespace
}  // namespace scapegoat
