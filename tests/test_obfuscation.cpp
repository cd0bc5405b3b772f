// Focused tests for the obfuscation strategy (Eq. 9-11).

#include "attack/obfuscation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/scenario.hpp"
#include "topology/example_networks.hpp"

namespace scapegoat {
namespace {

class ObfuscationTest : public ::testing::Test {
 protected:
  ObfuscationTest()
      : rng_(51), scenario_(Scenario::fig1(rng_)), net_(fig1_network()) {}

  Rng rng_;
  Scenario scenario_;
  ExampleNetwork net_;
};

TEST_F(ObfuscationTest, AllLinksLandInUncertainBand) {
  AttackContext ctx = scenario_.context(net_.attackers);
  ObfuscationOptions opt;
  opt.min_victims = 1;
  const AttackResult r = obfuscation_attack(ctx, opt);
  ASSERT_TRUE(r.success);
  // L_o = L_m ∪ L_s must be uncertain.
  for (LinkId l : ctx.controlled_links())
    EXPECT_EQ(r.states[l], LinkState::kUncertain);
  for (LinkId v : r.victims) EXPECT_EQ(r.states[v], LinkState::kUncertain);
  // On Fig. 1 the attacker influences everything: all 10 links uncertain.
  for (LinkId l = 0; l < r.states.size(); ++l)
    EXPECT_EQ(r.states[l], LinkState::kUncertain) << "link " << l;
}

TEST_F(ObfuscationTest, EstimatesStayInsideNumericBand) {
  AttackContext ctx = scenario_.context(net_.attackers);
  ObfuscationOptions opt;
  opt.min_victims = 1;
  const AttackResult r = obfuscation_attack(ctx, opt);
  ASSERT_TRUE(r.success);
  for (LinkId v : r.victims) {
    EXPECT_GE(r.x_estimated[v], ctx.thresholds.lower - 1e-6);
    EXPECT_LE(r.x_estimated[v], ctx.thresholds.upper + 1e-6);
  }
}

TEST_F(ObfuscationTest, VictimsExcludeControlledLinks) {
  AttackContext ctx = scenario_.context(net_.attackers);
  ObfuscationOptions opt;
  opt.min_victims = 1;
  const AttackResult r = obfuscation_attack(ctx, opt);
  ASSERT_TRUE(r.success);
  const auto lm = ctx.controlled_links();
  for (LinkId v : r.victims)
    EXPECT_TRUE(std::find(lm.begin(), lm.end(), v) == lm.end());
}

TEST_F(ObfuscationTest, MinVictimsGateFailsWhenTooFewCandidates) {
  // Fig. 1 has only 3 non-controlled links; demanding 5 victims must fail.
  AttackContext ctx = scenario_.context(net_.attackers);
  ObfuscationOptions opt;
  opt.min_victims = 5;
  const AttackResult r = obfuscation_attack(ctx, opt);
  EXPECT_FALSE(r.success);
}

TEST_F(ObfuscationTest, Constraint1AndCapHold) {
  AttackContext ctx = scenario_.context(net_.attackers);
  ObfuscationOptions opt;
  opt.min_victims = 1;
  const AttackResult r = obfuscation_attack(ctx, opt);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(satisfies_constraint1(ctx, r.m));
  for (double mi : r.m) EXPECT_LE(mi, ctx.per_path_cap + 1e-6);
}

TEST_F(ObfuscationTest, CandidateRestrictionHonored) {
  AttackContext ctx = scenario_.context(net_.attackers);
  ObfuscationOptions opt;
  opt.min_victims = 1;
  opt.candidate_victims = std::vector<LinkId>{0};  // only link 1 may join L_s
  const AttackResult r = obfuscation_attack(ctx, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.victims, (std::vector<LinkId>{0}));
}

TEST_F(ObfuscationTest, DamageIsPositiveAndSubstantial) {
  AttackContext ctx = scenario_.context(net_.attackers);
  ObfuscationOptions opt;
  opt.min_victims = 1;
  const AttackResult r = obfuscation_attack(ctx, opt);
  ASSERT_TRUE(r.success);
  // Pushing ~10 links into the 100-800 ms band requires thousands of ms of
  // injected path delay.
  EXPECT_GT(r.damage, 1000.0);
}

TEST_F(ObfuscationTest, ZeroMinVictimsNeverSucceedsWithoutVictims) {
  // min_victims 0 counts as 1: with no candidate victims the shrink loop
  // must not run (it would solve an attacker-only LP and pop an empty list).
  AttackContext ctx = scenario_.context(net_.attackers);
  ObfuscationOptions opt;
  opt.min_victims = 0;
  opt.candidate_victims = std::vector<LinkId>{};
  const AttackResult r = obfuscation_attack(ctx, opt);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
  EXPECT_TRUE(r.victims.empty());
}

TEST_F(ObfuscationTest, OutOfRangeCandidatesAreSkipped) {
  // Candidate ids past the last link name no link: they are dropped from
  // the pool, so the answer is the one for the valid candidates alone.
  AttackContext ctx = scenario_.context(net_.attackers);
  const LinkId missing = ctx.estimator->num_links();
  ObfuscationOptions opt;
  opt.min_victims = 1;
  opt.candidate_victims = std::vector<LinkId>{missing, 0, missing + 1};
  const AttackResult r = obfuscation_attack(ctx, opt);
  opt.candidate_victims = std::vector<LinkId>{0};
  const AttackResult valid_only = obfuscation_attack(ctx, opt);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.victims, (std::vector<LinkId>{0}));
  EXPECT_EQ(r.m.data(), valid_only.m.data());
  EXPECT_EQ(r.states, valid_only.states);
}

TEST_F(ObfuscationTest, NoAttackersFails) {
  AttackContext ctx = scenario_.context({});
  ObfuscationOptions opt;
  opt.min_victims = 1;
  EXPECT_FALSE(obfuscation_attack(ctx, opt).success);
}

}  // namespace
}  // namespace scapegoat
