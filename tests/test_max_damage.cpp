// Focused tests for the maximum-damage strategy (Eq. 8).

#include "attack/max_damage.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "attack/chosen_victim.hpp"
#include "core/scenario.hpp"
#include "topology/example_networks.hpp"

namespace scapegoat {
namespace {

class MaxDamageTest : public ::testing::Test {
 protected:
  MaxDamageTest()
      : rng_(41), scenario_(Scenario::fig1(rng_)), net_(fig1_network()) {}

  Rng rng_;
  Scenario scenario_;
  ExampleNetwork net_;
};

TEST_F(MaxDamageTest, DominatesEveryChosenVictimAttack) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const MaxDamageResult md = max_damage_attack(ctx);
  ASSERT_TRUE(md.best.success);
  // Explicit cross-check against each possible single victim (not just the
  // ones the candidate filter kept).
  for (LinkId v : {LinkId{0}, LinkId{8}, LinkId{9}}) {
    const AttackResult r = chosen_victim_attack(ctx, {v});
    if (r.success) {
      EXPECT_GE(md.best.damage + 1e-6, r.damage);
    }
  }
}

TEST_F(MaxDamageTest, SingleVictimDamagesSortedDescending) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const MaxDamageResult md = max_damage_attack(ctx);
  for (std::size_t i = 1; i < md.single_victim_damages.size(); ++i) {
    EXPECT_GE(md.single_victim_damages[i - 1].second + 1e-9,
              md.single_victim_damages[i].second);
  }
}

TEST_F(MaxDamageTest, VictimsNeverIncludeControlledLinks) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const MaxDamageResult md = max_damage_attack(ctx);
  ASSERT_TRUE(md.best.success);
  const auto lm = ctx.controlled_links();
  for (LinkId v : md.best.victims)
    EXPECT_TRUE(std::find(lm.begin(), lm.end(), v) == lm.end());
}

TEST_F(MaxDamageTest, DisablingJointSearchStillSucceeds) {
  AttackContext ctx = scenario_.context(net_.attackers);
  MaxDamageOptions opt;
  opt.joint_victims = false;
  const MaxDamageResult md = max_damage_attack(ctx, opt);
  ASSERT_TRUE(md.best.success);
  EXPECT_EQ(md.best.victims.size(), 1u);
}

TEST_F(MaxDamageTest, JointSearchNeverLosesToSingleVictim) {
  AttackContext ctx = scenario_.context(net_.attackers);
  MaxDamageOptions single;
  single.joint_victims = false;
  MaxDamageOptions joint;
  joint.joint_victims = true;
  const double d_single = max_damage_attack(ctx, single).best.damage;
  const double d_joint = max_damage_attack(ctx, joint).best.damage;
  EXPECT_GE(d_joint + 1e-6, d_single);
}

TEST_F(MaxDamageTest, CandidateRestrictionIsHonored) {
  AttackContext ctx = scenario_.context(net_.attackers);
  MaxDamageOptions opt;
  opt.candidate_victims = std::vector<LinkId>{9};  // only link 10 allowed
  const MaxDamageResult md = max_damage_attack(ctx, opt);
  ASSERT_TRUE(md.best.success);
  EXPECT_EQ(md.best.victims, (std::vector<LinkId>{9}));
}

TEST_F(MaxDamageTest, EmptyCandidateSetFails) {
  AttackContext ctx = scenario_.context(net_.attackers);
  MaxDamageOptions opt;
  opt.candidate_victims = std::vector<LinkId>{};
  const MaxDamageResult md = max_damage_attack(ctx, opt);
  EXPECT_FALSE(md.best.success);
  EXPECT_TRUE(md.single_victim_damages.empty());
}

TEST_F(MaxDamageTest, NoAttackersNoDamage) {
  AttackContext ctx = scenario_.context({});
  const MaxDamageResult md = max_damage_attack(ctx);
  EXPECT_FALSE(md.best.success);
}

TEST_F(MaxDamageTest, SingleAttackerBStillFindsAVictim) {
  // Node B alone covers enough paths in Fig. 1 to scapegoat something —
  // the paper's point that "even for a single attacker, network tomography
  // is vulnerable".
  AttackContext ctx = scenario_.context({net_.b});
  const MaxDamageResult md = max_damage_attack(ctx);
  EXPECT_TRUE(md.best.success);
}

}  // namespace
}  // namespace scapegoat
