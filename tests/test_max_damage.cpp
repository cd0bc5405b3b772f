// Focused tests for the maximum-damage strategy (Eq. 8).

#include "attack/max_damage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "attack/chosen_victim.hpp"
#include "core/scenario.hpp"
#include "obs/obs.hpp"
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
  opt.max_victims = 1;
  const MaxDamageResult md = max_damage_attack(ctx, opt);
  ASSERT_TRUE(md.best.success);
  EXPECT_EQ(md.best.victims.size(), 1u);
}

TEST_F(MaxDamageTest, JointSearchNeverLosesToSingleVictim) {
  AttackContext ctx = scenario_.context(net_.attackers);
  MaxDamageOptions single;
  single.max_victims = 1;
  MaxDamageOptions joint;
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

TEST_F(MaxDamageTest, OutOfRangeCandidatesAreSkipped) {
  AttackContext ctx = scenario_.context(net_.attackers);
  const LinkId missing = ctx.estimator->num_links();
  MaxDamageOptions opt;
  opt.candidate_victims = std::vector<LinkId>{missing, 9, missing + 1};
  const MaxDamageResult md = max_damage_attack(ctx, opt);
  ASSERT_TRUE(md.best.success);
  EXPECT_EQ(md.best.victims, (std::vector<LinkId>{9}));
  ASSERT_EQ(md.single_victim_damages.size(), 1u);
  EXPECT_EQ(md.single_victim_damages[0].first, LinkId{9});
}

// Bitwise field-by-field equality of two attack results.
void expect_same_bits(const AttackResult& a, const AttackResult& b) {
  auto bits = [](const Vector& v) {
    std::vector<std::uint64_t> out;
    for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(bits(a.m), bits(b.m));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.damage),
            std::bit_cast<std::uint64_t>(b.damage));
  EXPECT_EQ(bits(a.y_observed), bits(b.y_observed));
  EXPECT_EQ(bits(a.x_estimated), bits(b.x_estimated));
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.victims, b.victims);
}

TEST_F(MaxDamageTest, OnlyTheReturnedResultIsEstimated) {
  // The single-victim and growth LPs are compared by damage alone; the
  // least-squares estimate is computed once, for the result returned.
  AttackContext ctx = scenario_.context(net_.attackers);
  for (ManipulationMode mode :
       {ManipulationMode::kUnrestricted, ManipulationMode::kConsistent}) {
    MaxDamageOptions opt;
    opt.mode = mode;
    obs::MetricsRegistry reg;
    MaxDamageResult md;
    {
      obs::ScopedInstrumentation scope(reg);
      md = max_damage_attack(ctx, opt);
    }
    ASSERT_TRUE(md.best.success);
    // Fig. 1 perfectly cuts one link only, so one consistent LP is feasible.
    if (mode == ManipulationMode::kUnrestricted) {
      ASSERT_GE(md.single_victim_damages.size(), 2u);
    }
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter_value("tomography.estimate.dense"), 1u);

    // The completed best is what chosen_victim_attack returns for its
    // victim set, down to the last bit.
    expect_same_bits(md.best, chosen_victim_attack(ctx, md.best.victims,
                                                   opt.mode, opt.collateral));
  }
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
