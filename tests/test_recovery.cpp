// Tests for the misdirected-recovery assessment.

#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include "attack/chosen_victim.hpp"
#include "attack/max_damage.hpp"
#include "topology/example_networks.hpp"
#include "topology/isp.hpp"

namespace scapegoat {
namespace {

TEST(Recovery, MisledRecoveryIsWorseThanOracle) {
  Rng rng(701);
  Scenario scenario = Scenario::fig1(rng);
  ExampleNetwork net = fig1_network();
  AttackContext ctx = scenario.context(net.attackers);
  const AttackResult attack = chosen_victim_attack(
      ctx, {0}, ManipulationMode::kUnrestricted,
      CollateralPolicy::kAvoidAbnormal);
  ASSERT_TRUE(attack.success);

  RecoveryOptions opt;
  opt.demand_pairs = 400;
  Rng demand_rng(702);
  const RecoveryAssessment a =
      assess_recovery(scenario, ctx, attack, opt, demand_rng);
  ASSERT_GT(a.drained_links, 0u);  // the scapegoat got drained
  // Tax-aware oracle routing is at least as good as the misled policy that
  // drains an innocent link while crossing attackers blindly. (Both
  // optimize the same true-cost metric; the oracle has correct weights.)
  EXPECT_LE(a.informed_delay_ms,
            a.misled_delay_ms + kAttackerTaxMs / 2.0);
  EXPECT_GT(a.misled_delay_ms, 0.0);
}

TEST(Recovery, ExacerbationIsNonNegativeOnFig1) {
  // Draining the scapegoated link (M1-A) removes M1's ONLY link... link 1
  // is M1's sole attachment, so misled demands involving M1 become
  // unroutable — a drastic, visible form of exacerbation.
  Rng rng(703);
  Scenario scenario = Scenario::fig1(rng);
  ExampleNetwork net = fig1_network();
  AttackContext ctx = scenario.context(net.attackers);
  const AttackResult attack = chosen_victim_attack(
      ctx, {0}, ManipulationMode::kUnrestricted,
      CollateralPolicy::kAvoidAbnormal);
  ASSERT_TRUE(attack.success);
  RecoveryOptions opt;
  opt.demand_pairs = 300;
  Rng demand_rng(704);
  const RecoveryAssessment a =
      assess_recovery(scenario, ctx, attack, opt, demand_rng);
  EXPECT_GT(a.unroutable, 0u);
}

TEST(Recovery, NoDrainWhenNothingReadsAbnormal) {
  // Obfuscation-style outcomes (everything uncertain) drain nothing; the
  // misled policy then routes on believed (inflated) metrics but keeps all
  // links in service.
  Rng rng(705);
  Scenario scenario = Scenario::fig1(rng);
  ExampleNetwork net = fig1_network();
  AttackContext ctx = scenario.context(net.attackers);
  AttackResult attack = chosen_victim_attack(ctx, {0});
  ASSERT_TRUE(attack.success);
  // Overwrite states as if everything were uncertain.
  for (auto& s : attack.states) s = LinkState::kUncertain;
  RecoveryOptions opt;
  opt.demand_pairs = 100;
  Rng demand_rng(706);
  const RecoveryAssessment a =
      assess_recovery(scenario, ctx, attack, opt, demand_rng);
  EXPECT_EQ(a.drained_links, 0u);
  EXPECT_EQ(a.unroutable, 0u);  // nothing drained ⇒ everything routable
}

TEST(Recovery, IspScaleRun) {
  Rng rng(707);
  auto scenario = Scenario::from_graph(isp_topology(IspParams{}, rng), rng);
  ASSERT_TRUE(scenario.has_value());
  NodeId hub = 0;
  for (NodeId v = 0; v < scenario->graph().num_nodes(); ++v)
    if (scenario->graph().degree(v) > scenario->graph().degree(hub)) hub = v;
  AttackContext ctx = scenario->context({hub});
  MaxDamageOptions md;
  md.max_candidates = 16;
  md.collateral = CollateralPolicy::kAvoidAbnormal;
  const MaxDamageResult attack = max_damage_attack(ctx, md);
  if (!attack.best.success) GTEST_SKIP() << "hub found no scapegoat";

  RecoveryOptions opt;
  opt.demand_pairs = 150;
  Rng demand_rng(708);
  const RecoveryAssessment a =
      assess_recovery(*scenario, ctx, attack.best, opt, demand_rng);
  EXPECT_GT(a.baseline_delay_ms, 0.0);
  EXPECT_GT(a.misled_delay_ms, 0.0);
  // The oracle (tax-aware, correct weights, no drained constraint) is never
  // meaningfully worse than the misled policy.
  EXPECT_LE(a.informed_delay_ms,
            a.misled_delay_ms + kAttackerTaxMs / 2.0);
}

}  // namespace
}  // namespace scapegoat
