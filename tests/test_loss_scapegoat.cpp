// Loss-domain scapegoating end to end: planner validation taxonomy, the
// feasible-and-stealthy subtree-framing cell (victim blamed, innocent relay
// chain included, residual silent), the detectable split-framing cell
// (clamped fit, residual fires), and the honest-replay contract of
// evaluate_loss_scapegoat.

#include "attack/loss_scapegoat.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "detect/detector.hpp"
#include "graph/graph.hpp"

namespace scapegoat {
namespace {

// root 0 —l0— 1 —l1— 2 (attacker, graph node 2 == tree node 1), branching
// into chains 2—3—4 (victim leaf, links l2 l3) and 2—5 (sibling leaf, l4).
// The victim logical link is a two-link relay chain, so "victim blamed"
// demonstrably frames an innocent relay as well.
struct TreeFixture {
  Graph g;
  MulticastTree tree;
  std::size_t attacker = 0;
  std::size_t victim_child = 0;

  TreeFixture() : g(6) {
    g.add_link(0, 1);
    g.add_link(1, 2);
    g.add_link(2, 3);
    g.add_link(3, 4);
    g.add_link(2, 5);
    auto built = build_multicast_tree(g, 0, {4, 5});
    EXPECT_TRUE(built.ok());
    tree = std::move(*built);
    for (std::size_t k = 0; k < tree.num_nodes(); ++k) {
      if (tree.nodes[k].graph_node == NodeId{2}) attacker = k;
      if (tree.nodes[k].graph_node == NodeId{4}) victim_child = k;
    }
  }
};

TEST(LossAttackFamilyIo, RoundTripsAndRejectsUnknown) {
  for (const LossAttackFamily family :
       {LossAttackFamily::kSubtreeFraming, LossAttackFamily::kSplitFraming}) {
    const auto back = loss_attack_family_from_string(to_string(family));
    ASSERT_TRUE(back.has_value()) << to_string(family);
    EXPECT_EQ(*back, family);
    std::ostringstream os;
    os << family;
    EXPECT_EQ(os.str(), to_string(family));
  }
  EXPECT_FALSE(loss_attack_family_from_string("ghost_framing").has_value());
}

TEST(LossScapegoatPlanner, ValidationTaxonomy) {
  const TreeFixture s;
  // Attacker must be internal: a leaf node is refused.
  EXPECT_EQ(plan_loss_scapegoat(s.g, s.tree, s.victim_child, s.victim_child,
                                LossAttackFamily::kSubtreeFraming)
                .code(),
            robust::ErrorCode::kInvalidInput);
  // Victim must be a child of the attacker: the root is not.
  EXPECT_EQ(plan_loss_scapegoat(s.g, s.tree, s.attacker, 0,
                                LossAttackFamily::kSubtreeFraming)
                .code(),
            robust::ErrorCode::kInvalidInput);
  // link_delivery, when given, must cover every physical link.
  LossScapegoatOptions short_delivery;
  short_delivery.link_delivery = {1.0, 1.0};
  EXPECT_EQ(plan_loss_scapegoat(s.g, s.tree, s.attacker, s.victim_child,
                                LossAttackFamily::kSubtreeFraming,
                                short_delivery)
                .code(),
            robust::ErrorCode::kInvalidInput);
  // An empty candidate rate list is a search over nothing.
  LossScapegoatOptions no_rates;
  no_rates.drop_rates.clear();
  EXPECT_EQ(plan_loss_scapegoat(s.g, s.tree, s.attacker, s.victim_child,
                                LossAttackFamily::kSubtreeFraming, no_rates)
                .code(),
            robust::ErrorCode::kEmptyInput);
}

TEST(LossScapegoatPlanner, RatesBelowTheAbnormalThresholdAreInfeasible) {
  const TreeFixture s;
  LossScapegoatOptions opt;
  // 2% drops keep the victim's delivery ≈ 0.98 > the 0.90 abnormal line.
  opt.drop_rates = {0.02};
  const auto plan =
      plan_loss_scapegoat(s.g, s.tree, s.attacker, s.victim_child,
                          LossAttackFamily::kSubtreeFraming, opt);
  ASSERT_TRUE(plan.ok()) << plan.error_message();
  EXPECT_FALSE(plan->feasible);
  EXPECT_TRUE(plan->adversary.rules.empty());
}

TEST(LossScapegoatPlanner, SubtreeFramingIsFeasibleAndStealthy) {
  const TreeFixture s;
  LossScapegoatOptions opt;
  opt.seed = 11;
  const auto plan =
      plan_loss_scapegoat(s.g, s.tree, s.attacker, s.victim_child,
                          LossAttackFamily::kSubtreeFraming, opt);
  ASSERT_TRUE(plan.ok()) << plan.error_message();
  ASSERT_TRUE(plan->feasible);
  // Smallest-footprint search. The victim logical link is a TWO-link chain:
  // its −log metric splits in half, so each physical link reads the square
  // root of the chain delivery and crosses the 0.90 abnormal line only once
  // the chain delivery drops under 0.81 — the first qualifying rate is 20%.
  EXPECT_GE(plan->drop_rate, 0.20 - 1e-12);
  EXPECT_LE(plan->drop_rate, 0.25);
  ASSERT_EQ(plan->adversary.rules.size(), 1u);
  EXPECT_EQ(plan->adversary.rules[0].at, s.attacker);
  EXPECT_EQ(plan->adversary.rules[0].victim, s.victim_child);
  EXPECT_FALSE(plan->adversary.exclusive);
  // The rehearsal already certifies stealth (a boundary clamp on a perfect
  // link is benign — the residual cap is what the planner enforces).
  EXPECT_LE(plan->planned_residual, kLossStealthAlpha);

  const auto outcome = evaluate_loss_scapegoat(s.g, s.tree, *plan, opt);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();
  EXPECT_TRUE(outcome->victim_blamed);
  EXPECT_TRUE(outcome->attacker_clean);
  EXPECT_FALSE(outcome->detected);
  EXPECT_LE(outcome->residual, kLossDefenderAlpha);
  // Both physical links of the victim chain are framed — the relay 2—3
  // carried every probe faithfully and still reads abnormal.
  const auto& victim_chain = s.tree.nodes[s.victim_child].chain;
  ASSERT_EQ(victim_chain.size(), 2u);
  for (const LinkId l : victim_chain)
    EXPECT_EQ(outcome->states[l], LinkState::kAbnormal) << "link " << l;
  // The attacker's own chain reads clean.
  for (const LinkId l : s.tree.nodes[s.attacker].chain)
    EXPECT_NE(outcome->states[l], LinkState::kAbnormal) << "link " << l;
}

TEST(LossScapegoatPlanner, SplitFramingBlamesButTripsTheResidual) {
  const TreeFixture s;
  LossScapegoatOptions opt;
  opt.seed = 23;
  const auto plan =
      plan_loss_scapegoat(s.g, s.tree, s.attacker, s.victim_child,
                          LossAttackFamily::kSplitFraming, opt);
  ASSERT_TRUE(plan.ok()) << plan.error_message();
  ASSERT_TRUE(plan->feasible);
  ASSERT_EQ(plan->adversary.rules.size(), 2u);
  EXPECT_TRUE(plan->adversary.exclusive);
  EXPECT_NE(plan->split_sibling, plan->victim_child);
  // The exclusive coin's anti-correlation is infeasible for the tree model:
  // the rehearsal fit already clamps.
  EXPECT_GE(plan->planned_clamped, 1u);

  const auto outcome = evaluate_loss_scapegoat(s.g, s.tree, *plan, opt);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();
  EXPECT_TRUE(outcome->victim_blamed);
  EXPECT_TRUE(outcome->detected);
  EXPECT_GT(outcome->residual, kLossDefenderAlpha);
}

TEST(LossScapegoatPlanner, HonestBackgroundLossDoesNotAlarmTheDefender) {
  // No attack at all: the defender fed an honest lossy run must neither
  // blame the victim chain nor raise the residual — the clean-trial
  // false-alarm contract the ablation grid reports on.
  const TreeFixture s;
  simnet::MulticastProbeOptions popt;
  popt.probes = 4000;
  popt.seed = 77;
  popt.link_delivery = {0.99, 0.985, 0.99, 0.995, 0.99};
  const auto run = simnet::run_multicast_probes(s.tree, popt);
  MulticastMleEstimator defender(s.g, s.tree);
  defender.ingest(run.obs);
  const Vector y = run.leaf_loss_metrics();
  const DetectionOutcome verdict =
      detect_scapegoating(defender, y, DetectorOptions{0.05});
  EXPECT_FALSE(verdict.detected);
  const auto states = classify_all(defender.estimate(y), loss_thresholds());
  for (std::size_t l = 0; l < states.size(); ++l)
    EXPECT_NE(states[l], LinkState::kAbnormal) << "link " << l;
}

TEST(LossScapegoatEvaluator, RefusesInfeasibleOrForeignPlans) {
  const TreeFixture s;
  LossScapegoatPlan infeasible;
  EXPECT_EQ(evaluate_loss_scapegoat(s.g, s.tree, infeasible).code(),
            robust::ErrorCode::kInvalidInput);
  // A plan indexed against a different tree shape.
  LossScapegoatPlan foreign;
  foreign.feasible = true;
  foreign.attacker = 99;
  foreign.victim_child = 100;
  foreign.adversary.rules = {{99, 100}};
  foreign.adversary.drop_rate = 0.2;
  EXPECT_EQ(evaluate_loss_scapegoat(s.g, s.tree, foreign).code(),
            robust::ErrorCode::kInvalidInput);
}

}  // namespace
}  // namespace scapegoat
