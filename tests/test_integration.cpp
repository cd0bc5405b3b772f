// Cross-module integration tests: full pipeline (topology → placement →
// tomography → attack → detection) on non-toy graphs.

#include <gtest/gtest.h>

#include <algorithm>

#include "attack/chosen_victim.hpp"
#include "attack/cut.hpp"
#include "attack/max_damage.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "detect/detector.hpp"
#include "topology/generators.hpp"
#include "topology/geometric.hpp"
#include "topology/isp.hpp"

namespace scapegoat {
namespace {

TEST(Integration, IspPipelineEndToEnd) {
  Rng rng(201);
  auto sc = Scenario::from_graph(isp_topology(IspParams{}, rng), rng);
  ASSERT_TRUE(sc.has_value());
  ASSERT_TRUE(sc->estimator().ok());

  // Honest tomography is exact.
  EXPECT_TRUE(approx_equal(sc->estimator().estimate(sc->clean_measurements()),
                           sc->x_true(), 1e-6));

  // A hub attacker can scapegoat someone.
  NodeId hub = 0;
  for (NodeId v = 0; v < sc->graph().num_nodes(); ++v)
    if (sc->graph().degree(v) > sc->graph().degree(hub)) hub = v;
  AttackContext ctx = sc->context({hub});
  MaxDamageOptions opt;
  opt.max_candidates = 16;
  const MaxDamageResult md = max_damage_attack(ctx, opt);
  ASSERT_TRUE(md.best.success);
  EXPECT_TRUE(satisfies_constraint1(ctx, md.best.m));
  for (LinkId v : md.best.victims)
    EXPECT_EQ(md.best.states[v], LinkState::kAbnormal);
  for (LinkId l : ctx.controlled_links())
    EXPECT_EQ(md.best.states[l], LinkState::kNormal);
}

TEST(Integration, WirelessPerfectCutStealthImperfectDetection) {
  Rng rng(202);
  GeometricParams gp;
  gp.num_nodes = 60;
  auto sc = Scenario::from_graph(random_geometric(gp, rng).graph, rng);
  ASSERT_TRUE(sc.has_value());
  const auto& paths = sc->estimator().paths();

  // Perfect-cut side (only exercisable when some link has two non-monitor
  // endpoints — sparse placements may monitor everything).
  bool tested_perfect = false;
  for (LinkId victim = 0; victim < sc->graph().num_links() && !tested_perfect;
       ++victim) {
    const Link& l = sc->graph().link(victim);
    if (sc->is_monitor(l.u) || sc->is_monitor(l.v)) continue;
    std::vector<NodeId> attackers;
    for (const Adjacent& a : sc->graph().neighbors(l.u))
      if (a.neighbor != l.v) attackers.push_back(a.neighbor);
    for (const Adjacent& a : sc->graph().neighbors(l.v))
      if (a.neighbor != l.u &&
          std::find(attackers.begin(), attackers.end(), a.neighbor) ==
              attackers.end())
        attackers.push_back(a.neighbor);
    if (attackers.empty()) continue;
    if (!is_perfect_cut(paths, attackers, {victim})) continue;
    AttackContext ctx = sc->context(attackers);
    const AttackResult r =
        chosen_victim_attack(ctx, {victim}, ManipulationMode::kConsistent);
    if (!r.success) continue;
    EXPECT_FALSE(detect_scapegoating(sc->estimator(), r.y_observed).detected);
    tested_perfect = true;
  }

  // Imperfect-cut side: random small attacker groups against random links.
  bool tested_imperfect = false;
  for (int attempt = 0; attempt < 100 && !tested_imperfect; ++attempt) {
    sc->resample_metrics(rng);
    const auto att =
        rng.sample_without_replacement(sc->graph().num_nodes(), 3);
    AttackContext ctx =
        sc->context(std::vector<NodeId>(att.begin(), att.end()));
    const auto lm = ctx.controlled_links();
    const LinkId victim = rng.index(sc->graph().num_links());
    if (std::find(lm.begin(), lm.end(), victim) != lm.end()) continue;
    if (is_perfect_cut(paths, ctx.attackers, {victim})) continue;
    const AttackResult r = chosen_victim_attack(ctx, {victim});
    if (!r.success) continue;
    // Theorem 3 (imperfect cut ⇒ inconsistency). The damage-max LP leaves a
    // large residual in practice.
    EXPECT_GT(
        detect_scapegoating(sc->estimator(), r.y_observed).residual_norm1,
        1.0);
    tested_imperfect = true;
  }
  EXPECT_TRUE(tested_imperfect);
}

TEST(Integration, MakeScenarioBothKinds) {
  Rng rng(203);
  auto wireline = make_scenario(TopologyKind::kWireline, rng);
  ASSERT_TRUE(wireline.has_value());
  EXPECT_TRUE(wireline->estimator().ok());
  EXPECT_GT(wireline->estimator().num_paths(),
            wireline->estimator().num_links());

  auto wireless = make_scenario(TopologyKind::kWireless, rng);
  ASSERT_TRUE(wireless.has_value());
  EXPECT_TRUE(wireless->estimator().ok());
  EXPECT_EQ(wireless->graph().num_nodes(), 100u);
}

TEST(Integration, ErdosRenyiScenarioAttackRoundTrip) {
  Rng rng(204);
  auto sc = Scenario::from_graph(erdos_renyi(30, 0.2, rng), rng);
  ASSERT_TRUE(sc.has_value());
  // Random 2-node attacker set; any feasible chosen-victim attack must pass
  // the independent verifier.
  for (int trial = 0; trial < 20; ++trial) {
    sc->resample_metrics(rng);
    const auto att = rng.sample_without_replacement(30, 2);
    AttackContext ctx =
        sc->context(std::vector<NodeId>(att.begin(), att.end()));
    const auto lm = ctx.controlled_links();
    const LinkId victim = rng.index(sc->graph().num_links());
    if (std::find(lm.begin(), lm.end(), victim) != lm.end()) continue;
    const AttackResult r = chosen_victim_attack(ctx, {victim});
    if (r.success) {
      EXPECT_TRUE(verify_chosen_victim_result(ctx, r));
    }
  }
}

}  // namespace
}  // namespace scapegoat
