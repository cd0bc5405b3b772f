// Second parameterized property battery: strategy-level invariants on
// random topologies (complementing test_properties.cpp's theorem checks).
// All randomness flows through a testkit choice-tape Source
// (src/testkit/gen.hpp) — the former bespoke Rng/erdos_renyi helper is gone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "attack/chosen_victim.hpp"
#include "attack/max_damage.hpp"
#include "attack/naive_attack.hpp"
#include "attack/obfuscation.hpp"
#include "core/scenario.hpp"
#include "detect/localize.hpp"
#include "testkit/gen.hpp"

namespace scapegoat {
namespace {

// ER family all five invariants run on.
std::optional<Scenario> gen_instance(testkit::Source& src) {
  return testkit::gen_er_scenario(src, 18, 0.25);
}

class StrategyInvariants : public ::testing::TestWithParam<int> {};

TEST_P(StrategyInvariants, ObfuscationOutputsAreInBand) {
  testkit::Source src(static_cast<std::uint64_t>(5000 + GetParam()));
  auto sc = gen_instance(src);
  ASSERT_TRUE(sc.has_value());
  for (int trial = 0; trial < 6; ++trial) {
    testkit::gen_resample_metrics(src, *sc);
    const auto att = src.distinct_indices(18, 1 + src.index(2));
    AttackContext ctx =
        sc->context(std::vector<NodeId>(att.begin(), att.end()));
    ObfuscationOptions opt;
    opt.min_victims = 3;
    const AttackResult r = obfuscation_attack(ctx, opt);
    if (!r.success) continue;
    EXPECT_GE(r.victims.size(), 3u);
    EXPECT_TRUE(satisfies_constraint1(ctx, r.m));
    for (LinkId l : ctx.controlled_links())
      EXPECT_EQ(r.states[l], LinkState::kUncertain);
    for (LinkId v : r.victims)
      EXPECT_EQ(r.states[v], LinkState::kUncertain);
  }
}

TEST_P(StrategyInvariants, MaxDamageDominatesSampledSingles) {
  testkit::Source src(static_cast<std::uint64_t>(6000 + GetParam()));
  auto sc = gen_instance(src);
  ASSERT_TRUE(sc.has_value());
  const auto att = src.distinct_indices(18, 2);
  AttackContext ctx =
      sc->context(std::vector<NodeId>(att.begin(), att.end()));
  const MaxDamageResult md = max_damage_attack(ctx);
  if (!md.best.success) return;  // nothing feasible for this placement
  const auto lm = ctx.controlled_links();
  for (LinkId v = 0; v < sc->graph().num_links(); ++v) {
    if (std::find(lm.begin(), lm.end(), v) != lm.end()) continue;
    const AttackResult single = chosen_victim_attack(ctx, {v});
    if (single.success) {
      EXPECT_GE(md.best.damage + 1e-6, single.damage) << "victim " << v;
    }
  }
}

TEST_P(StrategyInvariants, ConsistentSuccessesHaveZeroResidual) {
  testkit::Source src(static_cast<std::uint64_t>(7000 + GetParam()));
  auto sc = gen_instance(src);
  ASSERT_TRUE(sc.has_value());
  for (int trial = 0; trial < 10; ++trial) {
    testkit::gen_resample_metrics(src, *sc);
    const auto att = src.distinct_indices(18, 3);
    AttackContext ctx =
        sc->context(std::vector<NodeId>(att.begin(), att.end()));
    const auto lm = ctx.controlled_links();
    const LinkId victim = src.index(sc->graph().num_links());
    if (std::find(lm.begin(), lm.end(), victim) != lm.end()) continue;
    const AttackResult r =
        chosen_victim_attack(ctx, {victim}, ManipulationMode::kConsistent);
    if (!r.success) continue;
    const Vector resid =
        r.y_observed - ctx.estimator->sparse_r() * r.x_estimated;
    EXPECT_LT(resid.norm1(), 1e-5);
  }
}

TEST_P(StrategyInvariants, NaiveAttackNeverHidesTheWorstLink) {
  testkit::Source src(static_cast<std::uint64_t>(8000 + GetParam()));
  auto sc = gen_instance(src);
  ASSERT_TRUE(sc.has_value());
  const NodeId attacker = src.index(18);
  AttackContext ctx = sc->context({attacker});
  const AttackResult r = naive_delay_attack(ctx, 900.0);
  if (!r.success) return;  // attacker on no path
  // The single worst estimated link must be attacker-incident: the blame
  // lands on the culprit, not a scapegoat.
  LinkId worst = 0;
  for (LinkId l = 1; l < r.x_estimated.size(); ++l)
    if (r.x_estimated[l] > r.x_estimated[worst]) worst = l;
  const auto lm = ctx.controlled_links();
  EXPECT_TRUE(std::find(lm.begin(), lm.end(), worst) != lm.end());
}

TEST_P(StrategyInvariants, LocalizationSoundnessOnMinorityManipulation) {
  // On arbitrary topologies the tampered rows are not always the UNIQUE
  // consistent explanation (that exactness is pinned down on Fig. 1 in
  // test_localize.cpp); what must always hold is soundness: honest systems
  // are never flagged, flagged sets respect the budget, and a clean verdict
  // really is consistent on the surviving rows.
  testkit::Source src(static_cast<std::uint64_t>(8500 + GetParam()));
  auto sc = gen_instance(src);
  ASSERT_TRUE(sc.has_value());

  // Honest run never flags anything.
  const LocalizationResult honest =
      localize_manipulation(sc->estimator(), sc->clean_measurements());
  EXPECT_FALSE(honest.manipulated);
  EXPECT_TRUE(honest.suspicious_paths.empty());

  // Tamper 2 random paths hard (amounts far above α).
  Vector y = sc->clean_measurements();
  const auto tampered =
      src.distinct_indices(sc->estimator().num_paths(), 2);
  for (std::size_t idx : tampered)
    y[idx] += 1200.0 + src.grid_nonneg(25.0, 16);

  LocalizationOptions opt;
  opt.max_removals = 6;
  const LocalizationResult loc =
      localize_manipulation(sc->estimator(), y, opt);
  EXPECT_LE(loc.suspicious_paths.size(), opt.max_removals);
  for (std::size_t idx : loc.suspicious_paths)
    EXPECT_LT(idx, sc->estimator().num_paths());
  if (loc.clean && loc.manipulated) {
    // The surviving rows are consistent with the cleaned estimate.
    const Matrix r = sc->estimator().sparse_r().to_dense();
    double resid = 0.0;
    for (std::size_t i = 0; i < r.rows(); ++i) {
      if (std::find(loc.suspicious_paths.begin(), loc.suspicious_paths.end(),
                    i) != loc.suspicious_paths.end())
        continue;
      double row = y[i];
      for (std::size_t j = 0; j < r.cols(); ++j)
        row -= r(i, j) * loc.x_cleaned[j];
      resid += std::abs(row);
    }
    EXPECT_LE(resid, opt.alpha + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyInvariants, ::testing::Range(0, 10));

}  // namespace
}  // namespace scapegoat
