// Unit tests for the shared attack-LP layer (solve_attack_lp,
// solve_consistent_attack_lp, complete_attack_result, max_estimate_push) —
// below the strategy level.

#include "attack/attack_lp.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "topology/example_networks.hpp"

namespace scapegoat {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class AttackLpTest : public ::testing::Test {
 protected:
  AttackLpTest()
      : rng_(121), scenario_(Scenario::fig1(rng_)), net_(fig1_network()) {}

  AttackContext ctx() { return scenario_.context(net_.attackers); }

  Rng rng_;
  Scenario scenario_;
  ExampleNetwork net_;
};

TEST_F(AttackLpTest, NoBandsMaximizesPureDamage) {
  // Without state constraints, the optimum saturates the cap on every
  // attacker-present path (22 of 23).
  AttackContext c = ctx();
  const AttackResult r = solve_attack_lp(c, {}, {});
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.damage, 22 * c.per_path_cap, 1e-6);
  EXPECT_NEAR(r.m[16], 0.0, 1e-12);  // path 17 pinned to zero
}

TEST_F(AttackLpTest, ConstantBandViolationIsInfeasibleImmediately) {
  // A band on a link the attacker cannot influence at all — but since the
  // Fig. 1 attackers influence everything, build the check by demanding the
  // impossible: estimate of link 1 below its (smaller) true value while the
  // attacker may only ADD delay... the LP itself must figure that out.
  AttackContext c = ctx();
  std::vector<LinkBand> bands{{0, -kInf, c.x_true[0] - 5.0}};
  // m ⪰ 0 can only push estimates around, and the pseudo-inverse has
  // negative entries, so this may or may not be feasible a priori; what we
  // assert is internal consistency: if feasible, the band truly holds.
  const AttackResult r =
      complete_attack_result(c, solve_attack_lp(c, bands, {}));
  if (r.success) {
    EXPECT_LE(r.x_estimated[0], c.x_true[0] - 5.0 + 1e-6);
  } else {
    EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
  }
}

TEST_F(AttackLpTest, BandsAreRespectedAtTheOptimum) {
  AttackContext c = ctx();
  std::vector<LinkBand> bands{
      {0, 400.0, 600.0},   // link 1 estimate confined to a window
      {8, -kInf, 150.0},   // link 9 kept low
  };
  const AttackResult r =
      complete_attack_result(c, solve_attack_lp(c, bands, {0}));
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.x_estimated[0], 400.0 - 1e-6);
  EXPECT_LE(r.x_estimated[0], 600.0 + 1e-6);
  EXPECT_LE(r.x_estimated[8], 150.0 + 1e-6);
  EXPECT_EQ(r.victims, (std::vector<LinkId>{0}));
}

TEST_F(AttackLpTest, LpOutcomeLeavesTheObservationSideToCompletion) {
  AttackContext c = ctx();
  std::vector<LinkBand> bands{{0, 400.0, 600.0}};
  const AttackResult lp_only = solve_attack_lp(c, bands, {0});
  ASSERT_TRUE(lp_only.success);
  EXPECT_EQ(lp_only.y_observed.size(), 0u);
  EXPECT_EQ(lp_only.x_estimated.size(), 0u);
  EXPECT_TRUE(lp_only.states.empty());

  const AttackResult done = complete_attack_result(c, lp_only);
  EXPECT_EQ(done.m.data(), lp_only.m.data());
  EXPECT_EQ(done.damage, lp_only.damage);
  EXPECT_EQ(done.y_observed.data(),
            (c.true_measurements() + lp_only.m).data());
  EXPECT_EQ(done.x_estimated.data(),
            c.estimator->estimate(done.y_observed).data());
  EXPECT_EQ(done.states, classify_all(done.x_estimated, c.thresholds));

  // An unsuccessful outcome has nothing to complete.
  const AttackResult failed = complete_attack_result(
      c, solve_consistent_attack_lp(c, {{0, 500.0, 400.0}}, {0}));
  EXPECT_FALSE(failed.success);
  EXPECT_EQ(failed.y_observed.size(), 0u);
}

TEST_F(AttackLpTest, MaxEstimatePushBoundsTheLp) {
  // The relaxation bound must dominate anything the LP achieves.
  AttackContext c = ctx();
  for (LinkId l : {LinkId{0}, LinkId{8}, LinkId{9}}) {
    const double bound = max_estimate_push(c, l);
    std::vector<LinkBand> bands{{l, bound + 1.0, kInf}};
    const AttackResult r = solve_attack_lp(c, bands, {l});
    EXPECT_FALSE(r.success) << "link " << l << " exceeded its push bound";
  }
}

TEST_F(AttackLpTest, MaxEstimatePushIsAchievableWithoutOtherConstraints) {
  // Pushing a single link with no other bands should get exactly to the
  // bound (set every positive-coefficient path to the cap).
  AttackContext c = ctx();
  const LinkId l = 0;
  const double bound = max_estimate_push(c, l);
  std::vector<LinkBand> bands{{l, bound - 1e-6, kInf}};
  const AttackResult r =
      complete_attack_result(c, solve_attack_lp(c, bands, {l}));
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.x_estimated[l], bound, 1e-5);
}

TEST_F(AttackLpTest, ConsistentLpKeepsResidualZero) {
  AttackContext c = ctx();
  std::vector<LinkBand> bands;
  for (LinkId l : c.controlled_links())
    bands.push_back({l, -kInf, c.thresholds.lower - 1.0});
  bands.push_back({0, c.thresholds.upper + 1.0, kInf});
  const AttackResult r =
      complete_attack_result(c, solve_consistent_attack_lp(c, bands, {0}));
  ASSERT_TRUE(r.success);
  const Vector residual =
      r.y_observed - c.estimator->sparse_r() * r.x_estimated;
  EXPECT_LT(residual.norm1(), 1e-5);
  EXPECT_TRUE(satisfies_constraint1(c, r.m));
  for (double mi : r.m) EXPECT_LE(mi, c.per_path_cap + 1e-6);
}

TEST_F(AttackLpTest, ConsistentLpRejectsImpossibleBands) {
  AttackContext c = ctx();
  std::vector<LinkBand> bands{{0, 500.0, 400.0}};  // empty interval
  const AttackResult r = solve_consistent_attack_lp(c, bands, {0});
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST_F(AttackLpTest, EmptyAttackerSetOnlySatisfiesTrivialBands) {
  AttackContext c = scenario_.context({});
  // Trivial band already satisfied by the truth → success with zero damage.
  std::vector<LinkBand> ok{{0, -kInf, c.thresholds.lower - 1.0}};
  const AttackResult r_ok = solve_attack_lp(c, ok, {});
  ASSERT_TRUE(r_ok.success);
  EXPECT_NEAR(r_ok.damage, 0.0, 1e-9);
  // Unsatisfiable band → infeasible.
  std::vector<LinkBand> bad{{0, c.thresholds.upper + 1.0, kInf}};
  EXPECT_FALSE(solve_attack_lp(c, bad, {}).success);
}

TEST_F(AttackLpTest, OutOfRangeBandIsRefusedWithoutSolving) {
  // A band naming a link past the end of R has no row in G = R⁺ and no
  // true metric: both LPs refuse it as infeasible before building a model.
  AttackContext c = ctx();
  const LinkId past_end = c.estimator->num_links();
  const std::vector<LinkBand> bands{{0, -kInf, kInf},
                                    {past_end, -kInf, kInf}};
  obs::MetricsRegistry reg;
  AttackResult plain, consistent;
  {
    obs::ScopedInstrumentation scope(reg);
    plain = solve_attack_lp(c, bands, {past_end});
    consistent = solve_consistent_attack_lp(c, bands, {past_end});
  }
  EXPECT_FALSE(plain.success);
  EXPECT_EQ(plain.status, lp::SolveStatus::kInfeasible);
  EXPECT_FALSE(consistent.success);
  EXPECT_EQ(consistent.status, lp::SolveStatus::kInfeasible);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("lp.simplex.solves"), 0u);
}

}  // namespace
}  // namespace scapegoat
