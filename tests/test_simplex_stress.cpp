// Randomized stress battery for the simplex: mixed row senses, shifted and
// negative bounds, free variables — each optimum cross-checked by Monte
// Carlo feasible sampling (no sampled feasible point may beat the reported
// optimum) and by exact feasibility of the returned solution — plus a
// pinned hash of the tableau's exact output over a fixed model set, on
// which the post-solve residual check must never fire.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "attack/attack_lp.hpp"
#include "core/scenario.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "robust/checkpoint.hpp"
#include "testkit/gen.hpp"
#include "testkit/source.hpp"
#include "topology/example_networks.hpp"
#include "util/random.hpp"

namespace scapegoat::lp {
namespace {

// Random LP with box-bounded variables and mixed ≤ / ≥ / = rows anchored on
// a known feasible point so feasibility is guaranteed by construction.
struct AnchoredLp {
  Model model{Sense::kMaximize};
  std::vector<double> anchor;
};

AnchoredLp make_anchored_lp(Rng& rng) {
  AnchoredLp out;
  const std::size_t n = 2 + rng.index(4);
  out.anchor.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = rng.uniform(-4.0, 1.0);
    const double hi = lo + rng.uniform(0.5, 5.0);
    out.anchor[j] = rng.uniform(lo, hi);
    out.model.add_variable(lo, hi, rng.uniform(-2.0, 2.0));
  }
  const std::size_t rows = 1 + rng.index(4);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    double at_anchor = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double c = rng.uniform(-1.5, 1.5);
      if (std::abs(c) < 0.1) continue;
      terms.push_back({j, c});
      at_anchor += c * out.anchor[j];
    }
    if (terms.empty()) continue;
    // Pick a sense and an rhs that keeps the anchor feasible.
    switch (rng.uniform_int(0, 2)) {
      case 0:
        out.model.add_constraint(std::move(terms), -kInfinity,
                                 at_anchor + rng.uniform(0.0, 2.0));
        break;
      case 1:
        out.model.add_constraint(std::move(terms),
                                 at_anchor - rng.uniform(0.0, 2.0), kInfinity);
        break;
      default:
        out.model.add_constraint(std::move(terms), at_anchor, at_anchor);
        break;
    }
  }
  return out;
}

class SimplexStress : public ::testing::TestWithParam<int> {};

TEST_P(SimplexStress, AnchoredProblemsSolveToVerifiedOptima) {
  Rng rng(static_cast<std::uint64_t>(9000 + GetParam()));
  for (int instance = 0; instance < 10; ++instance) {
    AnchoredLp lp = make_anchored_lp(rng);
    ASSERT_LE(lp.model.max_violation(lp.anchor), 1e-9);

    const Solution s = solve(lp.model);
    ASSERT_EQ(s.status, SolveStatus::kOptimal)
        << "anchored LP must be feasible";
    EXPECT_LE(lp.model.max_violation(s.x), 1e-6);
    EXPECT_NEAR(lp.model.objective_value(s.x), s.objective, 1e-7);
    // The anchor is feasible, so the optimum must be at least as good.
    EXPECT_GE(s.objective + 1e-7, lp.model.objective_value(lp.anchor));

    // Monte Carlo: random feasible perturbations of the anchor can't beat
    // the optimum.
    const std::size_t n = lp.model.num_variables();
    std::vector<double> x(n);
    for (int sample = 0; sample < 200; ++sample) {
      for (std::size_t j = 0; j < n; ++j) {
        const Variable& v = lp.model.variable(j);
        x[j] = std::clamp(lp.anchor[j] + rng.uniform(-1.0, 1.0), v.lower,
                          v.upper);
      }
      if (lp.model.max_violation(x) > 1e-9) continue;
      EXPECT_LE(lp.model.objective_value(x), s.objective + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexStress, ::testing::Range(0, 12));

TEST(SimplexStress, LargeAttackShapedProblem) {
  // 300 variables, 120 dense rows — comfortably larger than any LP the
  // experiments produce; must stay optimal and feasible.
  Rng rng(424242);
  Model m(Sense::kMaximize);
  const std::size_t vars = 300, rows = 120;
  for (std::size_t j = 0; j < vars; ++j) m.add_variable(0.0, 2000.0, 1.0);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < vars; ++j) {
      const double c = rng.uniform(-0.1, 0.3);
      if (std::abs(c) > 0.03) terms.push_back({j, c});
    }
    m.add_constraint(std::move(terms), -kInfinity,
                     rng.uniform(100.0, 2000.0));
  }
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-5);
  EXPECT_GT(s.objective, 0.0);
}

TEST(SimplexStress, EqualityChainSystem) {
  // x1 = 1, x_{k+1} - x_k = 1 → x_k = k; maximize -x_n picks the forced
  // solution; any objective gives the same point (unique feasible).
  Model m(Sense::kMaximize);
  const std::size_t n = 20;
  for (std::size_t j = 0; j < n; ++j)
    m.add_variable(0.0, kInfinity, j + 1 == n ? -1.0 : 0.0);
  m.add_constraint({{0, 1.0}}, 1.0, 1.0);
  for (std::size_t j = 0; j + 1 < n; ++j)
    m.add_constraint({{j + 1, 1.0}, {j, -1.0}}, 1.0, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(s.x[j], static_cast<double>(j + 1), 1e-7);
}

TEST(SimplexStress, RedundantRowsDoNotConfusePhase1) {
  // The same equality three times: phase 1 must drive out artificials on
  // the redundant copies (or zero the rows) and still succeed.
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0.0, kInfinity, 1.0);
  auto y = m.add_variable(0.0, kInfinity, 1.0);
  for (int rep = 0; rep < 3; ++rep)
    m.add_constraint({{x, 1.0}, {y, 1.0}}, 4.0, 4.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-8);
}

// ---- Pinned tableau output -----------------------------------------------
//
// Everything solve returns — status, pivot count, exit basis and the
// bits of x and the objective — hashed over a fixed set of models. A change
// to the tableau's data layout must keep this value: same pivots in the same
// order give the same bits. Only the sign of a zero is outside the contract
// (no comparison, ratio or max(0, ·) can see it), so -0 is folded to +0.

void mix_solution(robust::ConfigHasher& h, const Solution& s) {
  const auto mix_value = [&h](double v) { h.mix(v == 0.0 ? 0.0 : v); };
  h.mix(static_cast<std::uint64_t>(s.status));
  h.mix(static_cast<std::uint64_t>(s.iterations));
  h.mix(static_cast<std::uint64_t>(s.basis.size()));
  for (std::size_t b : s.basis) h.mix(static_cast<std::uint64_t>(b));
  h.mix(static_cast<std::uint64_t>(s.x.size()));
  for (double v : s.x) mix_value(v);
  mix_value(s.objective);
}

// Degenerate LP: every row passes through the origin, so Dantzig pivots in
// place until the stall counter trips the switch to Bland.
Model degenerate_lp(std::uint64_t seed, std::size_t n, std::size_t rows) {
  Rng rng(seed);
  Model m(Sense::kMaximize);
  for (std::size_t j = 0; j < n; ++j)
    m.add_variable(0.0, 1.0, rng.uniform(0.1, 1.0));
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < n; ++j) {
      const int c = rng.uniform_int(-2, 2);
      if (c != 0) terms.push_back({j, static_cast<double>(c)});
    }
    if (!terms.empty())
      m.add_constraint(std::move(terms), -kInfinity, 0.0);
  }
  return m;
}

// The attack LPs solve_attack_lp and solve_consistent_attack_lp build for a
// chosen-victim attack on each link of the Fig. 1 scenario: attacker links
// kept normal, the victim pushed abnormal, bystanders kept below abnormal.
// A band is written here as one-sided rows (a path's 0 ≤ mᵢ ≤ cap as two),
// so the pinned hash covers one-sided and equality rows only.
std::vector<Model> fig1_attack_lps() {
  Rng rng(121);
  const Scenario scenario = Scenario::fig1(rng);
  const AttackContext ctx = scenario.context(fig1_network().attackers);
  const std::vector<std::size_t> support = ctx.attacker_path_indices();
  const Matrix& g = ctx.estimator->pseudo_inverse();
  const SparseMatrix& r = ctx.estimator->sparse_r();
  const std::size_t num_links = ctx.x_true.size();
  const std::vector<LinkId> controlled = ctx.controlled_links();
  std::vector<bool> has_attacker(ctx.estimator->num_paths(), false);
  for (std::size_t i : support) has_attacker[i] = true;

  std::vector<Model> models;
  for (LinkId victim = 0; victim < num_links; ++victim) {
    std::vector<LinkBand> bands;
    for (LinkId l : controlled)
      bands.push_back({l, -kInfinity, ctx.thresholds.lower - ctx.margin});
    bands.push_back({victim, ctx.thresholds.upper + ctx.margin, kInfinity});
    for (LinkId l = 0; l < num_links; ++l) {
      if (l == victim ||
          std::find(controlled.begin(), controlled.end(), l) !=
              controlled.end())
        continue;
      bands.push_back({l, -kInfinity, ctx.thresholds.upper - ctx.margin});
    }

    Model unrestricted(Sense::kMaximize);
    for (std::size_t k = 0; k < support.size(); ++k)
      unrestricted.add_variable(0.0, ctx.per_path_cap, 1.0);
    Model consistent(Sense::kMaximize);
    const Vector colsum =
        r.multiply_transpose(Vector(ctx.estimator->num_paths(), 1.0));
    std::vector<LinkId> banded;
    for (const LinkBand& band : bands) {
      const double base = ctx.x_true[band.link];
      std::vector<Term> terms;
      for (std::size_t k = 0; k < support.size(); ++k) {
        const double coeff = g(band.link, support[k]);
        if (std::abs(coeff) > 1e-11) terms.push_back({k, coeff});
      }
      if (!terms.empty()) {
        if (std::isfinite(band.upper))
          unrestricted.add_constraint(terms, -kInfinity,
                                      band.upper - base);
        if (std::isfinite(band.lower))
          unrestricted.add_constraint(std::move(terms),
                                      band.lower - base,
                                      kInfinity);
      }
      consistent.add_variable(
          std::isfinite(band.lower) ? band.lower - base : -kInfinity,
          std::isfinite(band.upper) ? band.upper - base : kInfinity,
          colsum[band.link]);
      banded.push_back(band.link);
    }
    const auto rows = restricted_rows(r, banded);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].empty()) continue;
      if (!has_attacker[i]) {
        consistent.add_constraint(rows[i], 0.0, 0.0);
      } else {
        consistent.add_constraint(rows[i], 0.0, kInfinity);
        consistent.add_constraint(rows[i], -kInfinity,
                                  ctx.per_path_cap);
      }
    }
    models.push_back(std::move(unrestricted));
    models.push_back(std::move(consistent));
  }
  return models;
}

// The pinned model set: generated LPs, two degenerate ones and the Fig. 1
// attack LPs.
std::vector<Model> pinned_models() {
  std::vector<Model> models;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    testkit::Source src(seed);
    models.push_back(testkit::gen_lp_model(src));
  }
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    testkit::Source src(1000 + seed);
    models.push_back(
        testkit::gen_lp_model(src, {.max_vars = 14, .max_constraints = 12}));
  }
  models.push_back(degenerate_lp(220, 40, 80));
  models.push_back(degenerate_lp(7, 50, 100));
  for (Model& m : fig1_attack_lps()) models.push_back(std::move(m));
  return models;
}

TEST(SimplexPinned, TableauSolutionsHashToPinnedValue) {
  const std::vector<Model> models = pinned_models();
  robust::ConfigHasher hash;
  std::size_t by_status[5] = {};
  obs::MetricsRegistry registry;
  {
    obs::ScopedInstrumentation inst(registry);
    for (const Model& m : models) {
      const Solution s = solve(m);
      ++by_status[static_cast<std::size_t>(s.status)];
      mix_solution(hash, s);
      // The pivot-budget certificate: where a starved solve stops.
      SimplexOptions starved;
      starved.max_iterations = 3;
      mix_solution(hash, solve(m, starved));
    }
  }
  std::uint64_t bland_switches = 0, phase_transitions = 0;
  for (const obs::CounterSample& c : registry.snapshot().counters) {
    if (c.name == "lp.simplex.bland_switches") bland_switches = c.value;
    if (c.name == "lp.simplex.phase_transitions") phase_transitions = c.value;
  }

  // The set reaches every path the pinned value is meant to cover.
  EXPECT_GT(by_status[static_cast<std::size_t>(SolveStatus::kOptimal)], 0u);
  EXPECT_GT(by_status[static_cast<std::size_t>(SolveStatus::kInfeasible)],
            0u);
  EXPECT_GT(bland_switches, 0u);
  EXPECT_GT(phase_transitions, 0u);
  EXPECT_EQ(robust::encode_u64_hex(hash.hash()), "a778880b71aaecde");
}

// The post-solve residual check never has to refuse an optimal point of the
// pinned set, the Fig. 1 attack LPs included, while the set does exercise
// the bound flips.
TEST(SimplexPinned, NoOptimalPointIsRefusedByTheResidualCheck) {
  const std::vector<Model> models = pinned_models();
  obs::MetricsRegistry registry;
  std::size_t optimal = 0;
  {
    obs::ScopedInstrumentation inst(registry);
    for (const Model& m : models) {
      const Solution s = solve(m);
      if (!s.optimal()) continue;
      ++optimal;
      EXPECT_LE(m.max_violation(s.x), kFeasTol);
    }
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(optimal, 0u);
  EXPECT_EQ(snap.counter_value("lp.simplex.residual_refusals"), 0u);
  EXPECT_GT(snap.counter_value("lp.simplex.bound_flips"), 0u);
}

}  // namespace
}  // namespace scapegoat::lp
