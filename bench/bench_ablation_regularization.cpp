// Ablation: Tikhonov regularization as a scapegoating countermeasure.
//
// The operator estimates with (RᵀR + λI)⁻¹(Rᵀy + λ·prior) instead of Eq. 2.
// Attacks are computed against the plain estimator (the attacker doesn't
// know λ); the sweep reports, per λ: how often the attack still *lands*
// (victim reads abnormal AND all attacker links normal under the
// regularized read-out) and the honest-case estimation bias the operator
// pays. Prior = the midpoint of the routine-delay range (10.5 ms).
//
//   ./bench_ablation_regularization [trials_per_setting]

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "core/scapegoat.hpp"
#include "linalg/least_squares.hpp"

int main(int argc, char** argv) {
  using namespace scapegoat;
  const std::size_t trials =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 80;

  Rng rng(97);
  auto sc = make_scenario(TopologyKind::kWireline, rng);
  if (!sc) {
    std::cout << "scenario failed\n";
    return 1;
  }
  const StateThresholds t = sc->config().thresholds;

  std::cout << "Ablation — Tikhonov regularization vs scapegoating "
               "(wireline, prior = 10.5 ms)\n"
               "naive attacker: targets x̂_victim ≥ 801 ms exactly; "
               "overshooting attacker: ≥ 1400 ms\n\n";
  Table table({"lambda", "naive_lands", "overshoot_lands",
               "honest_max_err_ms", "victim_estimate_drop_ms"});
  for (double lambda : {0.0, 0.5, 2.0, 8.0, 32.0, 128.0}) {
    const RidgeSolver reg(sc->estimator().sparse_r().to_dense(), lambda,
                          Vector(sc->graph().num_links(), 10.5));
    if (!reg.ok()) continue;

    std::size_t naive_lands = 0, overshoot_lands = 0, attacks = 0;
    std::vector<double> honest_errs, drops;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      sc->resample_metrics(rng);
      honest_errs.push_back(
          (reg.solve(sc->clean_measurements()) - sc->x_true())
              .norm_inf());

      const auto att =
          rng.sample_without_replacement(sc->graph().num_nodes(), 3);
      AttackContext ctx =
          sc->context(std::vector<NodeId>(att.begin(), att.end()));
      const auto lm = ctx.controlled_links();
      const LinkId victim = rng.index(sc->graph().num_links());
      if (std::find(lm.begin(), lm.end(), victim) != lm.end()) continue;

      const AttackResult naive = chosen_victim_attack(ctx, {victim});
      AttackContext hard = ctx;
      // Demand x̂_victim ≥ 1400 ms (raising `upper` tightens only the
      // victim's abnormality constraint, not the attackers' normality one).
      hard.thresholds.upper = t.upper + 600.0;
      const AttackResult overshoot = chosen_victim_attack(hard, {victim});
      if (!naive.success) continue;
      ++attacks;

      auto lands = [&](const AttackResult& r) {
        if (!r.success) return false;
        const Vector x_reg = reg.solve(r.y_observed);
        bool ok = classify(x_reg[victim], t) == LinkState::kAbnormal;
        for (LinkId l : lm)
          ok = ok && classify(x_reg[l], t) == LinkState::kNormal;
        return ok;
      };
      if (lands(naive)) ++naive_lands;
      if (lands(overshoot)) ++overshoot_lands;
      drops.push_back(naive.x_estimated[victim] -
                      reg.solve(naive.y_observed)[victim]);
    }
    table.add_row({Table::num(lambda, 1),
                   Table::num(ratio(naive_lands, attacks), 3),
                   Table::num(ratio(overshoot_lands, attacks), 3),
                   Table::num(summarize(honest_errs).mean),
                   Table::num(summarize(drops).mean)});
  }
  table.print(std::cout);
  std::cout << "\nEven tiny λ wrecks attacks tailored to the plain Eq. 2 "
               "read-out: the damage-\nmaximizing manipulation is brittle "
               "under estimator mismatch, and shrinkage\ncosts the operator "
               "only a few ms of honest bias. An attacker who KNOWS λ can\n"
               "re-tailor the LP against (RᵀR+λI)⁻¹Rᵀ, so this is a "
               "raise-the-bar defense, not\na proof of security.\n";
  return 0;
}
