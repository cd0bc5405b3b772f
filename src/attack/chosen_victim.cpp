#include "attack/chosen_victim.hpp"

#include <algorithm>
#include <limits>

#include "attack/attack_lp.hpp"

namespace scapegoat {

AttackResult solve_chosen_victim_lp(const AttackContext& ctx,
                                    const std::vector<LinkId>& victims,
                                    ManipulationMode mode,
                                    CollateralPolicy collateral) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<LinkId>& lm = ctx.controlled_links();

  // Eq. (7): L_m ∩ L_s = ∅ — a link can't be both hidden and scapegoated.
  // A victim id that names no link can't be scapegoated either.
  for (LinkId v : victims) {
    if (v >= ctx.estimator->num_links() ||
        std::find(lm.begin(), lm.end(), v) != lm.end()) {
      AttackResult r;
      r.victims = victims;
      r.status = lp::SolveStatus::kInfeasible;
      return r;
    }
  }

  std::vector<LinkBand> bands;
  // Eq. (5): attacker links must classify normal, x̂ < b_l.
  for (LinkId l : lm)
    bands.push_back({l, -kInf, ctx.thresholds.lower - ctx.margin});
  // Eq. (6): victim links must classify abnormal, x̂ > b_u.
  for (LinkId v : victims)
    bands.push_back({v, ctx.thresholds.upper + ctx.margin, kInf});

  // Bystander bounds: only the victims should stand out. The consistent
  // construction never moves a bystander's estimate, so the policy is
  // implicit there; adding the bands would instead grant it extra
  // manipulation freedom, so we only emit them in unrestricted mode.
  if (mode == ManipulationMode::kUnrestricted &&
      collateral != CollateralPolicy::kUnconstrained) {
    const double cap = collateral == CollateralPolicy::kAvoidAbnormal
                           ? ctx.thresholds.upper - ctx.margin
                           : ctx.thresholds.lower - ctx.margin;
    std::vector<bool> banded(ctx.estimator->num_links(), false);
    for (const LinkBand& b : bands) banded[b.link] = true;
    for (LinkId l = 0; l < ctx.estimator->num_links(); ++l)
      if (!banded[l]) bands.push_back({l, -kInf, cap});
  }

  return mode == ManipulationMode::kConsistent
             ? solve_consistent_attack_lp(ctx, bands, victims)
             : solve_attack_lp(ctx, bands, victims);
}

AttackResult chosen_victim_attack(const AttackContext& ctx,
                                  const std::vector<LinkId>& victims,
                                  ManipulationMode mode,
                                  CollateralPolicy collateral) {
  return complete_attack_result(
      ctx, solve_chosen_victim_lp(ctx, victims, mode, collateral));
}

}  // namespace scapegoat
