#include "attack/obfuscation.hpp"

#include <algorithm>
#include <cmath>

#include "attack/attack_lp.hpp"

namespace scapegoat {

namespace {

// Total upward influence the attacker has on a link's estimate — the shrink
// order: links it can barely move are the ones that make the band
// constraints infeasible.
double upward_influence(const AttackContext& ctx, LinkId link) {
  const Matrix& g = ctx.estimator->pseudo_inverse();
  double acc = 0.0;
  for (std::size_t i : ctx.attacker_path_indices()) {
    const double c = g(link, i);
    if (c > 0.0) acc += c;
  }
  return acc;
}

}  // namespace

AttackResult obfuscation_attack(const AttackContext& ctx,
                                const ObfuscationOptions& opt) {
  // Initial L_s: every non-attacker link the relaxation says can reach the
  // uncertain band, ordered by decreasing upward influence so the shrink
  // removes the weakest candidates first.
  std::vector<LinkId> victims;
  std::vector<double> influence(ctx.estimator->num_links(), 0.0);
  for (LinkId l : victim_pool(ctx, opt.candidate_victims)) {
    if (max_estimate_push(ctx, l) < ctx.thresholds.lower + ctx.margin)
      continue;
    victims.push_back(l);
    influence[l] = upward_influence(ctx, l);
  }
  std::sort(victims.begin(), victims.end(), [&](LinkId a, LinkId b) {
    return influence[a] > influence[b];
  });
  if (victims.size() > opt.max_victims) victims.resize(opt.max_victims);

  // Eq. (10): every link of L_o = L_s ∪ L_m lands in [b_l, b_u]. The LP for
  // the prefix of k victims bands L_m and victims[0, k).
  const std::vector<LinkId>& lm = ctx.controlled_links();
  const double lower = ctx.thresholds.lower + ctx.margin;
  const double upper = ctx.thresholds.upper - ctx.margin;
  std::vector<LinkBand> bands;
  for (LinkId l : lm) bands.push_back({l, lower, upper});
  for (LinkId v : victims) bands.push_back({v, lower, upper});
  const bool consistent = opt.mode == ManipulationMode::kConsistent;
  auto solve_prefix = [&](std::size_t k) {
    const std::vector<LinkBand> prefix(bands.begin(),
                                       bands.begin() + lm.size() + k);
    std::vector<LinkId> prefix_victims(victims.begin(), victims.begin() + k);
    return consistent
               ? solve_consistent_attack_lp(ctx, prefix,
                                            std::move(prefix_victims))
               : solve_attack_lp(ctx, prefix, std::move(prefix_victims));
  };

  // The answer is the longest feasible prefix of at least min_victims
  // victims (0 counts as 1: an obfuscation hides at least one link). Both
  // probe orders solve the full prefix first and keep the same [lo, hi]
  // bracket: a feasible probe raises lo past it, an infeasible one lowers hi
  // below it.
  //   kUnrestricted: a victim adds band rows over the same m variables, so
  //   dropping it removes constraints. Feasibility is monotone in the prefix
  //   length and the length is bisected. This returns the prefix the
  //   longest-first scan returns as long as the solver's verdicts are
  //   monotone too, as they are in exact arithmetic; the
  //   attack_obfuscation_bisection_matches_descending_scan property checks
  //   it against the scan.
  //   kConsistent: a victim adds a variable Δx̂_v and dropping it pins
  //   Δx̂_v = 0, which is not a relaxation in general, so prefixes are
  //   probed longest first.
  std::size_t lo = std::max<std::size_t>(opt.min_victims, 1);
  std::size_t hi = victims.size();
  AttackResult best;  // kInfeasible until a probe succeeds
  for (bool first = true; lo <= hi; first = false) {
    const std::size_t k = first || consistent ? hi : lo + (hi - lo) / 2;
    AttackResult r = solve_prefix(k);
    if (r.success) {
      best = std::move(r);
      lo = k + 1;
    } else {
      hi = k - 1;  // k ≥ lo ≥ 1
    }
  }
  return complete_attack_result(ctx, std::move(best));
}

}  // namespace scapegoat
