#include "attack/obfuscation.hpp"

#include <algorithm>
#include <cmath>

#include "attack/attack_lp.hpp"

namespace scapegoat {

namespace {

// Total upward influence the attacker has on a link's estimate — the greedy
// drop order: links it can barely move are the ones that make the band
// constraints infeasible.
double upward_influence(const AttackContext& ctx, LinkId link,
                        const std::vector<std::size_t>& support) {
  const Matrix& g = ctx.estimator->pseudo_inverse();
  double acc = 0.0;
  for (std::size_t i : support) {
    const double c = g(link, i);
    if (c > 0.0) acc += c;
  }
  return acc;
}

}  // namespace

AttackResult obfuscation_attack(const AttackContext& ctx,
                                const ObfuscationOptions& opt) {
  const std::vector<LinkId> lm = ctx.controlled_links();
  auto is_controlled = [&](LinkId l) {
    return std::find(lm.begin(), lm.end(), l) != lm.end();
  };

  // Initial L_s: every non-attacker link the relaxation says can reach the
  // uncertain band, ordered by decreasing upward influence so the greedy
  // shrink removes the weakest candidates first.
  std::vector<LinkId> pool;
  if (opt.candidate_victims) {
    pool = *opt.candidate_victims;
  } else {
    pool.resize(ctx.estimator->num_links());
    for (LinkId l = 0; l < pool.size(); ++l) pool[l] = l;
  }
  const std::vector<std::size_t> support = ctx.attacker_path_indices();
  std::vector<LinkId> victims;
  std::vector<double> influence(ctx.estimator->num_links(), 0.0);
  for (LinkId l : pool) {
    if (is_controlled(l)) continue;
    if (max_estimate_push(ctx, l, support) < ctx.thresholds.lower + ctx.margin)
      continue;
    victims.push_back(l);
    influence[l] = upward_influence(ctx, l, support);
  }
  std::sort(victims.begin(), victims.end(), [&](LinkId a, LinkId b) {
    return influence[a] > influence[b];
  });
  if (victims.size() > opt.max_victims) victims.resize(opt.max_victims);

  // Greedy shrink until feasible or too small to count as obfuscation. A
  // min_victims of 0 counts as 1: an obfuscation hides at least one link.
  const std::size_t min_victims = std::max<std::size_t>(opt.min_victims, 1);
  while (victims.size() >= min_victims) {
    std::vector<LinkBand> bands;
    // Eq. (10): every link of L_o = L_s ∪ L_m lands in [b_l, b_u].
    for (LinkId l : lm)
      bands.push_back({l, ctx.thresholds.lower + ctx.margin,
                       ctx.thresholds.upper - ctx.margin});
    for (LinkId v : victims)
      bands.push_back({v, ctx.thresholds.lower + ctx.margin,
                       ctx.thresholds.upper - ctx.margin});

    AttackResult r = opt.mode == ManipulationMode::kConsistent
                         ? solve_consistent_attack_lp(ctx, bands, victims)
                         : solve_attack_lp(ctx, bands, victims);
    if (r.success) return r;
    victims.pop_back();  // drop the least-influenceable candidate
  }

  AttackResult fail;
  fail.status = lp::SolveStatus::kInfeasible;
  return fail;
}

}  // namespace scapegoat
