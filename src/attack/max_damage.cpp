#include "attack/max_damage.hpp"

#include <algorithm>

#include "attack/attack_lp.hpp"
#include "attack/chosen_victim.hpp"

namespace scapegoat {

MaxDamageResult max_damage_attack(const AttackContext& ctx,
                                  const MaxDamageOptions& opt) {
  MaxDamageResult out;
  // Candidate victims: non-attacker links the attacker can conceivably push
  // past the abnormal threshold (LP relaxation bound).
  std::vector<LinkId> candidates;
  for (LinkId l : victim_pool(ctx, opt.candidate_victims)) {
    if (max_estimate_push(ctx, l) <= ctx.thresholds.upper + ctx.margin)
      continue;
    candidates.push_back(l);
    if (candidates.size() >= opt.max_candidates) break;
  }

  // Single-victim LPs. Every LP below returns its outcome only; the one
  // result returned is completed once, at the end.
  std::vector<std::pair<LinkId, AttackResult>> feasible;
  for (LinkId v : candidates) {
    AttackResult r =
        solve_chosen_victim_lp(ctx, {v}, opt.mode, opt.collateral);
    if (r.success) feasible.emplace_back(v, std::move(r));
  }
  std::sort(feasible.begin(), feasible.end(),
            [](const auto& a, const auto& b) {
              return a.second.damage > b.second.damage;
            });
  for (const auto& [v, r] : feasible)
    out.single_victim_damages.emplace_back(v, r.damage);
  if (feasible.empty()) return out;

  out.best = std::move(feasible.front().second);

  // Greedy victim-set growth: adding a victim adds an abnormality constraint
  // (never relaxes the LP), but can still *increase* optimal damage when the
  // paths that scapegoat it admit more manipulation than the single-victim
  // optimum used. Keep additions that stay feasible and improve damage.
  std::vector<LinkId> current = {feasible.front().first};
  for (std::size_t k = 1;
       k < feasible.size() && current.size() < opt.max_victims;
       ++k) {
    std::vector<LinkId> trial = current;
    trial.push_back(feasible[k].first);
    AttackResult r =
        solve_chosen_victim_lp(ctx, trial, opt.mode, opt.collateral);
    if (r.success && r.damage >= out.best.damage) {
      out.best = std::move(r);
      current = std::move(trial);
    }
  }
  out.best = complete_attack_result(ctx, std::move(out.best));
  return out;
}

}  // namespace scapegoat
