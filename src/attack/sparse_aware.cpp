#include "attack/sparse_aware.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <ostream>

#include "attack/attack_lp.hpp"
#include "lp/model.hpp"
#include "obs/obs.hpp"

namespace scapegoat {

std::string to_string(LeakageScope scope) {
  switch (scope) {
    case LeakageScope::kAttackerPaths:
      return "attacker_paths";
    case LeakageScope::kAllPaths:
      return "all_paths";
  }
  return "unknown";
}

std::optional<LeakageScope> leakage_scope_from_string(std::string_view s) {
  if (s == "attacker_paths") return LeakageScope::kAttackerPaths;
  if (s == "all_paths") return LeakageScope::kAllPaths;
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, LeakageScope scope) {
  return os << to_string(scope);
}

AttackResult sparse_aware_attack(const AttackContext& ctx,
                                 const std::vector<LinkId>& victims,
                                 const SparseAwareOptions& opt) {
  AttackResult result;
  result.victims = victims;

  const std::vector<LinkId>& lm = ctx.controlled_links();
  // Eq. (7): L_m ∩ L_s = ∅ — a link can't be both hidden and scapegoated.
  for (LinkId v : victims) {
    if (std::find(lm.begin(), lm.end(), v) != lm.end()) {
      result.status = lp::SolveStatus::kInfeasible;
      return result;
    }
  }

  obs::count("attack.sparse_aware.solves");
  const double eps = std::max(0.0, opt.epsilon_ms);
  const std::size_t num_paths = ctx.estimator->num_paths();

  // Δx̂ variables, one per banded link. Boxes are the link-state bands
  // shifted by the true metric, intersected with x̂′ ⪰ 0 (a target the
  // defender's nonnegative LP could never adopt is useless).
  lp::Model model(lp::Sense::kMaximize);
  std::vector<LinkId> banded_links;
  auto add_delta = [&](LinkId link, double lower, double upper) -> bool {
    const double base = ctx.x_true[link];
    const double lb = std::max(lower - base, -base);
    const double ub = upper - base;
    if (lb > ub) return false;
    model.add_variable(lb, ub, 0.0);
    banded_links.push_back(link);
    return true;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (LinkId l : lm) {
    // Eq. (5): attacker links classify normal.
    if (!add_delta(l, 0.0, ctx.thresholds.lower - ctx.margin)) {
      result.status = lp::SolveStatus::kInfeasible;
      return result;
    }
  }
  for (LinkId v : victims) {
    // Eq. (6): victims classify abnormal.
    if (!add_delta(v, ctx.thresholds.upper + ctx.margin, kInf)) {
      result.status = lp::SolveStatus::kInfeasible;
      return result;
    }
  }

  // One m variable per attacker path, the damage objective.
  std::vector<bool> has_attacker(num_paths, false);
  for (std::size_t i : ctx.attacker_path_indices()) has_attacker[i] = true;
  std::vector<std::size_t> m_var(num_paths, SIZE_MAX);
  for (std::size_t i = 0; i < num_paths; ++i)
    if (has_attacker[i])
      m_var[i] = model.add_variable(0.0, ctx.per_path_cap, 1.0);

  std::vector<std::vector<lp::Term>> rows =
      restricted_rows(ctx.estimator->sparse_r(), banded_links);
  for (std::size_t i = 0; i < num_paths; ++i) {
    std::vector<lp::Term> terms = std::move(rows[i]);
    double row_eps = eps;
    if (has_attacker[i]) {
      // |(RΔx̂)ᵢ − mᵢ| ≤ ε.
      terms.push_back({m_var[i], -1.0});
    } else {
      if (terms.empty()) continue;  // (RΔx̂)ᵢ ≡ 0: inside any budget
      if (opt.scope != LeakageScope::kAllPaths) row_eps = 0.0;
    }
    model.add_constraint(std::move(terms), -row_eps, row_eps);
  }

  const lp::Solution sol = lp::solve(model);
  result.status = sol.status;
  if (!sol.optimal()) {
    obs::count("attack.sparse_aware.infeasible");
    return result;
  }

  result.m = Vector(num_paths);
  for (std::size_t i = 0; i < num_paths; ++i)
    if (m_var[i] != SIZE_MAX) result.m[i] = std::max(0.0, sol.x[m_var[i]]);
  result.damage = result.m.norm1();
  result.success = true;
  obs::count("attack.sparse_aware.successes");
  // The defender the context carries answers — least squares or sparse
  // recovery, whichever the scenario deployed.
  return complete_attack_result(ctx, std::move(result));
}

}  // namespace scapegoat
