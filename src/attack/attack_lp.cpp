#include "attack/attack_lp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "lp/model.hpp"

namespace scapegoat {

namespace {
constexpr double kCoeffTol = 1e-11;  // |G| entries below this are zero
}

AttackResult solve_attack_lp(const AttackContext& ctx,
                             const std::vector<LinkBand>& bands,
                             std::vector<LinkId> victims) {
  assert(ctx.estimator->ok());
  AttackResult result;
  result.victims = std::move(victims);

  const std::vector<std::size_t>& support = ctx.attacker_path_indices();
  const Matrix& g = ctx.estimator->pseudo_inverse();
  const std::size_t num_paths = ctx.estimator->num_paths();
  const std::size_t num_links = std::min(g.rows(), ctx.x_true.size());

  lp::Model model(lp::Sense::kMaximize);
  for (std::size_t k = 0; k < support.size(); ++k)
    model.add_variable(0.0, ctx.per_path_cap, 1.0);

  for (const LinkBand& band : bands) {
    if (band.link >= num_links) return result;  // kInfeasible, unsolved
    // A band open at both ends constrains nothing.
    if (band.lower == -lp::kInfinity && band.upper == lp::kInfinity) continue;
    const double base = ctx.x_true[band.link];
    std::vector<lp::Term> terms;
    for (std::size_t k = 0; k < support.size(); ++k) {
      const double coeff = g(band.link, support[k]);
      if (std::abs(coeff) > kCoeffTol) terms.push_back({k, coeff});
    }
    if (terms.empty()) {
      // The attacker cannot move this link's estimate at all: the band is a
      // pure constant check on the true metric.
      if (base < band.lower - 1e-9 || base > band.upper + 1e-9) {
        result.status = lp::SolveStatus::kInfeasible;
        return result;
      }
      continue;
    }
    // An infinite end stays infinite after the shift.
    model.add_constraint(std::move(terms), band.lower - base,
                         band.upper - base);
  }

  const lp::Solution sol = lp::solve(model);
  result.status = sol.status;
  if (!sol.optimal()) return result;

  result.m = Vector(num_paths);
  for (std::size_t k = 0; k < support.size(); ++k)
    result.m[support[k]] = std::max(0.0, sol.x[k]);
  result.damage = result.m.norm1();
  result.success = true;
  return result;
}

AttackResult solve_consistent_attack_lp(const AttackContext& ctx,
                                        const std::vector<LinkBand>& bands,
                                        std::vector<LinkId> victims) {
  assert(ctx.estimator->ok());
  AttackResult result;
  result.victims = std::move(victims);

  const SparseMatrix& r = ctx.estimator->sparse_r();
  const std::size_t num_paths = ctx.estimator->num_paths();
  // Objective: Σᵢ (RΔx̂)ᵢ = Σⱼ (column-sum of R over paths) Δx̂ⱼ. The sums
  // count paths, so they are exact in any order.
  const Vector colsum = r.multiply_transpose(Vector(num_paths, 1.0));
  const std::size_t num_links = std::min(r.cols(), ctx.x_true.size());

  // One Δx̂ variable per banded link; the band is a plain box bound since
  // x̂′_j = x_true_j + Δx̂_j here. Links outside the bands keep Δx̂ = 0.
  lp::Model model(lp::Sense::kMaximize);
  std::vector<LinkId> banded_links;
  for (const LinkBand& band : bands) {
    if (band.link >= num_links) return result;  // kInfeasible, unsolved
    const double base = ctx.x_true[band.link];
    const double lb = band.lower - base;
    const double ub = band.upper - base;
    if (lb > ub) {
      result.status = lp::SolveStatus::kInfeasible;
      return result;
    }
    model.add_variable(lb, ub, colsum[band.link]);
    banded_links.push_back(band.link);
  }

  // Constraint 1 on m = R Δx̂: every path must see 0 ≤ mᵢ ≤ cap, and
  // attacker-free paths exactly 0.
  std::vector<bool> has_attacker(num_paths, false);
  for (std::size_t i : ctx.attacker_path_indices()) has_attacker[i] = true;
  const std::vector<std::vector<lp::Term>> rows =
      restricted_rows(r, banded_links);
  for (std::size_t i = 0; i < num_paths; ++i) {
    if (rows[i].empty()) continue;  // mᵢ identically 0
    model.add_constraint(rows[i], 0.0, has_attacker[i] ? ctx.per_path_cap
                                                       : 0.0);
  }

  const lp::Solution sol = lp::solve(model);
  result.status = sol.status;
  if (!sol.optimal()) return result;

  // Materialize m = R Δx̂.
  result.m = Vector(num_paths);
  for (std::size_t i = 0; i < num_paths; ++i) {
    double acc = 0.0;
    for (const lp::Term& t : rows[i]) acc += t.coeff * sol.x[t.var];
    result.m[i] = std::max(0.0, acc);
  }
  result.damage = result.m.norm1();
  result.success = true;
  return result;
}

AttackResult complete_attack_result(const AttackContext& ctx,
                                    AttackResult result) {
  if (result.status != lp::SolveStatus::kOptimal) return result;
  result.y_observed = ctx.true_measurements() + result.m;
  result.x_estimated = ctx.estimator->estimate(result.y_observed);
  result.states = classify_all(result.x_estimated, ctx.thresholds);
  return result;
}

std::vector<std::vector<lp::Term>> restricted_rows(
    const SparseMatrix& r, const std::vector<LinkId>& links) {
  std::vector<std::vector<lp::Term>> rows(r.rows());
  Vector row(r.cols());  // row i scattered; zero again after each row
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t p = r.row_begin(i); p < r.row_end(i); ++p)
      row[r.col_index()[p]] = r.values()[p];
    for (std::size_t k = 0; k < links.size(); ++k)
      if (row[links[k]] != 0.0) rows[i].push_back({k, row[links[k]]});
    for (std::size_t p = r.row_begin(i); p < r.row_end(i); ++p)
      row[r.col_index()[p]] = 0.0;
  }
  return rows;
}

std::vector<LinkId> victim_pool(
    const AttackContext& ctx,
    const std::optional<std::vector<LinkId>>& candidate_victims) {
  const std::size_t num_links = ctx.estimator->num_links();
  const std::vector<LinkId>& lm = ctx.controlled_links();
  std::vector<LinkId> pool;
  auto offer = [&](LinkId l) {
    if (l < num_links && !std::binary_search(lm.begin(), lm.end(), l))
      pool.push_back(l);
  };
  if (candidate_victims) {
    for (LinkId l : *candidate_victims) offer(l);
  } else {
    for (LinkId l = 0; l < num_links; ++l) offer(l);
  }
  return pool;
}

double max_estimate_push(const AttackContext& ctx, LinkId link) {
  assert(ctx.estimator->ok());
  const Matrix& g = ctx.estimator->pseudo_inverse();
  double acc = ctx.x_true[link];
  for (std::size_t i : ctx.attacker_path_indices()) {
    const double coeff = g(link, i);
    if (coeff > kCoeffTol) acc += coeff * ctx.per_path_cap;
  }
  return acc;
}

}  // namespace scapegoat
