#include "testkit/oracles.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "attack/attack_lp.hpp"

namespace scapegoat::testkit {
namespace {

// Local dense Gaussian elimination with partial pivoting — deliberately not
// linalg::LuDecomposition, so the oracles share no solver code with the
// library under test. Returns false when singular to `pivot_tol`.
bool gauss_solve(std::vector<std::vector<double>> a, std::vector<double> b,
                 std::vector<double>& x, double pivot_tol = 1e-10) {
  const std::size_t n = a.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(a[i][k]) > std::abs(a[piv][k])) piv = i;
    if (std::abs(a[piv][k]) < pivot_tol) return false;
    std::swap(a[piv], a[k]);
    std::swap(b[piv], b[k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i][k] / a[k][k];
      if (f == 0.0) continue;
      for (std::size_t j = k; j < n; ++j) a[i][j] -= f * a[k][j];
      b[i] -= f * b[k];
    }
  }
  x.assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i][j] * x[j];
    x[i] = acc / a[i][i];
  }
  return true;
}

struct Hyperplane {
  std::vector<double> coeffs;  // length num_variables
  double rhs = 0.0;
};

}  // namespace

ReferenceLpResult solve_lp_by_vertex_enumeration(const lp::Model& model,
                                                 double tol) {
  const std::size_t n = model.num_variables();
  assert(n > 0);

  std::vector<Hyperplane> planes;
  for (std::size_t i = 0; i < model.num_constraints(); ++i) {
    // One hyperplane per finite end; an equality row has one.
    const lp::Constraint& c = model.constraint(i);
    std::vector<double> coeffs(n, 0.0);
    for (const lp::Term& t : c.terms) coeffs[t.var] += t.coeff;
    if (c.lower != -lp::kInfinity) planes.push_back({coeffs, c.lower});
    if (c.upper != lp::kInfinity && c.upper != c.lower)
      planes.push_back({std::move(coeffs), c.upper});
  }
  for (std::size_t j = 0; j < n; ++j) {
    const lp::Variable& v = model.variable(j);
    assert(std::isfinite(v.lower) && std::isfinite(v.upper) &&
           "vertex enumeration needs box-bounded variables");
    Hyperplane lo{std::vector<double>(n, 0.0), v.lower};
    lo.coeffs[j] = 1.0;
    planes.push_back(std::move(lo));
    Hyperplane hi{std::vector<double>(n, 0.0), v.upper};
    hi.coeffs[j] = 1.0;
    planes.push_back(std::move(hi));
  }

  ReferenceLpResult result;
  const bool maximize = model.sense() == lp::Sense::kMaximize;
  double best = maximize ? -std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::infinity();

  // Enumerate every n-subset of the hyperplanes.
  std::vector<std::size_t> pick(n);
  for (std::size_t i = 0; i < n; ++i) pick[i] = i;
  const std::size_t m = planes.size();
  assert(m >= n);
  while (true) {
    std::vector<std::vector<double>> a(n);
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = planes[pick[i]].coeffs;
      rhs[i] = planes[pick[i]].rhs;
    }
    std::vector<double> x;
    if (gauss_solve(std::move(a), std::move(rhs), x)) {
      ++result.vertices_checked;
      assert(result.vertices_checked < 1'000'000 &&
             "oracle instance too large — tighten the generator limits");
      if (model.max_violation(x) <= tol) {
        result.feasible = true;
        const double obj = model.objective_value(x);
        if ((maximize && obj > best) || (!maximize && obj < best)) {
          best = obj;
          result.objective = obj;
          result.x = std::move(x);
        }
      }
    }
    // Next combination in lexicographic order.
    std::size_t i = n;
    while (i-- > 0) {
      if (pick[i] + (n - i) < m) {
        ++pick[i];
        for (std::size_t j = i + 1; j < n; ++j) pick[j] = pick[j - 1] + 1;
        break;
      }
      if (i == 0) return result;
    }
  }
}

std::vector<double> ref_normal_equations(const Matrix& a, const Vector& b) {
  const std::size_t m = a.rows(), n = a.cols();
  std::vector<std::vector<double>> ata(n, std::vector<double>(n, 0.0));
  std::vector<double> atb(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < m; ++k) ata[i][j] += a(k, i) * a(k, j);
    for (std::size_t k = 0; k < m; ++k) atb[i] += a(k, i) * b[k];
  }
  std::vector<double> x;
  if (!gauss_solve(std::move(ata), std::move(atb), x)) return {};
  return x;
}

RankTracker::RankTracker(std::size_t dimension, double tol)
    : dim_(dimension), tol_(tol) {}

std::pair<Vector, double> RankTracker::orthogonalize(const Vector& row) const {
  assert(row.size() == dim_);
  Vector v = row;
  const double original_norm = v.norm2();
  // Two MGS passes for numerical robustness (re-orthogonalization).
  for (int pass = 0; pass < 2; ++pass) {
    for (const Vector& q : basis_) {
      const double proj = q.dot(v);
      if (proj != 0.0) v -= proj * q;
    }
  }
  return {std::move(v), original_norm};
}

bool RankTracker::is_independent(const Vector& row) const {
  if (full()) return false;
  auto [v, norm] = orthogonalize(row);
  if (norm == 0.0) return false;
  return v.norm2() > tol_ * norm;
}

bool RankTracker::add(const Vector& row) {
  if (full()) return false;
  auto [v, norm] = orthogonalize(row);
  if (norm == 0.0) return false;
  const double vnorm = v.norm2();
  if (vnorm <= tol_ * norm) return false;
  v *= 1.0 / vnorm;
  basis_.push_back(std::move(v));
  return true;
}

bool check_moore_penrose(const Matrix& a, const Matrix& g, double tol) {
  if (g.rows() != a.cols() || g.cols() != a.rows()) return false;
  const Matrix ag = a * g;
  const Matrix ga = g * a;
  const double scale =
      1.0 + a.max_abs() * g.max_abs() * static_cast<double>(a.rows());
  const auto close = [&](const Matrix& lhs, const Matrix& rhs) {
    return (lhs - rhs).max_abs() <= tol * scale;
  };
  return close(ag * a, a) && close(ga * g, g) && close(ag.transposed(), ag) &&
         close(ga.transposed(), ga);
}

bool ref_perfect_cut(const std::vector<Path>& paths,
                     const std::vector<NodeId>& attackers,
                     const std::vector<LinkId>& victims) {
  for (const Path& path : paths) {
    bool carries_victim = false;
    for (LinkId l : path.links)
      for (LinkId v : victims)
        if (l == v) carries_victim = true;
    if (!carries_victim) continue;
    bool carries_attacker = false;
    for (NodeId node : path.nodes)
      for (NodeId a : attackers)
        if (node == a) carries_attacker = true;
    if (!carries_attacker) return false;
  }
  return true;
}

AttackResult ref_obfuscation_descending_scan(const AttackContext& ctx,
                                             const ObfuscationOptions& opt) {
  const std::vector<LinkId>& lm = ctx.controlled_links();
  const std::vector<std::size_t>& support = ctx.attacker_path_indices();
  const Matrix& g = ctx.estimator->pseudo_inverse();
  const std::size_t num_links = ctx.estimator->num_links();

  std::vector<LinkId> pool;
  if (opt.candidate_victims) {
    pool = *opt.candidate_victims;
  } else {
    for (LinkId l = 0; l < num_links; ++l) pool.push_back(l);
  }
  std::vector<LinkId> victims;
  std::vector<double> influence(num_links, 0.0);
  for (LinkId l : pool) {
    if (l >= num_links) continue;
    if (std::find(lm.begin(), lm.end(), l) != lm.end()) continue;
    if (max_estimate_push(ctx, l) < ctx.thresholds.lower + ctx.margin)
      continue;
    victims.push_back(l);
    double up = 0.0;  // a link listed twice is weighed once, not twice
    for (std::size_t i : support)
      if (g(l, i) > 0.0) up += g(l, i);
    influence[l] = up;
  }
  std::sort(victims.begin(), victims.end(), [&](LinkId a, LinkId b) {
    return influence[a] > influence[b];
  });
  if (victims.size() > opt.max_victims) victims.resize(opt.max_victims);

  const std::size_t floor = std::max<std::size_t>(opt.min_victims, 1);
  while (victims.size() >= floor) {
    std::vector<LinkBand> bands;
    for (LinkId l : lm)
      bands.push_back({l, ctx.thresholds.lower + ctx.margin,
                       ctx.thresholds.upper - ctx.margin});
    for (LinkId v : victims)
      bands.push_back({v, ctx.thresholds.lower + ctx.margin,
                       ctx.thresholds.upper - ctx.margin});
    AttackResult r = opt.mode == ManipulationMode::kConsistent
                         ? solve_consistent_attack_lp(ctx, bands, victims)
                         : solve_attack_lp(ctx, bands, victims);
    if (r.success) return complete_attack_result(ctx, std::move(r));
    victims.pop_back();
  }
  return AttackResult{};  // status kInfeasible, no victims
}

double ref_eq23_residual(const Matrix& r, const Vector& x_hat,
                         const Vector& y) {
  double total = 0.0;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < r.cols(); ++j) row += r(i, j) * x_hat[j];
    total += std::abs(y[i] - row);
  }
  return total;
}

std::vector<double> ref_two_leaf_mle(double gamma1, double gamma2,
                                     double gamma_or) {
  const double a_internal = gamma1 * gamma2 / (gamma1 + gamma2 - gamma_or);
  return {a_internal, gamma1 / a_internal, gamma2 / a_internal};
}

namespace {

// P(leaf outcome bitmask) under `link_success`, by summing over every
// pass/fail assignment to the non-root links. Deliberately O(2^(n−1)) and
// top-down-literal: node k is reached iff its parent is reached AND link k
// passed — no γ recursion anywhere near this code.
std::vector<double> multicast_outcome_distribution(const MulticastTree& tree,
                                                   const Vector& link_success) {
  const std::size_t n = tree.num_nodes();
  const std::size_t leaves = tree.num_leaves();
  assert(n >= 2 && n - 1 < 64);
  std::vector<double> prob(std::size_t{1} << leaves, 0.0);
  for (std::uint64_t assign = 0; assign < (std::uint64_t{1} << (n - 1));
       ++assign) {
    double p = 1.0;
    std::vector<bool> passed(n, true);
    for (std::size_t k = 1; k < n; ++k) {
      passed[k] = (assign >> (k - 1)) & 1;
      p *= passed[k] ? link_success[k] : 1.0 - link_success[k];
    }
    if (p == 0.0) continue;
    std::vector<bool> reached(n, false);
    reached[0] = true;
    for (std::size_t k = 1; k < n; ++k)
      reached[k] = reached[tree.nodes[k].parent] && passed[k];
    std::size_t outcome = 0;
    for (std::size_t i = 0; i < leaves; ++i)
      if (reached[tree.leaves[i]]) outcome |= std::size_t{1} << i;
    prob[outcome] += p;
  }
  return prob;
}

}  // namespace

double ref_multicast_outcome_loglik(
    const MulticastTree& tree, const Vector& link_success,
    const std::vector<std::size_t>& outcome_counts, std::size_t probes) {
  assert(outcome_counts.size() == std::size_t{1} << tree.num_leaves());
  const std::vector<double> prob =
      multicast_outcome_distribution(tree, link_success);
  double loglik = 0.0;
  std::size_t seen = 0;
  for (std::size_t o = 0; o < outcome_counts.size(); ++o) {
    if (outcome_counts[o] == 0) continue;
    seen += outcome_counts[o];
    if (prob[o] <= 0.0) return -std::numeric_limits<double>::infinity();
    loglik += static_cast<double>(outcome_counts[o]) * std::log(prob[o]);
  }
  assert(seen == probes);
  (void)probes;
  return loglik;
}

double ref_multicast_mle_grid(const MulticastTree& tree,
                              const std::vector<std::size_t>& outcome_counts,
                              std::size_t probes, std::size_t steps,
                              std::size_t max_links) {
  const std::size_t links = tree.num_nodes() - 1;
  assert(links <= max_links && "grid enumeration is exponential in links");
  (void)max_links;
  std::vector<std::size_t> idx(links, 0);
  Vector rates(tree.num_nodes());
  rates[0] = 1.0;
  double best = -std::numeric_limits<double>::infinity();
  for (;;) {
    for (std::size_t k = 0; k < links; ++k)
      rates[k + 1] = static_cast<double>(idx[k] + 1) /
                     static_cast<double>(steps);
    best = std::max(best, ref_multicast_outcome_loglik(tree, rates,
                                                       outcome_counts,
                                                       probes));
    std::size_t carry = 0;
    while (carry < links && ++idx[carry] == steps) idx[carry++] = 0;
    if (carry == links) break;
  }
  return best;
}

}  // namespace scapegoat::testkit
