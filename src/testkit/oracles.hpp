// Differential oracles: independent reference implementations that the
// production code paths are diffed against by the test_prop_* suites.
//
// Each oracle is deliberately written the *obvious* way (brute force,
// textbook formulas, literal loops over the paper's equations) with no code
// shared with the implementation under test — agreement is then evidence,
// not tautology.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "attack/manipulation.hpp"
#include "attack/obfuscation.hpp"
#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "lp/model.hpp"
#include "tomography/multicast_mle.hpp"

namespace scapegoat::testkit {

// ---- LP: exhaustive basis/vertex enumeration ------------------------------
//
// For models whose variables all carry finite box bounds the feasible set is
// a polytope: if it is non-empty it has a vertex, and some vertex attains
// the optimum. The oracle enumerates every n-subset of the hyperplane set
// {aᵢᵀx = each finite end of row i} ∪ {x_j = lower_j} ∪ {x_j = upper_j},
// solves the square system, keeps feasible solutions, and maximizes /
// minimizes the objective over them.

struct ReferenceLpResult {
  bool feasible = false;
  double objective = 0.0;
  std::vector<double> x;            // an optimal vertex when feasible
  std::size_t vertices_checked = 0; // candidate systems solved
};

// `tol` is the feasibility slack used when accepting a vertex. Asserts that
// every variable has finite bounds and that the enumeration stays below an
// internal combination cap (generator limits guarantee both).
ReferenceLpResult solve_lp_by_vertex_enumeration(const lp::Model& model,
                                                 double tol = 1e-7);

// ---- linear algebra -------------------------------------------------------

// Textbook normal-equations least squares: forms AᵀA and Aᵀb element by
// element and solves with Gaussian elimination written out locally (no
// linalg::CholeskyDecomposition, no linalg::LuDecomposition). Empty result
// when the local elimination meets a non-positive pivot (rank deficiency).
std::vector<double> ref_normal_equations(const Matrix& a, const Vector& b);

// Floating-point rank of a growing set of row vectors by two-pass modified
// Gram–Schmidt: a row whose component orthogonal to the accepted ones is at
// most `tol` times its norm is rejected as dependent. The reference that
// the exact incidence-row rank test of path selection is diffed against.
class RankTracker {
 public:
  explicit RankTracker(std::size_t dimension, double tol = 1e-8);

  std::size_t dimension() const { return dim_; }
  std::size_t rank() const { return basis_.size(); }
  bool full() const { return rank() == dim_; }

  // True iff `row` is independent from the accepted rows.
  bool is_independent(const Vector& row) const;

  // Adds `row` if independent; returns whether it was accepted.
  bool add(const Vector& row);

 private:
  // The component of `row` orthogonal to the basis and `row`'s own norm,
  // for the relative independence test.
  std::pair<Vector, double> orthogonalize(const Vector& row) const;

  std::size_t dim_;
  double tol_;
  std::vector<Vector> basis_;  // orthonormal
};

// Checks the four Moore–Penrose axioms for a candidate pseudo-inverse g of
// a:  a·g·a = a,  g·a·g = g,  (a·g)ᵀ = a·g,  (g·a)ᵀ = g·a.
// `tol` is relative to the magnitudes involved.
bool check_moore_penrose(const Matrix& a, const Matrix& g, double tol = 1e-6);

// ---- attack: Theorem 1 cut condition, literally from the graph ------------

// Independent re-statement of the perfect-cut predicate: every measurement
// path that traverses a victim link also visits an attacker node. Written
// against Path's raw node/link vectors (no contains_* helpers) so it can
// disagree with attack/cut.cpp if either is wrong.
bool ref_perfect_cut(const std::vector<Path>& paths,
                     const std::vector<NodeId>& attackers,
                     const std::vector<LinkId>& victims);

// ---- attack: the obfuscation shrink, one victim at a time -----------------

// obfuscation_attack's answer by the plain descending scan: build the same
// influence-ordered candidate list, then solve the band LP for prefix
// lengths n, n−1, …, max(min_victims, 1) and complete the first feasible
// one. It shares the attack-LP solvers with the library — the point of the
// differential is the probe order, not the LP — so a correct bisection must
// match it bitwise.
AttackResult ref_obfuscation_descending_scan(const AttackContext& ctx,
                                             const ObfuscationOptions& opt);

// ---- detect: Eq. 23, literally --------------------------------------------

// ‖y − R·x̂‖₁ computed as the paper prints it: Σ_i |y_i − Σ_j R_ij x̂_j|.
double ref_eq23_residual(const Matrix& r, const Vector& x_hat,
                         const Vector& y);

// ---- multicast MLE: textbook closed form and brute-force likelihood -------

// The classic two-leaf MINC solution, straight from the Cáceres et al.
// derivation and nothing else: for root → internal → {leaf1, leaf2} with
// per-node OR rates γ₁, γ₂ and γ_or = P(leaf1 ∪ leaf2),
//   Â_internal = γ₁·γ₂ / (γ₁ + γ₂ − γ_or),
//   α̂_leaf_i  = γ_i / Â_internal.
// Returns {Â_internal, α̂_leaf1, α̂_leaf2}.
std::vector<double> ref_two_leaf_mle(double gamma1, double gamma2,
                                     double gamma_or);

// Exact log-likelihood of a full 2^leaves outcome histogram under per-node
// logical link success rates, by exhaustive enumeration of all 2^(n−1)
// pass/fail assignments to the non-root tree links (a probe reaches a node
// iff every ancestor link passed). −inf when an observed outcome has model
// probability 0. `link_success` is indexed by tree node (root ignored),
// `outcome_counts` by leaf bitmask in tree.leaves order.
double ref_multicast_outcome_loglik(
    const MulticastTree& tree, const Vector& link_success,
    const std::vector<std::size_t>& outcome_counts, std::size_t probes);

// Brute-force MLE on small trees (≤ `max_links` non-root nodes, asserted):
// maximizes ref_multicast_outcome_loglik over a uniform grid of `steps`
// success rates {1/steps, 2/steps, …, 1} per logical link and returns the
// best log-likelihood found. The recursive fit must score at least this
// well (up to grid resolution) or it is not the maximizer it claims to be.
double ref_multicast_mle_grid(const MulticastTree& tree,
                              const std::vector<std::size_t>& outcome_counts,
                              std::size_t probes, std::size_t steps = 9,
                              std::size_t max_links = 4);

}  // namespace scapegoat::testkit
