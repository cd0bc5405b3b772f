// The generic scapegoating LP used by all three strategies (proof of
// Theorem 1 shows chosen-victim and obfuscation are instances of one box
// formulation s_l ⪯ x̂ ⪯ s_u; maximum-damage searches over victim sets and
// solves the same LP per candidate).
//
// With G = R⁺ and identifiability (G R = I), the manipulated estimate is
// linear in m:  x̂′ = x_true + G m  restricted to the attacker-present path
// support. The LP is
//   max Σ mᵢ   s.t.  0 ≤ mᵢ ≤ cap  (support paths only; others fixed 0),
//                    lowerⱼ ≤ (x_true + G m)ⱼ ≤ upperⱼ  for each band j.
//
// A band whose link is not a link of R makes both LPs return kInfeasible
// without solving.
//
// The two LP functions return the LP outcome only: status, success, m,
// damage and victims. The observation side (y′, the defender's estimate x̂′
// and its link states) costs a least-squares solve, so strategies that
// solve many LPs and return one fill it once, with complete_attack_result,
// on the result they return.

#pragma once

#include <optional>
#include <vector>

#include "attack/manipulation.hpp"
#include "linalg/sparse_matrix.hpp"
#include "lp/model.hpp"

namespace scapegoat {

// One per-link interval constraint on the manipulated estimate. Use
// -infinity / +infinity for one-sided bands.
struct LinkBand {
  LinkId link;
  double lower;
  double upper;
};

// Solves the scapegoating LP. `victims` is recorded in the result (it does
// not alter the constraints — encode the victim requirement in `bands`).
// y_observed, x_estimated and states are left empty.
AttackResult solve_attack_lp(const AttackContext& ctx,
                             const std::vector<LinkBand>& bands,
                             std::vector<LinkId> victims);

// The Theorem-1 *consistent* construction: the attacker picks a target
// estimate perturbation Δx̂ supported on L_m ∪ victims and plays
// m = R Δx̂, which keeps R x̂ = y′ exactly — invisible to the Eq. 23
// detector. Variables are Δx̂ per banded link; constraints are Constraint 1
// on m (0 ≤ (RΔx̂)ᵢ ≤ cap, and (RΔx̂)ᵢ = 0 on attacker-free paths, which a
// perfect cut satisfies structurally); the objective is still total damage.
// Infeasible whenever no consistent manipulation exists (e.g. the victim is
// not perfectly cut and the band demands it move). Returns the LP outcome
// only, as solve_attack_lp does.
AttackResult solve_consistent_attack_lp(const AttackContext& ctx,
                                        const std::vector<LinkBand>& bands,
                                        std::vector<LinkId> victims);

// Fills the observation side of a result that carries a manipulation
// (status kOptimal): y_observed = y + m, x_estimated = what ctx.estimator
// answers for y_observed, and states = their classification. Any other
// result comes back as is.
AttackResult complete_attack_result(const AttackContext& ctx,
                                    AttackResult result);

// Each path's row of R restricted to `links`, as terms over the variable
// index k of `links`: row i holds {k, R(i, links[k])} for every k with a
// nonzero entry, in k order (a link listed twice gives two terms). The
// Δx̂ rows of the consistent LPs, where m = R Δx̂.
std::vector<std::vector<lp::Term>> restricted_rows(
    const SparseMatrix& r, const std::vector<LinkId>& links);

// Which manipulation family a strategy may use. kUnrestricted maximizes
// damage over all Constraint-1 vectors (detectable under imperfect cuts);
// kConsistent restricts to m = R Δx̂ (undetectable by Eq. 23, feasible
// essentially only under perfect cuts — Theorem 3).
enum class ManipulationMode { kUnrestricted, kConsistent };

// What the attack may do to *bystander* links (∉ L_m ∪ L_s). The paper's
// formulation leaves them unconstrained, but its figures show clean
// scapegoats (only the victims cross b_u), which requires bounding
// collateral estimates. Only meaningful for kUnrestricted manipulations —
// the consistent construction never moves a link outside L_m ∪ L_s.
enum class CollateralPolicy {
  kUnconstrained,  // Eq. (4)-(7) verbatim
  kAvoidAbnormal,  // bystanders must stay ≤ b_u (victims stand out alone)
  kKeepNormal,     // bystanders must stay < b_l (fully clean frame-up)
};

// The links a victim search starts from: `candidate_victims` (every link
// when unset) in order, minus ids that name no link and minus L_m.
std::vector<LinkId> victim_pool(
    const AttackContext& ctx,
    const std::optional<std::vector<LinkId>>& candidate_victims);

// Upper bound on how far the attacker can push link j's estimate upward:
// x_true[j] + cap · Σ_i max(G(j,i), 0) over attacker-present paths i. Used
// to prune hopeless victim candidates before solving LPs.
double max_estimate_push(const AttackContext& ctx, LinkId link);

}  // namespace scapegoat
