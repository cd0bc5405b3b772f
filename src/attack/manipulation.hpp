// Attack manipulation model — §III-B of the paper.
//
// An attacker set V_m can add non-negative delay to exactly the measurement
// paths it sits on: the manipulation vector m satisfies Constraint 1
//   (i)  m ⪰ 0,
//   (ii) m_i = 0 whenever no attacker node lies on path P_i,
// and the observed measurements become y′ = y + m. Damage is ‖m‖₁ (Def. 2).
// `AttackContext` bundles everything every strategy needs: the tomography
// system under attack, the ground-truth link metrics, the attacker set and
// its derived quantities, the link-state thresholds, and the practical
// per-path delay cap from §V-A.

#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "lp/simplex.hpp"
#include "tomography/estimator_interface.hpp"
#include "tomography/link_state.hpp"

namespace scapegoat {

// The attack's reach — L_m and the attacker path support — depends only on
// (graph, estimator paths, V_m), so the constructor derives it once and the
// three inputs stay fixed for the context's life; an attack against another
// system or attacker set builds a new context. A context is valid only while
// its estimator's path set is unchanged (Estimator::try_append_path
// invalidates it). Attacker ids that name no node of the graph reach
// nothing: the derived sets skip them.
struct AttackContext {
  AttackContext(const Graph& graph, const Estimator& estimator,
                std::vector<NodeId> attackers);
  // The same attack (attackers, x_true, thresholds, cap, margin) against
  // another estimator on the same graph — e.g. an attacker's belief system
  // over fewer paths. Derives its own sets.
  AttackContext(const AttackContext& base, const Estimator& estimator);

  const Graph* const graph;
  // The defender under attack — any Estimator family. The attack LPs model
  // the least-squares response through pseudo_inverse() (a property of R
  // shared by all families); AttackResult::x_estimated always reports what
  // THIS estimator answers, so a sparse-recovery defender's reaction is
  // evaluated faithfully.
  const Estimator* const estimator;
  Vector x_true;                        // real link metrics (no attack)
  const std::vector<NodeId> attackers;  // V_m
  StateThresholds thresholds;           // b_l / b_u
  double per_path_cap = 2000.0;         // max delay added to one path (§V-A)
  double margin = 1.0;                  // slack for strict </> states, ms

  // L_m: all links incident to an attacker node, ascending.
  const std::vector<LinkId>& controlled_links() const {
    return controlled_links_;
  }
  // Indices of measurement paths with at least one attacker on them, in
  // ascending order — the support Constraint 1 allows m to have.
  const std::vector<std::size_t>& attacker_path_indices() const {
    return attacker_paths_;
  }
  // True end-to-end measurements y = R x_true.
  Vector true_measurements() const;

 private:
  std::vector<LinkId> controlled_links_;
  std::vector<std::size_t> attacker_paths_;
};

// Constraint-1 check for a candidate manipulation vector.
bool satisfies_constraint1(const AttackContext& ctx, const Vector& m,
                           double tol = 1e-7);

struct AttackResult {
  bool success = false;
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  Vector m;                       // manipulation vector over all paths
  double damage = 0.0;            // ‖m‖₁
  Vector y_observed;              // y + m as seen by the monitors
  Vector x_estimated;             // what tomography reports under attack
  std::vector<LinkState> states;  // classification of x_estimated
  std::vector<LinkId> victims;    // L_s the attack used
};

// Verifies an AttackResult against its context: Constraint 1 holds, the
// attacker links classify normal (or as required), the victims classify as
// targeted. Used by tests and the experiment harness as an independent
// post-check on LP output.
bool verify_chosen_victim_result(const AttackContext& ctx,
                                 const AttackResult& result);

}  // namespace scapegoat
