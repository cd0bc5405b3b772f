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

struct AttackContext {
  const Graph* graph = nullptr;
  // The defender under attack — any Estimator family. The attack LPs model
  // the least-squares response through pseudo_inverse() (a property of R
  // shared by all families); AttackResult::x_estimated always reports what
  // THIS estimator answers, so a sparse-recovery defender's reaction is
  // evaluated faithfully.
  const Estimator* estimator = nullptr;
  Vector x_true;                  // real link metrics (no attack)
  std::vector<NodeId> attackers;  // V_m
  StateThresholds thresholds;     // b_l / b_u
  double per_path_cap = 2000.0;   // max delay added to one path (§V-A)
  double margin = 1.0;            // slack for strict </> state constraints, ms

  // L_m: all links incident to an attacker node.
  std::vector<LinkId> controlled_links() const;
  // Indices of measurement paths with at least one attacker on them — the
  // support Constraint 1 allows m to have.
  std::vector<std::size_t> attacker_path_indices() const;
  // True end-to-end measurements y = R x_true.
  Vector true_measurements() const;
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
