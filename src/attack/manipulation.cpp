#include "attack/manipulation.hpp"

#include <algorithm>
#include <cassert>

#include "tomography/routing_matrix.hpp"

namespace scapegoat {

AttackContext::AttackContext(const Graph& graph, const Estimator& estimator,
                             std::vector<NodeId> attackers)
    : graph(&graph), estimator(&estimator), attackers(std::move(attackers)) {
  std::vector<NodeId> nodes;  // the attackers that name a node of the graph
  for (NodeId v : this->attackers)
    if (v < graph.num_nodes()) nodes.push_back(v);
  controlled_links_ = graph.incident_links(nodes);
  attacker_paths_ = paths_through_nodes(estimator.paths(), nodes);
}

AttackContext::AttackContext(const AttackContext& base,
                             const Estimator& estimator)
    : AttackContext(*base.graph, estimator, base.attackers) {
  x_true = base.x_true;
  thresholds = base.thresholds;
  per_path_cap = base.per_path_cap;
  margin = base.margin;
}

Vector AttackContext::true_measurements() const {
  assert(x_true.size() == estimator->num_links());
  return path_metrics(estimator->paths(), x_true);
}

bool satisfies_constraint1(const AttackContext& ctx, const Vector& m,
                           double tol) {
  if (m.size() != ctx.estimator->num_paths()) return false;
  std::vector<bool> allowed(m.size(), false);
  for (std::size_t i : ctx.attacker_path_indices()) allowed[i] = true;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i] < -tol) return false;                 // (i) m ⪰ 0
    if (!allowed[i] && std::abs(m[i]) > tol) return false;  // (ii) support
  }
  return true;
}

bool verify_chosen_victim_result(const AttackContext& ctx,
                                 const AttackResult& result) {
  if (!result.success) return false;
  if (!satisfies_constraint1(ctx, result.m)) return false;

  // Re-run tomography from scratch on the observed measurements.
  const Vector y = ctx.true_measurements();
  const Vector y_prime = y + result.m;
  const Vector x_hat = ctx.estimator->estimate(y_prime);
  const std::vector<LinkState> states = classify_all(x_hat, ctx.thresholds);

  const std::vector<LinkId>& lm = ctx.controlled_links();
  for (LinkId l : lm)
    if (states[l] != LinkState::kNormal) return false;
  for (LinkId l : result.victims)
    if (states[l] != LinkState::kAbnormal) return false;

  // L_m ∩ L_s = ∅ (Eq. 7).
  for (LinkId l : result.victims)
    if (std::find(lm.begin(), lm.end(), l) != lm.end()) return false;

  // Per-path cap from §V-A.
  for (double mi : result.m)
    if (mi > ctx.per_path_cap + 1e-6) return false;
  return true;
}

}  // namespace scapegoat
