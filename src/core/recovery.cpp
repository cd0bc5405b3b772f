#include "core/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "graph/shortest_path.hpp"

namespace scapegoat {

namespace {

// True cost experienced by traffic on `path`: real link delays plus the
// attacker tax per malicious node crossed.
double true_cost(const Path& path, const Vector& x_true,
                 const std::vector<bool>& malicious) {
  double acc = 0.0;
  for (LinkId l : path.links) acc += x_true[l];
  for (NodeId v : path.nodes)
    if (malicious[v]) acc += kAttackerTaxMs;
  return acc;
}

}  // namespace

robust::Expected<RecoveryAssessment> try_assess_recovery(
    const Scenario& scenario, const AttackContext& ctx,
    const AttackResult& attack, const RecoveryOptions& opt, Rng& rng) {
  const Graph& g = scenario.graph();
  if (!attack.success) {
    return robust::Error{robust::ErrorCode::kInvalidInput,
                         "attack did not succeed; no recovery to assess"};
  }
  if (attack.states.size() != g.num_links() ||
      attack.x_estimated.size() != g.num_links()) {
    return robust::Error{
        robust::ErrorCode::kDimensionMismatch,
        "attack result sized for a different topology (" +
            std::to_string(attack.states.size()) + " states, " +
            std::to_string(attack.x_estimated.size()) + " estimates, " +
            std::to_string(g.num_links()) + " links)"};
  }
  for (NodeId a : ctx.attackers) {
    if (a >= g.num_nodes()) {
      return robust::Error{robust::ErrorCode::kInvalidInput,
                           "attacker id " + std::to_string(a) +
                               " out of range for " +
                               std::to_string(g.num_nodes()) + " nodes"};
    }
  }
  return assess_recovery(scenario, ctx, attack, opt, rng);
}

RecoveryAssessment assess_recovery(const Scenario& scenario,
                                   const AttackContext& ctx,
                                   const AttackResult& attack,
                                   const RecoveryOptions& opt, Rng& rng) {
  assert(attack.success);
  const Graph& g = scenario.graph();
  const Vector& x_true = scenario.x_true();

  std::vector<bool> malicious(g.num_nodes(), false);
  for (NodeId a : ctx.attackers) malicious[a] = true;

  RecoveryAssessment out;

  // Links the misled operator drains: reported abnormal.
  std::vector<bool> drained(g.num_links(), false);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    if (attack.states[l] == LinkState::kAbnormal) {
      drained[l] = true;
      ++out.drained_links;
    }
  }
  // The misled operator routes on what it believes the delays are.
  std::vector<double> believed(g.num_links());
  for (LinkId l = 0; l < g.num_links(); ++l)
    believed[l] = std::max(0.0, attack.x_estimated[l]);
  std::vector<double> truth(x_true.data());
  // The oracle routes tax-aware: each link incident to a malicious node
  // carries half the tax, so an interior malicious hop (two incident links
  // on the path) costs exactly kAttackerTaxMs. Soft avoidance — crossing
  // an attacker when every alternative is worse is still allowed, which
  // keeps every demand routable.
  std::vector<double> tax_aware = truth;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const Link& link = g.link(l);
    if (malicious[link.u]) tax_aware[l] += kAttackerTaxMs / 2.0;
    if (malicious[link.v]) tax_aware[l] += kAttackerTaxMs / 2.0;
  }

  double baseline = 0.0, misled = 0.0, informed = 0.0;
  std::size_t counted = 0;
  for (std::size_t d = 0; d < opt.demand_pairs; ++d) {
    const NodeId s = rng.index(g.num_nodes());
    const NodeId t = rng.index(g.num_nodes());
    if (s == t) continue;

    const auto base_path = dijkstra(g, s, t, truth);
    const auto misled_path =
        dijkstra_avoiding(g, s, t, believed, {}, drained);
    const auto informed_path = dijkstra(g, s, t, tax_aware);
    if (!base_path || !informed_path) continue;  // graph is connected
    if (!misled_path) {
      // Draining cut the pair off: the demand simply fails under the
      // misled policy — the starkest form of exacerbation. Counted
      // separately so the delay averages stay like-for-like.
      ++out.unroutable;
      continue;
    }
    baseline += true_cost(*base_path, x_true, malicious);
    misled += true_cost(*misled_path, x_true, malicious);
    informed += true_cost(*informed_path, x_true, malicious);
    ++counted;
  }
  if (counted > 0) {
    out.baseline_delay_ms = baseline / counted;
    out.misled_delay_ms = misled / counted;
    out.informed_delay_ms = informed / counted;
  }
  return out;
}

}  // namespace scapegoat
