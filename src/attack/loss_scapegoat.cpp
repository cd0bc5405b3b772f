#include "attack/loss_scapegoat.hpp"

#include <algorithm>
#include <ostream>

#include "obs/obs.hpp"
#include "util/random.hpp"

namespace scapegoat {

namespace {

using robust::Error;
using robust::ErrorCode;

// Disjoint seed streams: the rehearsal and the honest evaluation must never
// share a probe schedule, or the planner would be grading its own homework.
constexpr std::uint64_t kLossPlanSalt = 0x10556e1a11ull;
constexpr std::uint64_t kLossEvalSalt = 0x10553e7a1ull;

// Every link of the chain realizing logical link `node` is abnormal.
bool chain_all_abnormal(const MulticastTree& tree, std::size_t node,
                        const std::vector<LinkState>& states) {
  const MulticastTreeNode& n = tree.nodes[node];
  if (n.chain.empty()) return false;
  for (LinkId l : n.chain)
    if (states[l] != LinkState::kAbnormal) return false;
  return true;
}

// No link of the attacker's own incoming chain is blamed. A root attacker
// has no incoming chain and is vacuously clean.
bool chain_none_abnormal(const MulticastTree& tree, std::size_t node,
                         const std::vector<LinkState>& states) {
  for (LinkId l : tree.nodes[node].chain)
    if (states[l] == LinkState::kAbnormal) return false;
  return true;
}

robust::Status validate_setup(const Graph& g, const MulticastTree& tree,
                              std::size_t attacker, std::size_t victim_child,
                              LossAttackFamily family,
                              const LossScapegoatOptions& opt) {
  if (!tree.valid())
    return Error{ErrorCode::kInvalidInput, "invalid multicast tree"};
  if (attacker >= tree.num_nodes() || tree.nodes[attacker].is_leaf())
    return Error{ErrorCode::kInvalidInput,
                 "attacker must be an internal tree node"};
  const auto& kids = tree.nodes[attacker].children;
  if (std::find(kids.begin(), kids.end(), victim_child) == kids.end())
    return Error{ErrorCode::kInvalidInput,
                 "victim must be a child subtree of the attacker"};
  if (family == LossAttackFamily::kSplitFraming && kids.size() < 2)
    return Error{ErrorCode::kInvalidInput,
                 "split framing needs >= 2 child subtrees"};
  if (!opt.link_delivery.empty() &&
      opt.link_delivery.size() < g.num_links())
    return Error{ErrorCode::kInvalidInput,
                 "link_delivery shorter than the graph's links"};
  return robust::ok_status();
}

simnet::MulticastAdversary make_adversary(const MulticastTree& tree,
                                          std::size_t attacker,
                                          std::size_t victim_child,
                                          std::size_t split_sibling,
                                          LossAttackFamily family,
                                          double rate) {
  simnet::MulticastAdversary adv;
  adv.drop_rate = rate;
  adv.rules.push_back({attacker, victim_child});
  if (family == LossAttackFamily::kSplitFraming) {
    adv.rules.push_back({attacker, split_sibling});
    adv.exclusive = true;
  }
  (void)tree;
  return adv;
}

}  // namespace

std::string to_string(LossAttackFamily family) {
  switch (family) {
    case LossAttackFamily::kSubtreeFraming:
      return "subtree_framing";
    case LossAttackFamily::kSplitFraming:
      return "split_framing";
  }
  return "?";
}

std::optional<LossAttackFamily> loss_attack_family_from_string(
    std::string_view s) {
  if (s == "subtree_framing") return LossAttackFamily::kSubtreeFraming;
  if (s == "split_framing") return LossAttackFamily::kSplitFraming;
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, LossAttackFamily family) {
  return os << to_string(family);
}

robust::Expected<LossScapegoatPlan> plan_loss_scapegoat(
    const Graph& g, const MulticastTree& tree, std::size_t attacker,
    std::size_t victim_child, LossAttackFamily family,
    const LossScapegoatOptions& opt) {
  obs::ScopedSpan span("attack.loss.plan");
  if (robust::Status st =
          validate_setup(g, tree, attacker, victim_child, family, opt);
      !st.ok())
    return st.error();
  if (opt.drop_rates.empty())
    return Error{ErrorCode::kEmptyInput, "no candidate drop rates"};
  for (double r : opt.drop_rates)
    if (!(r > 0.0) || r > 1.0)
      return Error{ErrorCode::kInvalidInput, "drop rates must be in (0, 1]"};

  LossScapegoatPlan plan;
  plan.family = family;
  plan.attacker = attacker;
  plan.victim_child = victim_child;
  if (family == LossAttackFamily::kSplitFraming) {
    // The sibling carrying the second rule: the first child that is not the
    // victim (deterministic — the plan must not depend on map order).
    for (std::size_t c : tree.nodes[attacker].children)
      if (c != victim_child) {
        plan.split_sibling = c;
        break;
      }
  }

  simnet::MulticastProbeOptions probe_opt;
  probe_opt.probes = opt.probes;
  probe_opt.seed = derive_seed(opt.seed, kLossPlanSalt);
  probe_opt.link_delivery = opt.link_delivery;
  // The planner never needs the joint histogram.
  probe_opt.histogram_max_leaves = 0;

  for (double rate : opt.drop_rates) {
    // Exclusive rules partition one uniform draw; keep the partition valid.
    if (family == LossAttackFamily::kSplitFraming && 2.0 * rate > 1.0) break;
    simnet::MulticastAdversary adv = make_adversary(
        tree, attacker, victim_child, plan.split_sibling, family, rate);
    probe_opt.adversary = &adv;
    const simnet::MulticastProbeRun run =
        simnet::run_multicast_probes(tree, probe_opt);
    auto fit = solve_multicast_mle(g.num_links(), tree, run.obs, opt.mle);
    if (!fit.ok()) continue;  // e.g. a dead leaf at extreme rates
    const std::vector<LinkState> states =
        classify_all(fit->x, opt.thresholds);
    if (!chain_all_abnormal(tree, victim_child, states)) continue;
    if (!chain_none_abnormal(tree, attacker, states)) continue;
    if (family == LossAttackFamily::kSubtreeFraming &&
        fit->residual > kLossStealthAlpha)
      continue;
    plan.feasible = true;
    plan.drop_rate = rate;
    plan.adversary = std::move(adv);
    plan.planned_residual = fit->residual;
    plan.planned_clamped = fit->clamped;
    obs::count("attack.loss.plan_feasible");
    return plan;
  }
  obs::count("attack.loss.plan_infeasible");
  return plan;  // feasible == false: no rate in the list frames the victim
}

robust::Expected<LossScapegoatOutcome> evaluate_loss_scapegoat(
    const Graph& g, const MulticastTree& tree, const LossScapegoatPlan& plan,
    const LossScapegoatOptions& opt) {
  obs::ScopedSpan span("attack.loss.evaluate");
  if (!plan.feasible)
    return Error{ErrorCode::kInvalidInput, "plan is infeasible"};
  if (robust::Status st = validate_setup(g, tree, plan.attacker,
                                         plan.victim_child, plan.family, opt);
      !st.ok())
    return st.error();

  simnet::MulticastProbeOptions probe_opt;
  probe_opt.probes = opt.probes;
  probe_opt.seed = derive_seed(opt.seed, kLossEvalSalt);
  probe_opt.link_delivery = opt.link_delivery;
  probe_opt.adversary = &plan.adversary;
  probe_opt.histogram_max_leaves = 0;
  const simnet::MulticastProbeRun run =
      simnet::run_multicast_probes(tree, probe_opt);

  // The honest defender: tree-native MLE with the joint OR counts attached —
  // estimate and statistic are exactly what a deployed defender computes.
  MulticastMleEstimator defender(g, tree, opt.mle);
  defender.ingest(run.obs);
  const Vector y = run.leaf_loss_metrics(kMlePassFloor);

  LossScapegoatOutcome out;
  out.x_estimated = defender.estimate(y);
  out.states = classify_all(out.x_estimated, opt.thresholds);
  out.residual = defender.residual_statistic(y);
  out.detected = out.residual > kLossDefenderAlpha;
  out.victim_blamed = chain_all_abnormal(tree, plan.victim_child, out.states);
  out.attacker_clean = chain_none_abnormal(tree, plan.attacker, out.states);
  obs::count(out.detected ? "attack.loss.detected" : "attack.loss.undetected");
  return out;
}

}  // namespace scapegoat
