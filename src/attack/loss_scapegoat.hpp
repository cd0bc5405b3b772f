// Loss-domain scapegoating — the grey-hole attack re-asked against the
// EstimatorKind::kMulticastMle defender (DESIGN.md §15).
//
// The adversary is a compromised router at an internal tree node. It cannot
// forge measurement reports (the multicast OR counts are taken at the
// leaves), but it forwards selectively: per probe it may drop the copy sent
// into a chosen child subtree. Two families:
//
//   * kSubtreeFraming — one rule {attacker → victim child}, independent
//     per-probe coin. The drops are statistically indistinguishable from
//     i.i.d. loss on the victim logical link, so the gamma-recursion MLE
//     blames the victim chain's physical links (innocent relays included),
//     the fit interpolates every OR statistic, and the loss residual stays
//     at sampling noise — the feasible-and-stealthy cell.
//   * kSplitFraming — rules on the victim child AND a sibling, driven by
//     ONE shared per-probe coin that fires at most one rule
//     (MulticastAdversary::exclusive). No per-link loss assignment
//     reproduces that anti-correlation: the closed-form fit needs a reach
//     probability Ã > 1 at the attacker, the clamp breaks interpolation and
//     the residual stays bounded away from zero — feasible for blame, but
//     detectable. The pair is the loss-domain restatement of the paper's
//     feasibility/detectability boundary.
//
// plan_loss_scapegoat searches the ascending drop-rate list for the
// smallest rate whose simulated attack (planning seed) makes the defender's
// own MLE classify every victim-chain link abnormal while the attacker's
// chain stays un-blamed — the attacker rehearsing against a copy of the
// defender, exactly like the delay-domain LPs optimize against G = R⁺. For
// kSubtreeFraming the planner additionally requires the rehearsal residual
// to stay under kLossStealthAlpha (a split-framing plan is accepted loud).
//
// evaluate_loss_scapegoat replays the accepted plan on a FRESH probe seed
// through an honest MulticastMleEstimator defender (ingest → estimate →
// residual_statistic), so reported outcomes are what the defender actually
// computes, never the planner's rehearsal.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "robust/expected.hpp"
#include "simnet/multicast_probe.hpp"
#include "tomography/link_state.hpp"
#include "tomography/loss_metric.hpp"
#include "tomography/multicast_mle.hpp"

namespace scapegoat {

enum class LossAttackFamily {
  kSubtreeFraming,  // independent drops — consistent, MLE-invisible
  kSplitFraming,    // exclusive anti-correlated drops — infeasible fit
};

std::string to_string(LossAttackFamily family);
std::optional<LossAttackFamily> loss_attack_family_from_string(
    std::string_view s);
std::ostream& operator<<(std::ostream& os, LossAttackFamily family);

// Planner-side stealth cap on the rehearsal residual (probability units),
// applied to kSubtreeFraming only.
inline constexpr double kLossStealthAlpha = 0.05;
// The honest defender's detector threshold, same units.
inline constexpr double kLossDefenderAlpha = 0.05;

struct LossScapegoatOptions {
  // Ascending candidate drop rates; the planner takes the first that blames
  // the victim (smallest footprint wins, like the delay LPs' minimal Δ).
  std::vector<double> drop_rates = {0.02, 0.05, 0.08, 0.12,
                                    0.16, 0.20, 0.25, 0.30};
  std::size_t probes = 4000;
  std::uint64_t seed = 0;
  // Honest per-physical-link delivery probabilities (LinkId-indexed; empty
  // means lossless) — the background the attack must stand out against.
  std::vector<double> link_delivery;
  MulticastMleOptions mle;
  // Definition-1 thresholds in the loss-metric domain; defaults to
  // loss_thresholds(): ≥ 0.99 delivery normal, < 0.90 abnormal.
  StateThresholds thresholds = loss_thresholds();
};

struct LossScapegoatPlan {
  bool feasible = false;
  LossAttackFamily family = LossAttackFamily::kSubtreeFraming;
  std::size_t attacker = 0;      // tree node hosting the grey hole
  std::size_t victim_child = 0;  // framed child subtree (tree index)
  std::size_t split_sibling = 0; // second rule's subtree (kSplitFraming)
  double drop_rate = 0.0;
  // Ready for run_multicast_probes; empty rules when infeasible.
  simnet::MulticastAdversary adversary;
  // Rehearsal diagnostics at the accepted rate.
  double planned_residual = 0.0;
  std::size_t planned_clamped = 0;
};

struct LossScapegoatOutcome {
  bool victim_blamed = false;   // every victim-chain link abnormal
  bool attacker_clean = false;  // no attacker-chain link abnormal
  bool detected = false;        // residual_statistic > kLossDefenderAlpha
  double residual = 0.0;        // probability units
  Vector x_estimated;           // defender's per-physical-link loss metrics
  std::vector<LinkState> states;
};

// Searches opt.drop_rates (ascending) for the smallest feasible plan.
// Infeasible search is NOT an error ({feasible = false} comes back);
// errors are structural: kInvalidInput for an invalid tree, an attacker
// that is not an internal node, a victim that is not the attacker's child,
// a kSplitFraming attacker with < 2 children, or link_delivery shorter
// than the tree's physical links; kEmptyInput for an empty rate list.
robust::Expected<LossScapegoatPlan> plan_loss_scapegoat(
    const Graph& g, const MulticastTree& tree, std::size_t attacker,
    std::size_t victim_child, LossAttackFamily family,
    const LossScapegoatOptions& opt = {});

// Replays the plan on a fresh probe seed through an honest tree-native
// MulticastMleEstimator (joint OR counts ingested). kInvalidInput when the
// plan is infeasible or does not belong to this tree.
robust::Expected<LossScapegoatOutcome> evaluate_loss_scapegoat(
    const Graph& g, const MulticastTree& tree, const LossScapegoatPlan& plan,
    const LossScapegoatOptions& opt = {});

}  // namespace scapegoat
