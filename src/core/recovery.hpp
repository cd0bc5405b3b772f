// Misdirected failure recovery — quantifying the paper's motivating claim
// that "failure recovery or mitigation procedures may further exacerbate
// the damage caused by the attack".
//
// Model: after tomography, the operator drains links whose estimates read
// abnormal and re-routes traffic using the estimated metrics; malicious
// nodes meanwhile also degrade data traffic crossing them. We compare the
// demand-averaged true end-to-end delay under three routing policies:
//   * baseline — min-delay routing on the TRUE metrics, tomography ignored
//     (what the network does with no recovery at all),
//   * misled   — routing on the ATTACKED estimates with reported-abnormal
//     links drained (the operator trusts the scapegoat),
//   * informed — oracle routing on true metrics avoiding attacker nodes
//     (what recovery could do if the real culprits were known).
// Each routed demand pays its links' true delay plus kAttackerTaxMs per
// malicious node it crosses.

#pragma once

#include "attack/manipulation.hpp"
#include "core/scenario.hpp"
#include "robust/expected.hpp"

namespace scapegoat {

// Data-plane delay per malicious hop.
inline constexpr double kAttackerTaxMs = 300.0;

struct RecoveryOptions {
  std::size_t demand_pairs = 200;  // sampled src/dst demands
};

struct RecoveryAssessment {
  double baseline_delay_ms = 0.0;
  double misled_delay_ms = 0.0;
  double informed_delay_ms = 0.0;
  std::size_t drained_links = 0;   // links the operator took out of service
  std::size_t unroutable = 0;      // demands with no path under the policy

  // The headline: positive when trusting the manipulated tomography makes
  // things worse than doing nothing.
  double exacerbation_ms() const { return misled_delay_ms - baseline_delay_ms; }
};

// `attack` must be a successful result produced against `ctx`.
RecoveryAssessment assess_recovery(const Scenario& scenario,
                                   const AttackContext& ctx,
                                   const AttackResult& attack,
                                   const RecoveryOptions& opt, Rng& rng);

// Checked variant: a failed attack, an estimate/state vector of the wrong
// size, or an out-of-range attacker id comes back as a structured error
// instead of tripping asserts (assess_recovery keeps the asserting contract
// for callers that already validated).
robust::Expected<RecoveryAssessment> try_assess_recovery(
    const Scenario& scenario, const AttackContext& ctx,
    const AttackResult& attack, const RecoveryOptions& opt, Rng& rng);

}  // namespace scapegoat
