// Maximum-damage scapegoating — Eq. (8) of the paper.
//
// The attacker is free to pick the victim set: maximize ‖m‖₁ over both m and
// L_s ⊂ L. Exhaustive search over victim subsets is exponential, so the
// implementation (a) prunes candidate victims the attacker cannot possibly
// push past b_u (max_estimate_push bound), (b) solves the chosen-victim LP
// for each surviving single-link victim, and (c) grows a joint victim set of
// up to max_victims links (1 = single victim only) greedily in decreasing
// single-victim damage order, keeping an addition only when the joint LP
// stays feasible and does not reduce damage.
// The single-victim and growth LPs are compared by damage alone, so only
// `best` is completed with y_observed / x_estimated / states — one estimate
// per call. Candidate ids ≥ the number of links are skipped.

#pragma once

#include <vector>

#include <optional>

#include "attack/attack_lp.hpp"
#include "attack/manipulation.hpp"

namespace scapegoat {

struct MaxDamageOptions {
  std::size_t max_victims = 8;      // cap on |L_s| during greedy growth
  std::size_t max_candidates = 64;  // solve at most this many single-victim LPs
  ManipulationMode mode = ManipulationMode::kUnrestricted;
  CollateralPolicy collateral = CollateralPolicy::kUnconstrained;
  // When set, only these links are considered as victims (e.g. restrict to
  // perfectly-cut links for a stealth-preserving attacker).
  std::optional<std::vector<LinkId>> candidate_victims;
};

struct MaxDamageResult {
  AttackResult best;  // success == false if no victim works at all
  // Damage per feasible single victim, sorted descending (diagnostics and
  // the Fig. 5 narrative "highest in all chosen-victim attacks").
  std::vector<std::pair<LinkId, double>> single_victim_damages;
};

MaxDamageResult max_damage_attack(const AttackContext& ctx,
                                  const MaxDamageOptions& opt = {});

}  // namespace scapegoat
