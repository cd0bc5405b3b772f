// Obfuscation — Eq. (9)-(11) of the paper.
//
// Instead of manufacturing a clear scapegoat, the attacker pushes a
// substantial set of links L_o = L_s ∪ L_m into the *uncertain* band
// [b_l, b_u] so the operator cannot tell which link is actually at fault,
// while still maximizing damage. The victim set L_s is not given: we order
// every link the attacker can influence upward past b_l by decreasing
// influence and take the longest feasible prefix of that order. The full
// prefix is solved first; when it is infeasible, kUnrestricted mode
// bisects the prefix length (dropping a victim removes band rows, so
// feasibility is monotone in the length) and kConsistent mode shrinks it one
// victim at a time. Bisection finds the prefix the one-at-a-time scan finds
// provided the solver's feasible/infeasible verdicts are monotone in the
// length too (true in exact arithmetic); the property
// attack_obfuscation_bisection_matches_descending_scan checks this.
// Only the returned result carries y_observed / x_estimated / states.
// §V-C2 counts an obfuscation successful only when at least `min_victims`
// victim links reach the uncertain state. Candidate ids ≥ the number of
// links are skipped.

#pragma once

#include <optional>
#include <vector>

#include "attack/attack_lp.hpp"
#include "attack/manipulation.hpp"

namespace scapegoat {

struct ObfuscationOptions {
  // Success needs |L_s| ≥ this (§V-C2); 0 acts as 1.
  std::size_t min_victims = 5;
  std::size_t max_victims = 64; // cap on the initial candidate set
  ManipulationMode mode = ManipulationMode::kUnrestricted;
  // When set, only these links may join L_s (e.g. restrict to perfectly-cut
  // links so the attack stays undetectable under Theorem 3).
  std::optional<std::vector<LinkId>> candidate_victims;
};

AttackResult obfuscation_attack(const AttackContext& ctx,
                                const ObfuscationOptions& opt = {});

}  // namespace scapegoat
