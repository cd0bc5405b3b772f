// Obfuscation — Eq. (9)-(11) of the paper.
//
// Instead of manufacturing a clear scapegoat, the attacker pushes a
// substantial set of links L_o = L_s ∪ L_m into the *uncertain* band
// [b_l, b_u] so the operator cannot tell which link is actually at fault,
// while still maximizing damage. The victim set L_s is not given: we start
// from every link the attacker can influence upward past b_l and greedily
// drop the least-influenceable links until the LP is feasible. §V-C2 counts
// an obfuscation successful only when at least `min_victims` victim links
// reach the uncertain state.

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
