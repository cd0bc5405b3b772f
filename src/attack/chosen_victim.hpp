// Chosen-victim scapegoating — Eq. (4)-(7) of the paper.
//
// Given a target victim link set L_s (disjoint from the attacker links L_m),
// find the damage-maximizing manipulation vector such that tomography
// classifies every attacker link normal and every victim link abnormal.

#pragma once

#include <vector>

#include "attack/attack_lp.hpp"
#include "attack/manipulation.hpp"

namespace scapegoat {

// Solves Eq. (4)-(7). Returns an unsuccessful result (status kInfeasible)
// if L_s intersects L_m, names a link id ≥ the number of links, or the LP
// has no feasible manipulation. With ManipulationMode::kConsistent the
// attacker additionally keeps R x̂ = y′ (the Theorem-1 construction —
// undetectable, requires a perfect cut in practice).
AttackResult chosen_victim_attack(
    const AttackContext& ctx, const std::vector<LinkId>& victims,
    ManipulationMode mode = ManipulationMode::kUnrestricted,
    CollateralPolicy collateral = CollateralPolicy::kUnconstrained);

// The same bands and LP as chosen_victim_attack, returning the LP outcome
// only (see attack_lp.hpp): chosen_victim_attack is complete_attack_result
// of this. For strategies that solve many chosen-victim LPs and return one.
AttackResult solve_chosen_victim_lp(const AttackContext& ctx,
                                    const std::vector<LinkId>& victims,
                                    ManipulationMode mode,
                                    CollateralPolicy collateral);

}  // namespace scapegoat
