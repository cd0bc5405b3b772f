// The naive (non-scapegoating) attacker — §II-C's strawman, implemented as
// the baseline the paper argues against.
//
// "A straightforward attack is that they delay or drop all packets routed
// to them. However, it is easy for the network operator to detect that the
// links connecting to these nodes suffer long delay" — this module makes
// that concrete: each malicious node v holds EVERY probe it forwards by a
// fixed d_v (it cannot tell which measurement path a probe belongs to, so
// it cannot target; this is exactly what an attacker is reduced to when the
// operator hides path information, the first line of defense in §VI).
//
// The resulting manipulation is m_i = Σ_{v ∈ V_m ∩ P_i} d_v, which
// tomography attributes straight to the attacker-adjacent links:
// scapegoating fails and the attacker exposes itself.

#pragma once

#include <vector>

#include "attack/manipulation.hpp"

namespace scapegoat {

// Per-node delays for the naive attacker; `delays[k]` pairs with
// `ctx.attackers[k]`, and a list of another length gives an unsuccessful
// kInfeasible result. Uniform helper below.
AttackResult naive_delay_attack(const AttackContext& ctx,
                                const std::vector<double>& delays_ms);

// Every attacker holds every probe by the same `delay_ms`.
AttackResult naive_delay_attack(const AttackContext& ctx, double delay_ms);

}  // namespace scapegoat
