#include "attack/naive_attack.hpp"

#include <cassert>

#include "attack/attack_lp.hpp"

namespace scapegoat {

AttackResult naive_delay_attack(const AttackContext& ctx,
                                const std::vector<double>& delays_ms) {
  assert(ctx.estimator->ok());
  AttackResult result;  // kInfeasible: a delay per attacker is required
  if (delays_ms.size() != ctx.attackers.size()) return result;

  const auto& paths = ctx.estimator->paths();
  result.m = Vector(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    double hold = 0.0;
    for (std::size_t k = 0; k < ctx.attackers.size(); ++k)
      if (paths[i].contains_node(ctx.attackers[k])) hold += delays_ms[k];
    result.m[i] = hold;
  }
  result.damage = result.m.norm1();
  // "Success" here only means the manipulation was applied — the whole
  // point of this baseline is that it does NOT hide the attacker.
  result.success = result.damage > 0.0;
  result.status = lp::SolveStatus::kOptimal;
  return complete_attack_result(ctx, std::move(result));
}

AttackResult naive_delay_attack(const AttackContext& ctx, double delay_ms) {
  return naive_delay_attack(
      ctx, std::vector<double>(ctx.attackers.size(), delay_ms));
}

}  // namespace scapegoat
