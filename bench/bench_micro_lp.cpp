// Microbenchmarks for the two-phase simplex on attack-LP-shaped problems.

#include <benchmark/benchmark.h>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/random.hpp"

namespace {

using namespace scapegoat::lp;
using scapegoat::Rng;

// Box-bounded maximization with dense ≤ rows — the shape of the scapegoating
// LP (variables = attacker paths, rows = link-state constraints).
Model attack_shaped_lp(std::size_t vars, std::size_t rows, Rng& rng) {
  Model m(Sense::kMaximize);
  for (std::size_t j = 0; j < vars; ++j) m.add_variable(0.0, 2000.0, 1.0);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < vars; ++j) {
      const double c = rng.uniform(-0.2, 0.6);
      if (std::abs(c) > 0.05) terms.push_back({j, c});
    }
    m.add_constraint(std::move(terms), -kInfinity,
                     rng.uniform(50.0, 500.0));
  }
  return m;
}

void BM_SimplexAttackShaped(benchmark::State& state) {
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  const Model m = attack_shaped_lp(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)),
                                   rng);
  for (auto _ : state) {
    Solution s = solve(m);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SimplexAttackShaped)
    ->Args({20, 10})
    ->Args({60, 30})
    ->Args({120, 60})
    ->Args({200, 100});

void BM_SimplexPhase1Infeasible(benchmark::State& state) {
  // Infeasibility certificates must also be fast — the max-damage search
  // solves many infeasible candidate LPs.
  Model m(Sense::kMaximize);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t j = 0; j < n; ++j) m.add_variable(0.0, 1.0, 1.0);
  std::vector<Term> all;
  for (std::size_t j = 0; j < n; ++j) all.push_back({j, 1.0});
  m.add_constraint(all, static_cast<double>(n + 5), kInfinity);
  for (auto _ : state) {
    Solution s = solve(m);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SimplexPhase1Infeasible)->Arg(50)->Arg(200);

}  // namespace
