// Ablation: partial path knowledge — §VI's first line of defense.
//
// "To launch scapegoating attacks, the attackers must have the information
// of the measurement paths, which the network operator can definitely
// attempt to hide." Here the attacker only knows a fraction f of the
// measurement paths: the paths it sits on (it observes those probes) plus a
// random sample of the rest. It solves the chosen-victim LP against the
// tomography system *it believes in* (the known paths), then the real
// estimator — using ALL paths — judges the outcome. Success requires the
// victim to read abnormal and every attacker link normal under the REAL
// estimate.
//
//   ./bench_ablation_knowledge [trials_per_setting]

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "core/scapegoat.hpp"

namespace {

using namespace scapegoat;

// Builds the belief path-index set: all attacker paths + a fraction of the
// others. Returns indices into the full path list.
std::vector<std::size_t> belief_paths(const Scenario& sc,
                                      const std::vector<std::size_t>& own,
                                      double fraction, Rng& rng) {
  std::vector<bool> known(sc.estimator().num_paths(), false);
  for (std::size_t i : own) known[i] = true;
  std::vector<std::size_t> others;
  for (std::size_t i = 0; i < sc.estimator().num_paths(); ++i)
    if (!known[i]) others.push_back(i);
  rng.shuffle(others);
  const auto keep = static_cast<std::size_t>(fraction * others.size());
  for (std::size_t k = 0; k < keep; ++k) known[others[k]] = true;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < known.size(); ++i)
    if (known[i]) out.push_back(i);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t trials =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60;

  Rng rng(99);
  // Extra redundancy so subsampled belief systems can stay identifiable.
  auto sc = make_scenario(TopologyKind::kWireline, rng, ScenarioConfig{},
                          /*redundant_paths=*/50);
  if (!sc) {
    std::cout << "scenario failed\n";
    return 1;
  }
  const auto& paths = sc->estimator().paths();

  std::cout << "Ablation — attacker path knowledge vs chosen-victim success "
               "(§VI defense)\n"
               "(wireline, 3 attackers; attacker always knows the paths it "
               "sits on)\n\n";
  Table t({"known_fraction_of_other_paths", "attempts", "belief_identifiable",
           "naive_success", "overshoot_success"});
  for (double fraction : {0.5, 0.8, 0.9, 0.95, 0.98, 1.0}) {
    std::size_t attempts = 0, identifiable = 0, success = 0,
                overshoot_success = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      sc->resample_metrics(rng);
      const auto att =
          rng.sample_without_replacement(sc->graph().num_nodes(), 3);
      AttackContext real_ctx =
          sc->context(std::vector<NodeId>(att.begin(), att.end()));
      const auto lm = real_ctx.controlled_links();
      const LinkId victim = rng.index(sc->graph().num_links());
      if (std::find(lm.begin(), lm.end(), victim) != lm.end()) continue;
      ++attempts;

      // Build the attacker's belief system.
      const auto own = real_ctx.attacker_path_indices();
      const auto known = belief_paths(*sc, own, fraction, rng);
      std::vector<Path> known_paths;
      for (std::size_t i : known) known_paths.push_back(paths[i]);
      TomographyEstimator belief(sc->graph(), known_paths);
      if (!belief.ok()) continue;  // can't even form an attack plan
      ++identifiable;

      const AttackContext belief_ctx(real_ctx, belief);

      // Deploy a plan: embed the belief-indexed m into the real system and
      // judge with the full estimator.
      auto deploy_lands = [&](const AttackResult& planned) {
        if (!planned.success) return false;
        Vector m(paths.size(), 0.0);
        for (std::size_t k = 0; k < known.size(); ++k)
          m[known[k]] = planned.m[k];
        const Vector y_real = real_ctx.true_measurements() + m;
        const Vector x_real = sc->estimator().estimate(y_real);
        bool landed = classify(x_real[victim], real_ctx.thresholds) ==
                      LinkState::kAbnormal;
        for (LinkId l : lm)
          landed = landed && classify(x_real[l], real_ctx.thresholds) ==
                                 LinkState::kNormal;
        return landed;
      };

      if (deploy_lands(chosen_victim_attack(belief_ctx, {victim})))
        ++success;
      // A mismatch-aware attacker overshoots: demand x̂_victim ≥ 1400 ms and
      // keep own links with extra headroom, so residual pull-back from the
      // unknown rows doesn't drop it below b_u.
      AttackContext robust = belief_ctx;
      robust.thresholds.upper += 600.0;
      robust.thresholds.lower -= 50.0;
      if (deploy_lands(chosen_victim_attack(robust, {victim})))
        ++overshoot_success;
    }
    t.add_row({Table::num(fraction, 2), std::to_string(attempts),
               Table::num(ratio(identifiable, attempts), 2),
               Table::num(ratio(success, attempts), 3),
               Table::num(ratio(overshoot_success, attempts), 3)});
  }
  t.print(std::cout);
  std::cout
      << "\nHidden paths act as trusted anchors: the clean rows the attacker "
         "doesn't model\npull the least-squares fit back toward the truth, "
         "and below ~90% knowledge the\nattacker usually cannot even invert "
         "its belief system to plan. Even an\novershooting attacker fails "
         "with 2% of paths hidden. Keeping a few secret\nmeasurement paths "
         "is a cheap, effective §VI mitigation.\n";
  return 0;
}
