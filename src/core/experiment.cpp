#include "core/experiment.hpp"

#include <algorithm>
#include <string_view>

#include "attack/chosen_victim.hpp"
#include "attack/cut.hpp"
#include "attack/max_damage.hpp"
#include "attack/obfuscation.hpp"
#include "core/checkpoint_runner.hpp"
#include "detect/detector.hpp"
#include "obs/obs.hpp"
#include "tomography/routing_matrix.hpp"
#include "topology/geometric.hpp"
#include "topology/isp.hpp"

namespace scapegoat {

std::string to_string(TopologyKind k) {
  return k == TopologyKind::kWireline ? "wireline" : "wireless";
}

std::string to_string(AttackStrategy s) {
  switch (s) {
    case AttackStrategy::kChosenVictim:
      return "chosen-victim";
    case AttackStrategy::kMaxDamage:
      return "maximum-damage";
    case AttackStrategy::kObfuscation:
      return "obfuscation";
  }
  return "?";
}

std::optional<Scenario> make_scenario(TopologyKind kind, Rng& rng,
                                      const ScenarioConfig& config,
                                      std::size_t redundant_paths) {
  Graph g;
  if (kind == TopologyKind::kWireline) {
    g = isp_topology(IspParams{}, rng);
  } else {
    g = random_geometric(GeometricParams{}, rng).graph;
  }
  return Scenario::from_graph(std::move(g), rng, config, redundant_paths);
}

std::optional<Scenario> internal::draw_topology(TopologyKind kind,
                                                std::uint64_t base,
                                                std::uint64_t salt,
                                                std::size_t t) {
  Rng rng(derive_seed(base ^ salt, t));
  std::optional<Scenario> sc = make_scenario(kind, rng);
  if (sc) sc->estimator().pseudo_inverse();
  return sc;
}

std::optional<PerfectCutSample> grow_perfect_cut(const Scenario& sc,
                                                 std::size_t target_size,
                                                 Rng& rng) {
  const Graph& g = sc.graph();
  std::vector<NodeId> non_monitors;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (!sc.is_monitor(v)) non_monitors.push_back(v);
  if (non_monitors.empty()) return std::nullopt;

  const NodeId seed = non_monitors[rng.index(non_monitors.size())];
  std::vector<bool> in_s(g.num_nodes(), false);
  std::vector<NodeId> s{seed};
  in_s[seed] = true;
  // Randomized BFS growth over non-monitor neighbors.
  for (std::size_t i = 0; i < s.size() && s.size() < target_size; ++i) {
    std::vector<Adjacent> nbrs = g.neighbors(s[i]);
    rng.shuffle(nbrs);
    for (const Adjacent& a : nbrs) {
      if (s.size() >= target_size) break;
      if (in_s[a.neighbor] || sc.is_monitor(a.neighbor)) continue;
      in_s[a.neighbor] = true;
      s.push_back(a.neighbor);
    }
  }

  PerfectCutSample out;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const Link& link = g.link(l);
    if (in_s[link.u] && in_s[link.v]) out.internal_links.push_back(l);
  }
  if (out.internal_links.empty()) return std::nullopt;
  std::vector<bool> is_attacker(g.num_nodes(), false);
  for (NodeId v : s) {
    for (const Adjacent& a : g.neighbors(v)) {
      if (!in_s[a.neighbor] && !is_attacker[a.neighbor]) {
        is_attacker[a.neighbor] = true;
        out.attackers.push_back(a.neighbor);
      }
    }
  }
  if (out.attackers.empty()) return std::nullopt;
  return out;
}

namespace {

// Stream-namespace salts: topology draws, clean-baseline runs, and the
// attack-trial families each derive seeds in their own namespace so no two
// purposes ever share an RNG stream (see derive_seed in util/random.hpp).
constexpr std::uint64_t kTopologySalt = 0x7090a10975a17ull;
constexpr std::uint64_t kTrialSalt = 0x7121a15a175ull;
constexpr std::uint64_t kCleanSalt = 0xc1ea9ba5e11ull;
constexpr std::uint64_t kPerfectSalt = 0x9e2fec7c07ull;
constexpr std::uint64_t kImperfectSalt = 0x19e2fec7c07ull;

constexpr std::size_t kMaxAttackers = 6;  // Fig. 7 attacker count U[1, max]
constexpr std::size_t kMinObfuscationVictims = 5;  // §V-C2 success bar

// Random attacker node set of size `count` (monitors are eligible — the
// paper's §II-D explicitly allows malicious monitors).
std::vector<NodeId> sample_attackers(const Graph& g, std::size_t count,
                                     Rng& rng) {
  return rng.sample_without_replacement(g.num_nodes(), count);
}

// Random victim link not controlled by the attackers; nullopt if all links
// are attacker-incident.
std::optional<LinkId> sample_victim(const Graph& g,
                                    const std::vector<LinkId>& controlled,
                                    Rng& rng) {
  std::vector<bool> bad(g.num_links(), false);
  for (LinkId l : controlled) bad[l] = true;
  std::vector<LinkId> pool;
  for (LinkId l = 0; l < g.num_links(); ++l)
    if (!bad[l]) pool.push_back(l);
  if (pool.empty()) return std::nullopt;
  return pool[rng.index(pool.size())];
}

// Trial outputs here are small tuples of flags and indices, journaled as
// ':'-separated decimal fields.
using internal::append_u64_field;
using internal::split_u64_fields;

struct PresenceTrialOut {
  bool counted = false;
  std::size_t bin = 0;
  bool success = false;
};

// One Fig. 7 trial on a private scenario copy and a private RNG stream.
PresenceTrialOut presence_trial(Scenario& sc, const PresenceRatioOptions& opt,
                                Rng& rng) {
  PresenceTrialOut out;
  sc.resample_metrics(rng);
  const auto& paths = sc.estimator().paths();
  const std::size_t na =
      static_cast<std::size_t>(rng.uniform_int(1, kMaxAttackers));

  // Pick the victim first; draw attackers either uniformly (low-ratio
  // regime) or from the nodes sitting on the victim's measurement paths
  // (mid/high-ratio regime), so every presence-ratio bin receives
  // trials — purely uniform placement concentrates mass near ratio 0.
  const LinkId victim = rng.index(sc.graph().num_links());
  std::vector<NodeId> attackers;
  if (rng.bernoulli(0.5)) {
    attackers = sample_attackers(sc.graph(), na, rng);
  } else {
    std::vector<NodeId> on_victim_paths;
    std::vector<bool> seen(sc.graph().num_nodes(), false);
    for (std::size_t i : paths_through_links(paths, {victim})) {
      for (NodeId v : paths[i].nodes) {
        const Link& vl = sc.graph().link(victim);
        if (v != vl.u && v != vl.v && !seen[v]) {
          seen[v] = true;
          on_victim_paths.push_back(v);
        }
      }
    }
    rng.shuffle(on_victim_paths);
    for (std::size_t i = 0; i < na && i < on_victim_paths.size(); ++i)
      attackers.push_back(on_victim_paths[i]);
    if (attackers.empty()) attackers = sample_attackers(sc.graph(), na, rng);
  }

  AttackContext ctx = sc.context(attackers);
  const auto& lm = ctx.controlled_links();
  if (std::find(lm.begin(), lm.end(), victim) != lm.end())
    return out;  // victim became attacker-controlled — not a scapegoat
  const PresenceRatio pr = attack_presence_ratio(paths, attackers, {victim});
  if (pr.victim_paths == 0) return out;  // cannot happen when identifiable

  const double ratio = pr.ratio();
  if (ratio >= 1.0 - 1e-12) {
    out.bin = opt.bins;  // exact perfect cut
  } else {
    out.bin =
        std::min(static_cast<std::size_t>(ratio * opt.bins), opt.bins - 1);
  }
  out.success = chosen_victim_attack(ctx, {victim}).success;
  out.counted = true;
  return out;
}

std::string encode_trial(const PresenceTrialOut& o) {
  std::string s;
  append_u64_field(s, o.counted ? 1 : 0);
  append_u64_field(s, o.bin);
  append_u64_field(s, o.success ? 1 : 0);
  return s;
}

bool decode_trial(std::string_view payload, PresenceTrialOut& o) {
  std::uint64_t f[3];
  if (!split_u64_fields(payload, f, 3)) return false;
  o.counted = f[0] != 0;
  o.bin = static_cast<std::size_t>(f[1]);
  o.success = f[2] != 0;
  return true;
}

// Result-affecting configuration only: threads/grain/resilience are absent
// by design so a journal resumes correctly at any thread count.
std::uint64_t presence_config_hash(TopologyKind kind,
                                   const PresenceRatioOptions& opt) {
  robust::ConfigHasher h;
  h.mix("fig7.presence_ratio");
  h.mix(to_string(kind));
  h.mix(static_cast<std::uint64_t>(opt.seed));
  h.mix(opt.topologies);
  h.mix(opt.trials_per_topology);
  h.mix(kMaxAttackers);
  h.mix(opt.bins);
  return h.hash();
}

}  // namespace

PresenceRatioSeries run_presence_ratio_experiment(
    TopologyKind kind, const PresenceRatioOptions& opt) {
  PresenceRatioSeries series;
  series.kind = kind;
  series.bins.resize(opt.bins + 1);
  for (std::size_t b = 0; b < opt.bins; ++b) {
    series.bins[b].ratio_low = static_cast<double>(b) / opt.bins;
    series.bins[b].ratio_high = static_cast<double>(b + 1) / opt.bins;
  }
  series.bins.back().ratio_low = series.bins.back().ratio_high = 1.0;

  const std::uint64_t base =
      opt.seed + (kind == TopologyKind::kWireline ? 0 : 0x9e3779b9u);

  obs::ScopedSpan run_span("core.fig7.run");
  run_span.attr("kind", to_string(kind));

  internal::CheckpointedRun run(opt, opt.resilience, "fig7.presence_ratio",
                                presence_config_hash(kind, opt));
  const std::size_t n = opt.trials_per_topology;
  for (std::size_t t = 0; t < opt.topologies; ++t) {
    std::optional<Scenario> sc =
        internal::draw_topology(kind, base, kTopologySalt, t);
    if (!sc) continue;
    if (!run.run_block(
            *sc, {"trial", t * n, n, base ^ kTrialSalt, "core.fig7.trial"},
            [&](Scenario& local, std::uint64_t, Rng& rng) {
              return presence_trial(local, opt, rng);
            },
            [&](std::size_t, const PresenceTrialOut& o) {
              if (!o.counted) return;
              ++series.bins[o.bin].trials;
              if (o.success) ++series.bins[o.bin].successes;
              ++series.total_trials;
              obs::count("core.fig7.trials");
              if (o.success) obs::count("core.fig7.successes");
            }))
      break;
  }
  run.report(series);
  run_span.attr("trials", static_cast<std::uint64_t>(series.total_trials));
  return series;
}

namespace {

struct SingleTrialOut {
  bool max_damage = false;
  bool obfuscation = false;
};

// One Fig. 8 trial: a lone attacker runs both §V-C constructions.
SingleTrialOut single_attacker_trial(Scenario& sc, Rng& rng) {
  SingleTrialOut out;
  sc.resample_metrics(rng);
  const NodeId attacker = rng.index(sc.graph().num_nodes());
  AttackContext ctx = sc.context({attacker});

  MaxDamageOptions md;
  md.max_candidates = 32;
  md.max_victims = 4;
  out.max_damage = max_damage_attack(ctx, md).best.success;

  ObfuscationOptions ob;
  ob.min_victims = kMinObfuscationVictims;
  ob.max_victims = 24;
  out.obfuscation = obfuscation_attack(ctx, ob).success;
  return out;
}

std::string encode_trial(const SingleTrialOut& o) {
  std::string s;
  append_u64_field(s, o.max_damage ? 1 : 0);
  append_u64_field(s, o.obfuscation ? 1 : 0);
  return s;
}

bool decode_trial(std::string_view payload, SingleTrialOut& o) {
  std::uint64_t f[2];
  if (!split_u64_fields(payload, f, 2)) return false;
  o.max_damage = f[0] != 0;
  o.obfuscation = f[1] != 0;
  return true;
}

std::uint64_t single_config_hash(TopologyKind kind,
                                 const SingleAttackerOptions& opt) {
  robust::ConfigHasher h;
  h.mix("fig8.single_attacker");
  h.mix(to_string(kind));
  h.mix(static_cast<std::uint64_t>(opt.seed));
  h.mix(opt.topologies);
  h.mix(opt.trials_per_topology);
  h.mix(kMinObfuscationVictims);
  return h.hash();
}

}  // namespace

SingleAttackerResult run_single_attacker_experiment(
    TopologyKind kind, const SingleAttackerOptions& opt) {
  SingleAttackerResult out;
  out.kind = kind;
  const std::uint64_t base =
      opt.seed + (kind == TopologyKind::kWireline ? 0 : 0x51f15ee5u);

  internal::CheckpointedRun run(opt, opt.resilience, "fig8.single_attacker",
                                single_config_hash(kind, opt));
  const std::size_t n = opt.trials_per_topology;
  for (std::size_t t = 0; t < opt.topologies; ++t) {
    std::optional<Scenario> sc =
        internal::draw_topology(kind, base, kTopologySalt, t);
    if (!sc) continue;
    if (!run.run_block(
            *sc, {"trial", t * n, n, base ^ kTrialSalt},
            [&](Scenario& local, std::uint64_t, Rng& rng) {
              return single_attacker_trial(local, rng);
            },
            [&](std::size_t, const SingleTrialOut& o) {
              if (o.max_damage) ++out.max_damage_successes;
              if (o.obfuscation) ++out.obfuscation_successes;
              ++out.trials;
              obs::count("core.fig8.trials");
              if (o.max_damage) obs::count("core.fig8.max_damage_successes");
              if (o.obfuscation) obs::count("core.fig8.obfuscation_successes");
            }))
      break;
  }
  run.report(out);
  return out;
}

namespace {

DetectionCell& cell_for(DetectionSeries& series, AttackStrategy s,
                        bool perfect) {
  for (DetectionCell& c : series.cells)
    if (c.strategy == s && c.perfect_cut == perfect) return c;
  series.cells.push_back(DetectionCell{s, perfect, 0, 0});
  return series.cells.back();
}

// Per-strategy outcome of one detection trial, computed entirely inside the
// worker; the serial fold only applies the per-cell sampling budget.
struct StrategyOut {
  bool success = false;
  bool perfect = false;
  bool detected = false;
};

struct DetectionTrialOut {
  StrategyOut chosen, max_damage, obfuscation;
};

// Nine flags, one field per strategy encoded as success·4 + perfect·2 +
// detected.
std::uint64_t pack_strategy(const StrategyOut& o) {
  return (o.success ? 4u : 0u) | (o.perfect ? 2u : 0u) | (o.detected ? 1u : 0u);
}

StrategyOut unpack_strategy(std::uint64_t v) {
  StrategyOut o;
  o.success = (v & 4u) != 0;
  o.perfect = (v & 2u) != 0;
  o.detected = (v & 1u) != 0;
  return o;
}

std::string encode_trial(const DetectionTrialOut& o) {
  std::string s;
  append_u64_field(s, pack_strategy(o.chosen));
  append_u64_field(s, pack_strategy(o.max_damage));
  append_u64_field(s, pack_strategy(o.obfuscation));
  return s;
}

bool decode_trial(std::string_view payload, DetectionTrialOut& o) {
  std::uint64_t f[3];
  if (!split_u64_fields(payload, f, 3)) return false;
  o.chosen = unpack_strategy(f[0]);
  o.max_damage = unpack_strategy(f[1]);
  o.obfuscation = unpack_strategy(f[2]);
  return true;
}

// A false-alarm baseline trial: one flag, the detector's verdict on honest
// measurements.
struct CleanTrialOut {
  bool alarm = false;
};

std::string encode_trial(const CleanTrialOut& o) {
  std::string s;
  append_u64_field(s, o.alarm ? 1 : 0);
  return s;
}

bool decode_trial(std::string_view payload, CleanTrialOut& o) {
  std::uint64_t alarm = 0;
  if (!split_u64_fields(payload, &alarm, 1)) return false;
  o.alarm = alarm != 0;
  return true;
}

std::uint64_t detection_config_hash(TopologyKind kind,
                                    const DetectionOptionsExperiment& opt) {
  robust::ConfigHasher h;
  h.mix("fig9.detection");
  h.mix(to_string(kind));
  h.mix(static_cast<std::uint64_t>(opt.seed));
  h.mix(opt.topologies);
  h.mix(opt.successful_attacks_per_cell);
  h.mix(opt.max_trials_per_cell);
  h.mix(opt.alpha);
  return h.hash();
}

StrategyOut eval_attack(const Scenario& sc,
                        const std::vector<NodeId>& attackers,
                        const AttackResult& res, const DetectorOptions& det) {
  StrategyOut out;
  if (!res.success) return out;
  out.success = true;
  out.perfect = is_perfect_cut(sc.estimator().paths(), attackers, res.victims);
  out.detected =
      detect_scapegoating(sc.estimator(), res.y_observed, det).detected;
  return out;
}

// Perfect-cut trial: enclose a non-monitor region, attack its internal
// links with the Theorem-1 consistent construction.
DetectionTrialOut perfect_cut_trial(Scenario& sc,
                                    const DetectorOptions& det, Rng& rng) {
  DetectionTrialOut out;
  sc.resample_metrics(rng);
  auto sample = grow_perfect_cut(sc, 8, rng);
  if (!sample) return out;
  AttackContext ctx = sc.context(sample->attackers);

  const LinkId victim =
      sample->internal_links[rng.index(sample->internal_links.size())];
  out.chosen = eval_attack(
      sc, sample->attackers,
      chosen_victim_attack(ctx, {victim}, ManipulationMode::kConsistent), det);

  MaxDamageOptions md;
  md.mode = ManipulationMode::kConsistent;
  md.candidate_victims = sample->internal_links;
  md.max_victims = 3;
  out.max_damage =
      eval_attack(sc, sample->attackers, max_damage_attack(ctx, md).best, det);

  ObfuscationOptions ob;
  ob.mode = ManipulationMode::kConsistent;
  ob.candidate_victims = sample->internal_links;
  ob.min_victims = std::min<std::size_t>(5, sample->internal_links.size());
  out.obfuscation =
      eval_attack(sc, sample->attackers, obfuscation_attack(ctx, ob), det);
  return out;
}

// Imperfect-cut trial: random attacker placements, damage-maximizing
// manipulation (the stealthy construction is infeasible here).
DetectionTrialOut imperfect_cut_trial(Scenario& sc,
                                      const DetectorOptions& det, Rng& rng) {
  DetectionTrialOut out;
  sc.resample_metrics(rng);
  const std::size_t na = static_cast<std::size_t>(rng.uniform_int(1, 4));
  std::vector<NodeId> attackers = sample_attackers(sc.graph(), na, rng);
  AttackContext ctx = sc.context(attackers);

  std::optional<LinkId> victim =
      sample_victim(sc.graph(), ctx.controlled_links(), rng);
  if (victim) {
    out.chosen =
        eval_attack(sc, attackers, chosen_victim_attack(ctx, {*victim}), det);
  }

  MaxDamageOptions md;
  md.max_candidates = 24;
  md.max_victims = 3;
  out.max_damage =
      eval_attack(sc, attackers, max_damage_attack(ctx, md).best, det);

  ObfuscationOptions ob;
  ob.max_victims = 24;
  out.obfuscation = eval_attack(sc, attackers, obfuscation_attack(ctx, ob), det);
  return out;
}

}  // namespace

DetectionSeries run_detection_experiment(
    TopologyKind kind, const DetectionOptionsExperiment& opt) {
  DetectionSeries series;
  series.kind = kind;
  for (AttackStrategy s :
       {AttackStrategy::kChosenVictim, AttackStrategy::kMaxDamage,
        AttackStrategy::kObfuscation})
    for (bool perfect : {true, false}) cell_for(series, s, perfect);

  const DetectorOptions detector{opt.alpha};
  const std::uint64_t base =
      opt.seed + (kind == TopologyKind::kWireline ? 0 : 0xdec0deu);

  // Trials are computed in fixed-size waves (worker threads fill a wave in
  // parallel) and folded serially in trial order with the per-cell budget.
  // Budget decisions therefore depend only on the trial index order, never
  // on scheduling: results are identical at every thread count, and a wave's
  // surplus trials past the budget are discarded identically everywhere.
  constexpr std::size_t kWave = 32;
  constexpr std::size_t kCleanTrials = 20;

  auto fold = [&](AttackStrategy s, const StrategyOut& o) {
    if (!o.success) return;
    DetectionCell& cell = cell_for(series, s, o.perfect);
    if (cell.attacks >= opt.successful_attacks_per_cell) return;
    ++cell.attacks;
    if (o.detected) ++cell.detected;
    obs::count("core.fig9.attacks");
    if (o.detected) obs::count("core.fig9.detected");
  };

  internal::CheckpointedRun run(opt, opt.resilience, "fig9.detection",
                                detection_config_hash(kind, opt));

  for (std::size_t t = 0; t < opt.topologies && !run.interrupted(); ++t) {
    std::optional<Scenario> sc =
        internal::draw_topology(kind, base, kTopologySalt, t);
    if (!sc) continue;

    // False-alarm baseline: honest measurements through the detector. Its
    // trials journal under the "clean" family — a separate index space from
    // the attack waves below.
    if (!run.run_block(
            *sc, {"clean", t * kCleanTrials, kCleanTrials, base ^ kCleanSalt},
            [&](Scenario& local, std::uint64_t, Rng& rng) {
              local.resample_metrics(rng);
              return CleanTrialOut{
                  detect_scapegoating(local.estimator(),
                                      local.clean_measurements(), detector)
                      .detected};
            },
            [&](std::size_t, const CleanTrialOut& o) {
              ++series.clean_trials;
              if (o.alarm) ++series.false_alarms;
              obs::count("core.fig9.clean_trials");
              if (o.alarm) obs::count("core.fig9.false_alarms");
            }))
      break;

    for (bool perfect_phase : {true, false}) {
      if (run.interrupted()) break;
      const std::uint64_t salt = perfect_phase ? kPerfectSalt : kImperfectSalt;
      const std::string_view family = perfect_phase ? "perfect" : "imperfect";
      auto phase_full = [&] {
        return cell_for(series, AttackStrategy::kChosenVictim, perfect_phase)
                       .attacks >= opt.successful_attacks_per_cell &&
               cell_for(series, AttackStrategy::kMaxDamage, perfect_phase)
                       .attacks >= opt.successful_attacks_per_cell &&
               cell_for(series, AttackStrategy::kObfuscation, perfect_phase)
                       .attacks >= opt.successful_attacks_per_cell;
      };
      std::size_t next = 0;
      while (!phase_full() && next < opt.max_trials_per_cell) {
        const std::size_t wave_end =
            std::min(next + kWave, opt.max_trials_per_cell);
        // Every wave trial is journaled (surplus included, so a resume
        // never recomputes them); the per-cell budget fold keeps the
        // original semantics — no folds once the phase is full. phase_full
        // is monotone, so gating per trial equals stopping the fold.
        if (!run.run_block(
                *sc,
                {family, t * opt.max_trials_per_cell + next, wave_end - next,
                 base ^ salt},
                [&](Scenario& local, std::uint64_t, Rng& rng) {
                  return perfect_phase
                             ? perfect_cut_trial(local, detector, rng)
                             : imperfect_cut_trial(local, detector, rng);
                },
                [&](std::size_t, const DetectionTrialOut& o) {
                  if (phase_full()) return;
                  fold(AttackStrategy::kChosenVictim, o.chosen);
                  fold(AttackStrategy::kMaxDamage, o.max_damage);
                  fold(AttackStrategy::kObfuscation, o.obfuscation);
                }))
          break;
        next = wave_end;
      }
    }
  }
  run.report(series);
  return series;
}

}  // namespace scapegoat
