#include "core/defender_ablation.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <ostream>

#include "attack/chosen_victim.hpp"
#include "attack/loss_scapegoat.hpp"
#include "attack/sparse_aware.hpp"
#include "core/checkpoint_runner.hpp"
#include "detect/detector.hpp"
#include "obs/obs.hpp"
#include "simnet/multicast_probe.hpp"
#include "tomography/sparse_recovery.hpp"

namespace scapegoat {

std::string to_string(AttackFamily f) {
  switch (f) {
    case AttackFamily::kUnrestricted:
      return "unrestricted";
    case AttackFamily::kConsistent:
      return "consistent";
    case AttackFamily::kSparseAware:
      return "sparse-aware";
  }
  return "?";
}

std::optional<AttackFamily> attack_family_from_string(std::string_view s) {
  if (s == "unrestricted") return AttackFamily::kUnrestricted;
  if (s == "consistent") return AttackFamily::kConsistent;
  if (s == "sparse-aware") return AttackFamily::kSparseAware;
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, AttackFamily f) {
  return os << to_string(f);
}

namespace {

constexpr std::uint64_t kAblTopologySalt = 0xab1a70b010ull;
constexpr std::uint64_t kAblTrialSalt = 0xab17121a1ull;
constexpr std::uint64_t kAblCleanSalt = 0xab1c1ea9ull;

using internal::append_u64_field;
using internal::split_u64_fields;

// The defender panel for one topology: the scenario's own least-squares
// estimator plus one SparseRecoveryEstimator per swept ε, all anchored to
// the topology's baseline metrics as the prior.
struct DefenderPanel {
  std::vector<std::unique_ptr<SparseRecoveryEstimator>> sparse;
};

DefenderPanel build_panel(const Scenario& sc,
                          const DefenderAblationOptions& opt) {
  DefenderPanel panel;
  for (double eps : opt.defender_epsilons_ms) {
    SparseRecoveryOptions so;
    so.epsilon_ms = eps;
    so.prior = sc.x_true();
    panel.sparse.push_back(std::make_unique<SparseRecoveryEstimator>(
        sc.graph(), sc.estimator().paths(), so));
  }
  return panel;
}

struct TrialOut {
  bool counted = false;  // attack succeeded and was evaluated
  bool ls = false;
  std::uint32_t sparse_mask = 0;  // bit e = defender ε index e fired
};

// Plants the k-sparse anomaly over the baseline, runs the family's attack,
// and puts the SAME observed y′ in front of every defender.
TrialOut attack_trial(const Scenario& sc, const DefenderPanel& panel,
                      AttackFamily family, std::size_t k,
                      const DefenderAblationOptions& opt, Rng& rng) {
  TrialOut out;
  const std::size_t num_links = sc.graph().num_links();
  Vector x = sc.x_true();
  for (std::size_t l :
       rng.sample_without_replacement(num_links, std::min(k, num_links)))
    x[l] += opt.anomaly_delay_ms;

  Vector y_observed;
  if (family == AttackFamily::kUnrestricted) {
    const std::size_t na = static_cast<std::size_t>(rng.uniform_int(1, 4));
    AttackContext ctx =
        sc.context(rng.sample_without_replacement(sc.graph().num_nodes(), na));
    ctx.x_true = x;
    const std::vector<std::size_t>& on = ctx.attacker_path_indices();
    if (on.empty()) return out;
    y_observed = ctx.true_measurements();
    const double delta = std::min(opt.attack_epsilon_ms, ctx.per_path_cap);
    for (std::size_t i : on) y_observed[i] += delta;
  } else {
    std::optional<PerfectCutSample> cut = grow_perfect_cut(sc, 8, rng);
    if (!cut) return out;
    AttackContext ctx = sc.context(cut->attackers);
    ctx.x_true = x;
    const LinkId victim =
        cut->internal_links[rng.index(cut->internal_links.size())];
    AttackResult res;
    if (family == AttackFamily::kConsistent) {
      res = chosen_victim_attack(ctx, {victim}, ManipulationMode::kConsistent);
    } else {
      SparseAwareOptions sa;
      sa.epsilon_ms = opt.attack_epsilon_ms;
      res = sparse_aware_attack(ctx, {victim}, sa);
    }
    if (!res.success) return out;
    y_observed = std::move(res.y_observed);
  }
  if (opt.noise_ms > 0.0)
    for (double& yi : y_observed) yi += rng.uniform(0.0, opt.noise_ms);

  const DetectorOptions det{opt.alpha};
  out.ls = detect_scapegoating(sc.estimator(), y_observed, det).detected;
  for (std::size_t e = 0; e < panel.sparse.size(); ++e)
    if (detect_scapegoating(*panel.sparse[e], y_observed, det).detected)
      out.sparse_mask |= 1u << e;
  out.counted = true;
  return out;
}

// Honest trial: anomaly + noise, no manipulation. `counted` is always true.
TrialOut clean_trial(const Scenario& sc, const DefenderPanel& panel,
                     const DefenderAblationOptions& opt, Rng& rng) {
  TrialOut out;
  const std::size_t num_links = sc.graph().num_links();
  const std::size_t k =
      opt.anomaly_sparsity.empty()
          ? 1
          : opt.anomaly_sparsity[rng.index(opt.anomaly_sparsity.size())];
  Vector x = sc.x_true();
  for (std::size_t l :
       rng.sample_without_replacement(num_links, std::min(k, num_links)))
    x[l] += opt.anomaly_delay_ms;
  Vector y = sc.estimator().sparse_r() * x;
  if (opt.noise_ms > 0.0)
    for (double& yi : y) yi += rng.uniform(0.0, opt.noise_ms);

  const DetectorOptions det{opt.alpha};
  out.ls = detect_scapegoating(sc.estimator(), y, det).detected;
  for (std::size_t e = 0; e < panel.sparse.size(); ++e)
    if (detect_scapegoating(*panel.sparse[e], y, det).detected)
      out.sparse_mask |= 1u << e;
  out.counted = true;
  return out;
}

// Journal payload: counted:ls:sparse_mask in decimal.
std::string encode_trial(const TrialOut& o) {
  std::string s;
  append_u64_field(s, o.counted ? 1 : 0);
  append_u64_field(s, o.ls ? 1 : 0);
  append_u64_field(s, o.sparse_mask);
  return s;
}

bool decode_trial(std::string_view payload, TrialOut& o) {
  std::uint64_t f[3];
  if (!split_u64_fields(payload, f, 3) || f[2] > 0xffffffffu)
    return false;
  o.counted = f[0] != 0;
  o.ls = f[1] != 0;
  o.sparse_mask = static_cast<std::uint32_t>(f[2]);
  return true;
}

// Result-affecting configuration only (threads/grain/resilience are absent,
// so a journal resumes at any thread count).
std::uint64_t defender_config_hash(const DefenderAblationOptions& opt) {
  robust::ConfigHasher h;
  h.mix("defender_ablation");
  h.mix(to_string(opt.kind));
  h.mix(static_cast<std::uint64_t>(opt.seed));
  h.mix(opt.topologies);
  h.mix(opt.trials_per_cell);
  h.mix(opt.clean_trials);
  h.mix(opt.anomaly_sparsity.size());
  for (std::size_t k : opt.anomaly_sparsity) h.mix(k);
  h.mix(opt.defender_epsilons_ms.size());
  for (double e : opt.defender_epsilons_ms) h.mix(e);
  h.mix(opt.families.size());
  for (AttackFamily f : opt.families) h.mix(to_string(f));
  h.mix(opt.alpha);
  h.mix(opt.anomaly_delay_ms);
  h.mix(opt.noise_ms);
  h.mix(opt.attack_epsilon_ms);
  return h.hash();
}

}  // namespace

AblationSeries run_defender_ablation(const DefenderAblationOptions& opt) {
  assert(opt.defender_epsilons_ms.size() <= 32 &&
         "sparse_mask packs one bit per swept ε");
  AblationSeries series;
  series.kind = opt.kind;
  series.epsilons = opt.defender_epsilons_ms;
  series.sparse_false_alarms.assign(opt.defender_epsilons_ms.size(), 0);
  const std::size_t ne = opt.defender_epsilons_ms.size();
  for (AttackFamily f : opt.families) {
    for (std::size_t k : opt.anomaly_sparsity) {
      AblationCell cell;
      cell.family = f;
      cell.sparsity = k;
      cell.sparse_detected.assign(ne, 0);
      cell.ls_only.assign(ne, 0);
      cell.sparse_only.assign(ne, 0);
      series.cells.push_back(std::move(cell));
    }
  }

  const std::uint64_t base =
      opt.seed + (opt.kind == TopologyKind::kWireline ? 0 : 0xab1f1ee5u);

  obs::ScopedSpan run_span("core.ablation.run");
  run_span.attr("kind", to_string(opt.kind));

  internal::CheckpointedRun run(opt, opt.resilience, "defender_ablation",
                                defender_config_hash(opt));
  const std::size_t per_topology = series.cells.size() * opt.trials_per_cell;

  for (std::size_t t = 0; t < opt.topologies; ++t) {
    std::optional<Scenario> sc =
        internal::draw_topology(opt.kind, base, kAblTopologySalt, t);
    if (!sc) continue;
    const DefenderPanel panel = build_panel(*sc, opt);

    // Clean block: one index space per topology.
    if (!run.run_block(
            *sc,
            {"clean", t * opt.clean_trials, opt.clean_trials,
             base ^ kAblCleanSalt},
            [&](const Scenario& local, std::uint64_t, Rng& rng) {
              return clean_trial(local, panel, opt, rng);
            },
            [&](std::size_t, const TrialOut& o) {
              ++series.clean_trials;
              if (o.ls) ++series.ls_false_alarms;
              for (std::size_t e = 0; e < ne; ++e)
                if (o.sparse_mask & (1u << e)) ++series.sparse_false_alarms[e];
              obs::count("core.ablation.clean_trials");
              if (o.ls || o.sparse_mask != 0)
                obs::count("core.ablation.false_alarms");
            }))
      break;

    // Attack block: cells × trials flattened, trial i in cell i / trials.
    if (!run.run_block(
            *sc,
            {"trial", t * per_topology, per_topology, base ^ kAblTrialSalt,
             "core.ablation.trial"},
            [&](const Scenario& local, std::uint64_t g, Rng& rng) {
              const AblationCell& cell =
                  series.cells[(g - t * per_topology) / opt.trials_per_cell];
              return attack_trial(local, panel, cell.family, cell.sparsity,
                                  opt, rng);
            },
            [&](std::size_t i, const TrialOut& o) {
              ++series.total_trials;
              if (!o.counted) return;
              AblationCell& cell = series.cells[i / opt.trials_per_cell];
              ++cell.attacks;
              if (o.ls) ++cell.ls_detected;
              for (std::size_t e = 0; e < ne; ++e) {
                const bool sp = (o.sparse_mask & (1u << e)) != 0;
                if (sp) ++cell.sparse_detected[e];
                if (o.ls && !sp) ++cell.ls_only[e];
                if (!o.ls && sp) ++cell.sparse_only[e];
              }
              obs::count("core.ablation.attacks");
              if (o.ls) obs::count("core.ablation.ls_detected");
              if (o.sparse_mask != 0)
                obs::count("core.ablation.sparse_detected");
            }))
      break;
  }
  run.report(series);
  run_span.attr("trials", static_cast<std::uint64_t>(series.total_trials));
  return series;
}

// ---- loss-domain ablation -------------------------------------------------

namespace {

constexpr std::uint64_t kLossTopoSalt = 0x10ab70b05ull;
constexpr std::uint64_t kLossTrialSalt = 0x10ab17121ull;
constexpr std::uint64_t kLossCleanSalt = 0x10abc1ea9ull;
constexpr std::uint64_t kLossProbeSalt = 0x10ab9b0beull;
// Upper end of the honest per-link delivery draw U[min_link_delivery, max].
constexpr double kMaxLinkDelivery = 1.0;
// Unicast-channel coins: per (link, packet) delivery and per (edge, packet)
// grey-hole drop. Unicast packets never share a coin — per-packet drops are
// i.i.d. whatever the family, which is exactly why this channel cannot see
// the split-framing anti-correlation.
constexpr std::uint64_t kLossLsLinkSalt = 0x10ab151145ull;
constexpr std::uint64_t kLossLsDropSalt = 0x10ab15d0ull;

double unit_hash(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
                 std::uint64_t b) {
  std::uint64_t s = seed ^ salt;
  s = derive_seed(a, s);
  s = derive_seed(b, s);
  s = derive_seed(0, s);
  return static_cast<double>(s >> 11) * 0x1.0p-53;
}

struct LossTrialOut {
  bool counted = false;
  bool blamed = false;
  bool mle = false;
  bool ls = false;
};

// The attacked physical edges: the first link of each framed chain (the
// grey hole sits at the attacker's graph node and drops what it forwards
// onto that edge).
std::vector<LinkId> attacked_edges(const MulticastTree& tree,
                                   const simnet::MulticastAdversary& adv) {
  std::vector<LinkId> edges;
  for (const simnet::GreyHoleRule& rule : adv.rules)
    edges.push_back(tree.nodes[rule.victim].chain.front());
  return edges;
}

// One trial, attack (family != nullptr) or clean. Both channels observe the
// same ground-truth deliveries; every random decision comes from `rng` or
// from pure hashes of `probe_seed`, never from scheduling.
LossTrialOut loss_trial(const Scenario& sc, const LossAttackFamily* family,
                        double rate, const LossAblationOptions& opt,
                        std::uint64_t probe_seed, Rng& rng) {
  LossTrialOut out;
  const Graph& g = sc.graph();

  // Root the tree at a monitor (the multicast source must be measurement
  // infrastructure); receivers are re-drawn on tree-construction failure
  // (e.g. a sampled receiver relaying for another).
  std::vector<NodeId> monitors;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (sc.is_monitor(v)) monitors.push_back(v);
  if (monitors.empty() || g.num_nodes() < 4) return out;
  const NodeId root = monitors[rng.index(monitors.size())];

  std::optional<MulticastTree> tree;
  for (int attempt = 0; attempt < 8 && !tree; ++attempt) {
    std::vector<NodeId> receivers;
    for (std::size_t v : rng.sample_without_replacement(
             g.num_nodes(), std::min(opt.receivers + 1, g.num_nodes()))) {
      if (v == root || receivers.size() >= opt.receivers) continue;
      receivers.push_back(v);
    }
    if (receivers.size() < 2) continue;
    auto built = build_multicast_tree(g, root, receivers);
    if (built.ok()) tree = std::move(*built);
  }
  if (!tree) return out;

  std::vector<double> delivery(g.num_links());
  for (double& d : delivery)
    d = rng.uniform(opt.min_link_delivery, kMaxLinkDelivery);

  simnet::MulticastAdversary adv;
  std::size_t victim_child = 0;
  if (family != nullptr) {
    // A non-root internal node with ≥ 2 children: framing a proper subtree
    // while a sibling subtree stays observed, with an own incoming chain
    // whose blame matters.
    std::vector<std::size_t> candidates;
    for (std::size_t k = 1; k < tree->num_nodes(); ++k)
      if (tree->nodes[k].children.size() >= 2) candidates.push_back(k);
    if (candidates.empty()) return out;
    const std::size_t attacker = candidates[rng.index(candidates.size())];
    const auto& kids = tree->nodes[attacker].children;
    victim_child = kids[rng.index(kids.size())];
    adv.drop_rate = rate;
    adv.rules.push_back({attacker, victim_child});
    if (*family == LossAttackFamily::kSplitFraming) {
      for (std::size_t c : kids)
        if (c != victim_child) {
          adv.rules.push_back({attacker, c});
          break;
        }
      adv.exclusive = true;
    }
  }

  // Multicast channel → MLE defender.
  simnet::MulticastProbeOptions popt;
  popt.probes = opt.probes;
  popt.seed = probe_seed;
  popt.link_delivery = delivery;
  popt.adversary = family != nullptr ? &adv : nullptr;
  popt.histogram_max_leaves = 0;
  const simnet::MulticastProbeRun run =
      simnet::run_multicast_probes(*tree, popt);

  MulticastMleEstimator defender(g, *tree);
  if (opt.probe_mode == simnet::ProbeMode::kMulticast)
    defender.ingest(run.obs);  // kUnicast: marginals-only completion
  const Vector y = run.leaf_loss_metrics();
  out.mle = detect_scapegoating(defender, y, DetectorOptions{opt.mle_alpha})
                .detected;
  if (family != nullptr) {
    const std::vector<LinkState> states =
        classify_all(defender.estimate(y), loss_thresholds());
    out.blamed = true;
    for (LinkId l : tree->nodes[victim_child].chain)
      out.blamed = out.blamed && states[l] == LinkState::kAbnormal;
  }

  // Unicast channel → the scenario's least-squares defender, fed per-path
  // loss metrics over its own monitor paths.
  const std::vector<Path>& paths = sc.estimator().paths();
  const std::vector<LinkId> edges =
      family != nullptr ? attacked_edges(*tree, adv) : std::vector<LinkId>{};
  Vector y_ls(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::size_t passed = 0;
    for (std::size_t j = 0; j < opt.probes; ++j) {
      const std::uint64_t packet = i * opt.probes + j;
      bool ok = true;
      for (LinkId l : paths[i].links)
        if (unit_hash(probe_seed, kLossLsLinkSalt, l, packet) >=
            delivery[l]) {
          ok = false;
          break;
        }
      if (ok)
        for (std::size_t e = 0; e < edges.size(); ++e)
          if (std::find(paths[i].links.begin(), paths[i].links.end(),
                        edges[e]) != paths[i].links.end() &&
              unit_hash(probe_seed, kLossLsDropSalt, e, packet) < rate) {
            ok = false;
            break;
          }
      if (ok) ++passed;
    }
    const double pass =
        static_cast<double>(passed) / static_cast<double>(opt.probes);
    y_ls[i] = -std::log(std::max(pass, 1e-9));
  }
  out.ls = detect_scapegoating(sc.estimator(), y_ls,
                               DetectorOptions{opt.ls_alpha})
               .detected;
  out.counted = true;
  return out;
}

// Journal payload: counted:blamed:mle:ls in decimal.
std::string encode_trial(const LossTrialOut& o) {
  std::string s;
  for (bool flag : {o.counted, o.blamed, o.mle, o.ls})
    append_u64_field(s, flag ? 1 : 0);
  return s;
}

bool decode_trial(std::string_view payload, LossTrialOut& o) {
  std::uint64_t f[4];
  if (!split_u64_fields(payload, f, 4)) return false;
  o.counted = f[0] != 0;
  o.blamed = f[1] != 0;
  o.mle = f[2] != 0;
  o.ls = f[3] != 0;
  return true;
}

std::uint64_t loss_config_hash(const LossAblationOptions& opt) {
  robust::ConfigHasher h;
  h.mix("loss_ablation");
  h.mix(to_string(opt.kind));
  h.mix(static_cast<std::uint64_t>(opt.seed));
  h.mix(opt.topologies);
  h.mix(opt.trials_per_cell);
  h.mix(opt.clean_trials);
  h.mix(opt.probes);
  h.mix(opt.receivers);
  h.mix(opt.drop_rates.size());
  for (double r : opt.drop_rates) h.mix(r);
  h.mix(opt.families.size());
  for (LossAttackFamily f : opt.families) h.mix(to_string(f));
  h.mix(to_string(opt.probe_mode));
  h.mix(opt.mle_alpha);
  h.mix(opt.ls_alpha);
  h.mix(opt.min_link_delivery);
  h.mix(kMaxLinkDelivery);
  return h.hash();
}

}  // namespace

LossAblationSeries run_loss_ablation(const LossAblationOptions& opt) {
  LossAblationSeries series;
  series.kind = opt.kind;
  series.probe_mode = opt.probe_mode;
  for (LossAttackFamily f : opt.families)
    for (double r : opt.drop_rates) {
      LossAblationCell cell;
      cell.family = f;
      cell.drop_rate = r;
      series.cells.push_back(cell);
    }

  const std::uint64_t base =
      opt.seed + (opt.kind == TopologyKind::kWireline ? 0 : 0xab1f1ee5u);

  obs::ScopedSpan run_span("core.loss_ablation.run");
  run_span.attr("kind", to_string(opt.kind));
  run_span.attr("probe_mode", to_string(opt.probe_mode));

  internal::CheckpointedRun run(opt, opt.resilience, "loss_ablation",
                                loss_config_hash(opt));
  const std::size_t per_topology = series.cells.size() * opt.trials_per_cell;

  for (std::size_t t = 0; t < opt.topologies; ++t) {
    std::optional<Scenario> sc =
        internal::draw_topology(opt.kind, base, kLossTopoSalt, t);
    if (!sc) continue;

    // Probe seeds interleave the two blocks: 2·g for clean trial g, 2·g + 1
    // for attack trial g.
    if (!run.run_block(
            *sc,
            {"clean", t * opt.clean_trials, opt.clean_trials,
             base ^ kLossCleanSalt},
            [&](const Scenario& local, std::uint64_t g, Rng& rng) {
              return loss_trial(local, nullptr, 0.0, opt,
                                derive_seed(base ^ kLossProbeSalt, 2 * g), rng);
            },
            [&](std::size_t, const LossTrialOut& o) {
              if (!o.counted) return;
              ++series.clean_trials;
              if (o.mle) ++series.mle_false_alarms;
              if (o.ls) ++series.ls_false_alarms;
              obs::count("core.loss_ablation.clean_trials");
              if (o.mle || o.ls) obs::count("core.loss_ablation.false_alarms");
            }))
      break;

    if (!run.run_block(
            *sc,
            {"trial", t * per_topology, per_topology, base ^ kLossTrialSalt,
             "core.loss_ablation.trial"},
            [&](const Scenario& local, std::uint64_t g, Rng& rng) {
              const LossAblationCell& cell =
                  series.cells[(g - t * per_topology) / opt.trials_per_cell];
              return loss_trial(local, &cell.family, cell.drop_rate, opt,
                                derive_seed(base ^ kLossProbeSalt, 2 * g + 1),
                                rng);
            },
            [&](std::size_t i, const LossTrialOut& o) {
              ++series.total_trials;
              if (!o.counted) return;
              LossAblationCell& cell = series.cells[i / opt.trials_per_cell];
              ++cell.attacks;
              if (o.blamed) ++cell.victim_blamed;
              if (o.mle) ++cell.mle_detected;
              if (o.ls) ++cell.ls_detected;
              if (o.mle && !o.ls) ++cell.mle_only;
              if (o.ls && !o.mle) ++cell.ls_only;
              obs::count("core.loss_ablation.attacks");
              if (o.mle) obs::count("core.loss_ablation.mle_detected");
              if (o.ls) obs::count("core.loss_ablation.ls_detected");
            }))
      break;
  }
  run.report(series);
  run_span.attr("trials", static_cast<std::uint64_t>(series.total_trials));
  return series;
}

}  // namespace scapegoat
