// Workload `paper_trials`: a serial loop of Fig. 9 imperfect-cut trials on a
// paper-size wireline deployment built once during set-up.
//
// Trial i takes deck slot (4·seed + i) mod 64: the slot's attacker set of 1–4
// nodes and routine link delays, and a victim outside the attackers' links
// drawn from (seed, slot). It then runs chosen-victim → maximum-damage (24
// candidates, up to 3 victims) → obfuscation (24) → the Eq. 23 detector on
// each successful attack, plus one detection on the clean measurements.
// Every pass of 64 trials repeats the same work.

#include <algorithm>
#include <limits>

#include "attack/chosen_victim.hpp"
#include "attack/max_damage.hpp"
#include "attack/obfuscation.hpp"
#include "common.hpp"
#include "detect/detector.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace scapegoat;

namespace {

constexpr std::uint64_t kTrialSalt = 0x7121a15a175ull;
constexpr std::uint64_t kDeckSalt = 0xa77ac4e5ull;
// Attacker sets and delays come from a fixed deck of 64 (16 of each attacker
// count 1–4) entered at a seed-chosen round. Which attackers and delays a run
// meets sets most of its LP work: drawing them per seed moved trials/s by
// 10–40% between the seeds of one set of runs.
constexpr std::uint64_t kDeck = 64;
// Per-operation latency is timed over rounds of 4 consecutive trials, which
// meet one attacker set of each size: single trials split into cheap (1–2
// attackers) and costly (3–4) modes with the median in the gap between them.
constexpr std::uint64_t kRound = 4;
constexpr std::uint64_t kRoundsPerPass = kDeck / kRound;
constexpr std::size_t kFingerprintTrials = 8;

struct TrialOutcome {
  std::uint64_t successes = 0;
  std::uint64_t alarms = 0;
  std::uint64_t false_alarms = 0;
  std::uint64_t failed_checks = 0;
  std::uint64_t signature = 0;  // success/detected flags, 2 bits per attack
};

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

TrialOutcome run_trial(Scenario& sc, std::uint64_t seed, std::uint64_t index,
                       bool tiny, Spans& spans) {
  TrialOutcome out;
  spans.set_op(index);
  // Entering at a multiple of kRound keeps each round the same 4 slots.
  const std::uint64_t slot = (kRound * seed + index) % kDeck;
  Rng deck(derive_seed(kDeckSalt, slot));
  const std::vector<NodeId> attackers =
      deck.sample_without_replacement(sc.graph().num_nodes(), 1 + slot % 4);
  sc.resample_metrics(deck);
  Rng victim_rng(derive_seed(seed ^ kTrialSalt, slot));
  const AttackContext ctx = sc.context(attackers);
  const DetectorOptions detector{200.0};  // α of §V-D
  const std::size_t candidates = tiny ? 6 : 24;

  // Runs the detector on a successful attack and checks its output.
  auto settle = [&](const AttackResult& res, bool chosen, int slot) {
    if (!res.success) return;
    ++out.successes;
    bool detected = false;
    {
      auto s = spans.span("detect.check");
      detected = detect_scapegoating(sc.estimator(), res.y_observed, detector)
                     .detected;
    }
    if (detected) ++out.alarms;
    out.signature |= (1ull | (detected ? 2ull : 0ull)) << (2 * slot);
    auto s = spans.span("bench.check");
    if (!satisfies_constraint1(ctx, res.m)) ++out.failed_checks;
    if (chosen && !verify_chosen_victim_result(ctx, res)) ++out.failed_checks;
  };

  if (std::optional<LinkId> victim =
          sample_victim(sc.graph(), ctx.controlled_links(), victim_rng)) {
    AttackResult res;
    {
      auto s = spans.span("attack.chosen_victim");
      res = chosen_victim_attack(ctx, {*victim});
    }
    settle(res, true, 0);
  }
  {
    MaxDamageOptions md;
    md.max_candidates = candidates;
    md.max_victims = 3;
    MaxDamageResult res;
    {
      auto s = spans.span("attack.max_damage");
      res = max_damage_attack(ctx, md);
    }
    settle(res.best, false, 1);
  }
  {
    ObfuscationOptions ob;
    ob.max_victims = candidates;
    AttackResult res;
    {
      auto s = spans.span("attack.obfuscation");
      res = obfuscation_attack(ctx, ob);
    }
    settle(res, false, 2);
  }
  // An honest network must not raise the alarm.
  bool clean_alarm = false;
  {
    auto s = spans.span("detect.check");
    clean_alarm =
        detect_scapegoating(sc.estimator(), sc.clean_measurements(), detector)
            .detected;
  }
  if (clean_alarm) {
    ++out.false_alarms;
    ++out.failed_checks;
  }
  return out;
}

std::optional<Scenario> set_up(const RunOptions& opt, Spans& spans) {
  return build_wireline(kTopologySeeds[0], derive_seed(kTopologySeeds[0], 1),
                        opt.seed, opt.tiny, spans);
}

}  // namespace

RunResult run_paper_trials(const RunOptions& opt) {
  RunResult out;
  Spans spans;
  const std::size_t setups = opt.tiny ? 1 : 9;

  // Set-up, timed several times; the last deployment is the one measured.
  std::vector<double> setup_times;
  std::optional<Scenario> sc;
  for (std::size_t k = 0; k < setups; ++k) {
    const Clock::time_point t0 = Clock::now();
    sc = set_up(opt, spans);
    setup_times.push_back(seconds_since(t0));
  }
  if (!sc) {
    out.attempted = out.failed = 1;
    out.notes.push_back("set-up failed: placement not identifiable");
    return out;
  }

  out.failed += check_deployment(*sc, 0, opt.tiny);
  Fingerprint fp;
  fp.mix(sc->estimator().num_paths());
  fp.mix(sc->monitors().size());
  // Fastest time of each round of a pass over all passes: the same 4 trials
  // (one per attacker count) at their least disturbed by the host.
  std::vector<double> round_ms(kRoundsPerPass,
                               std::numeric_limits<double>::infinity());
  Clock::time_point round0 = Clock::now();
  std::uint64_t successes = 0, alarms = 0, false_alarms = 0;
  auto trial = [&](std::uint64_t i) {
    if (i % kRound == 0) round0 = Clock::now();
    const TrialOutcome o = run_trial(*sc, opt.seed, i, opt.tiny, spans);
    if (i % kRound == kRound - 1) {
      double& best = round_ms[(i % kDeck) / kRound];
      best = std::min(best, seconds_since(round0) * 1e3);
    }
    ++out.attempted;
    out.failed += o.failed_checks;
    successes += o.successes;
    alarms += o.alarms;
    false_alarms += o.false_alarms;
    if (i < kFingerprintTrials) fp.mix(o.signature);
  };

  // The measured loop; a traced run spends half its time here untraced.
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Clock::time_point loop0 = Clock::now();
  std::uint64_t n = 0;
  while (n < kDeck || n % kRound != 0 || seconds_since(loop0) < budget)
    trial(n++);
  const double loop_wall = seconds_since(loop0);
  out.fingerprint = fp.value();
  out.notes.push_back("trials " + std::to_string(n) + ", attack successes " +
                      std::to_string(successes) + ", alarms " +
                      std::to_string(alarms));

  if (!opt.trace) {
    // Fastest set-up and rounds: the host slows down in spells of seconds
    // to minutes, which only ever add time (see README).
    out.metrics["setup_s"] = min_of(setup_times);
    double pass_ms = 0.0;
    for (double ms : round_ms) pass_ms += ms;
    out.metrics["throughput_per_s"] = static_cast<double>(kDeck) / pass_ms * 1e3;
    out.metrics["latency_p50_ms"] = median(round_ms);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  // Traced repeat of exactly the same set-up and trials, with spans on and
  // a metrics registry installed.
  const double untraced_wall = setup_times.back() + loop_wall;
  obs::MetricsRegistry registry;
  spans.enable(true);
  successes = alarms = false_alarms = 0;
  double traced_wall = 0.0;
  {
    obs::ScopedInstrumentation scope(registry);
    const Clock::time_point t0 = Clock::now();
    sc = set_up(opt, spans);
    if (!sc) {
      ++out.failed;
      return out;
    }
    for (std::uint64_t i = 0; i < n; ++i) trial(i);
    traced_wall = seconds_since(t0);
  }
  out.failed += check_deployment(*sc, 0, opt.tiny);
  add_trace_metrics(out, spans, traced_wall, untraced_wall,
                    registry.snapshot());
  out.metrics["trace.ops"] = static_cast<double>(n);
  out.metrics["tomography.paths"] =
      static_cast<double>(sc->estimator().num_paths());
  out.metrics["tomography.monitors"] =
      static_cast<double>(sc->monitors().size());
  out.metrics["attack.successes"] = static_cast<double>(successes);
  out.metrics["detect.alarms"] = static_cast<double>(alarms);
  out.metrics["detect.false_alarms"] = static_cast<double>(false_alarms);
  if (!opt.trace_path.empty() && !spans.write_jsonl(opt.trace_path))
    out.notes.push_back("could not write " + opt.trace_path);
  return out;
}

}  // namespace perfbench
