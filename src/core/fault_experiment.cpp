#include "core/fault_experiment.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "core/checkpoint_runner.hpp"
#include "core/simulate.hpp"
#include "detect/detector.hpp"
#include "obs/obs.hpp"
#include "robust/degraded.hpp"
#include "simnet/resilient_probing.hpp"

namespace scapegoat {

namespace {

// Own namespaces for the sweep's topology draws, trial RNGs and fault
// schedules — disjoint from the Fig. 7-9 salts in experiment.cpp.
constexpr std::uint64_t kSweepTopologySalt = 0xfa010907090ull;
constexpr std::uint64_t kSweepTrialSalt = 0xfa0107121a1ull;
constexpr std::uint64_t kSweepFaultSalt = 0xfa01f5c4edull;

struct FaultTrialOut {
  enum class Status { kFullRank, kFallback, kUnsolvable } status =
      Status::kUnsolvable;
  std::size_t paths_total = 0;
  std::size_t paths_measured = 0;
  double abs_error_sum = 0.0;  // over links, solvable trials only
  double abs_error_max = 0.0;
  std::size_t links = 0;
  bool alarm = false;
  simnet::ResilientProbeStats probe_stats;  // folded into obs counters
};

// One honest-network trial under the cell's fault schedule. The scenario
// copy is private to the worker; rng is this trial's own stream.
FaultTrialOut fault_trial(Scenario& sc, const FaultSweepOptions& opt,
                          const robust::FaultInjector& faults, Rng& rng) {
  FaultTrialOut out;
  sc.resample_metrics(rng);
  const auto& paths = sc.estimator().paths();
  out.paths_total = paths.size();

  simnet::NullAdversary honest;
  simnet::Simulator sim(sc.graph(), link_models(sc), honest, rng);
  simnet::ProbeOptions probe;
  probe.probes_per_path = opt.probes_per_path;

  const robust::DegradedMeasurement m = simnet::probe_with_retries(
      sim, paths, probe, faults, opt.retry, &out.probe_stats);
  out.paths_measured = m.num_measured();

  const auto est = robust::degraded_estimate(sc.estimator().sparse_r(), m);
  if (!est.ok()) return out;  // status stays kUnsolvable — structured, no crash
  out.status = est->method == robust::SolveMethod::kFullRank
                   ? FaultTrialOut::Status::kFullRank
                   : FaultTrialOut::Status::kFallback;

  const Vector& x_true = sc.x_true();
  out.links = x_true.size();
  for (std::size_t l = 0; l < x_true.size(); ++l) {
    const double e = std::abs(est->x[l] - x_true[l]);
    out.abs_error_sum += e;
    out.abs_error_max = std::max(out.abs_error_max, e);
  }

  DetectorOptions det;
  det.alpha = opt.alpha;
  const auto verdict = detect_scapegoating_degraded(sc.estimator(), m, det);
  out.alarm = verdict.ok() && verdict->detected;
  return out;
}

// --- checkpoint payload codec -------------------------------------------
//
// All fields hex-encoded and ':'-separated; doubles travel as IEEE bit
// patterns (robust::encode_double_bits) so a replayed trial folds into the
// error aggregates bitwise identically to a recomputed one.

std::string encode_trial(const FaultTrialOut& o) {
  std::string s;
  auto put = [&s](const std::string& field) {
    if (!s.empty()) s += ':';
    s += field;
  };
  put(robust::encode_u64_hex(static_cast<std::uint64_t>(o.status)));
  put(robust::encode_u64_hex(o.paths_total));
  put(robust::encode_u64_hex(o.paths_measured));
  put(robust::encode_u64_hex(o.links));
  put(robust::encode_u64_hex(o.alarm ? 1 : 0));
  put(robust::encode_double_bits(o.abs_error_sum));
  put(robust::encode_double_bits(o.abs_error_max));
  put(robust::encode_u64_hex(o.probe_stats.attempts_used));
  put(robust::encode_u64_hex(o.probe_stats.probes_sent));
  put(robust::encode_u64_hex(o.probe_stats.probes_lost));
  put(robust::encode_u64_hex(o.probe_stats.probes_timed_out));
  put(robust::encode_u64_hex(o.probe_stats.paths_recovered));
  put(robust::encode_u64_hex(o.probe_stats.paths_missing));
  put(robust::encode_double_bits(o.probe_stats.backoff_wait_ms));
  return s;
}

bool decode_trial(std::string_view payload, FaultTrialOut& o) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (start <= payload.size()) {
    const std::size_t sep = payload.find(':', start);
    if (sep == std::string_view::npos) {
      fields.push_back(payload.substr(start));
      break;
    }
    fields.push_back(payload.substr(start, sep - start));
    start = sep + 1;
  }
  if (fields.size() != 14) return false;
  auto u64 = [&](std::size_t i, std::uint64_t& out) {
    const auto v = robust::decode_u64_hex(fields[i]);
    if (!v) return false;
    out = *v;
    return true;
  };
  auto f64 = [&](std::size_t i, double& out) {
    const auto v = robust::decode_double_bits(fields[i]);
    if (!v) return false;
    out = *v;
    return true;
  };
  std::uint64_t status = 0, alarm = 0, tmp = 0;
  if (!u64(0, status) || status > 2) return false;
  o.status = static_cast<FaultTrialOut::Status>(status);
  if (!u64(1, tmp)) return false;
  o.paths_total = tmp;
  if (!u64(2, tmp)) return false;
  o.paths_measured = tmp;
  if (!u64(3, tmp)) return false;
  o.links = tmp;
  if (!u64(4, alarm)) return false;
  o.alarm = alarm != 0;
  if (!f64(5, o.abs_error_sum) || !f64(6, o.abs_error_max)) return false;
  if (!u64(7, tmp)) return false;
  o.probe_stats.attempts_used = tmp;
  if (!u64(8, tmp)) return false;
  o.probe_stats.probes_sent = tmp;
  if (!u64(9, tmp)) return false;
  o.probe_stats.probes_lost = tmp;
  if (!u64(10, tmp)) return false;
  o.probe_stats.probes_timed_out = tmp;
  if (!u64(11, tmp)) return false;
  o.probe_stats.paths_recovered = tmp;
  if (!u64(12, tmp)) return false;
  o.probe_stats.paths_missing = tmp;
  return f64(13, o.probe_stats.backoff_wait_ms);
}

std::uint64_t sweep_config_hash(TopologyKind kind,
                                const FaultSweepOptions& opt) {
  robust::ConfigHasher h;
  h.mix("fault_sweep");
  h.mix(to_string(kind));
  h.mix(static_cast<std::uint64_t>(opt.seed));
  h.mix(opt.loss_rates.size());
  for (double r : opt.loss_rates) h.mix(r);
  h.mix(opt.faults.probe_loss_rate);
  h.mix(opt.faults.duplicate_rate);
  h.mix(opt.faults.reorder_rate);
  h.mix(opt.faults.reorder_extra_ms);
  h.mix(opt.faults.monitor_outage_rate);
  h.mix(opt.faults.link_failure_rate);
  h.mix(opt.faults.clock_jitter_ms);
  h.mix(opt.retry.max_retries);
  h.mix(opt.retry.probe_deadline_ms);
  h.mix(opt.retry.backoff_base_ms);
  h.mix(opt.retry.backoff_factor);
  h.mix(opt.retry.max_backoff_ms);
  h.mix(opt.topologies);
  h.mix(opt.trials_per_topology);
  h.mix(opt.probes_per_path);
  h.mix(opt.alpha);
  return h.hash();
}

}  // namespace

FaultSweepSeries run_fault_sweep(TopologyKind kind,
                                 const FaultSweepOptions& opt) {
  FaultSweepSeries series;
  series.kind = kind;
  series.cells.resize(opt.loss_rates.size());

  const std::uint64_t base =
      opt.seed + (kind == TopologyKind::kWireline ? 0 : 0xfa017ab1eull);

  // Topologies are shared across cells: the same deployments face every
  // loss rate, so cell-to-cell differences are pure fault effects.
  std::vector<Scenario> topologies;
  for (std::size_t t = 0; t < opt.topologies; ++t) {
    std::optional<Scenario> sc =
        internal::draw_topology(kind, base, kSweepTopologySalt, t);
    if (sc) topologies.push_back(std::move(*sc));
  }

  internal::CheckpointedRun run(opt, opt.resilience, "fault_sweep",
                                sweep_config_hash(kind, opt));

  for (std::size_t c = 0; c < opt.loss_rates.size() && !run.interrupted();
       ++c) {
    FaultSweepCell& cell = series.cells[c];
    cell.loss_rate = opt.loss_rates[c];
    robust::FaultSpec spec = opt.faults;
    spec.probe_loss_rate = cell.loss_rate;

    double err_sum = 0.0;
    std::size_t err_links = 0;
    for (std::size_t t = 0; t < topologies.size(); ++t) {
      const std::size_t n = opt.trials_per_topology;
      // Global trial index g: unique across (cell, topology, trial) so no
      // two trials anywhere share an RNG or fault stream.
      if (!run.run_block(
              topologies[t],
              {"trial", (c * topologies.size() + t) * n, n,
               base ^ kSweepTrialSalt},
              [&](Scenario& local, std::uint64_t g, Rng& rng) {
                const robust::FaultInjector faults(
                    spec, derive_seed(base ^ kSweepFaultSalt, g));
                return fault_trial(local, opt, faults, rng);
              },
              [&](std::size_t, const FaultTrialOut& o) {
                ++cell.trials;
                ++series.total_trials;
                cell.paths_total += o.paths_total;
                cell.paths_measured += o.paths_measured;
                obs::count("core.faults.trials");
                obs::count("core.faults.probe_rounds",
                           o.probe_stats.attempts_used);
                obs::count("core.faults.probes_sent",
                           o.probe_stats.probes_sent);
                obs::count("core.faults.probes_lost",
                           o.probe_stats.probes_lost);
                obs::count("core.faults.probes_timed_out",
                           o.probe_stats.probes_timed_out);
                obs::count("core.faults.paths_recovered",
                           o.probe_stats.paths_recovered);
                obs::count("core.faults.paths_missing",
                           o.probe_stats.paths_missing);
                switch (o.status) {
                  case FaultTrialOut::Status::kFullRank:
                    ++cell.full_rank;
                    obs::count("core.faults.full_rank");
                    break;
                  case FaultTrialOut::Status::kFallback:
                    ++cell.fallback;
                    obs::count("core.faults.fallback");
                    break;
                  case FaultTrialOut::Status::kUnsolvable:
                    ++cell.unsolvable;
                    obs::count("core.faults.unsolvable");
                    break;
                }
                if (o.links > 0) {
                  err_sum += o.abs_error_sum;
                  err_links += o.links;
                  cell.max_abs_error_ms =
                      std::max(cell.max_abs_error_ms, o.abs_error_max);
                }
                if (o.alarm) ++cell.alarms;
              }))
        break;
    }
    if (err_links > 0) cell.mean_abs_error_ms = err_sum / err_links;
  }
  run.report(series);
  return series;
}

}  // namespace scapegoat
