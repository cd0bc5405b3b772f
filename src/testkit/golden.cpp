#include "testkit/golden.hpp"

#include <sstream>

#include "robust/checkpoint.hpp"

namespace scapegoat::testkit {
namespace {

void put(std::ostringstream& os, std::uint64_t v) { os << v << '|'; }
void put(std::ostringstream& os, double v) {
  os << robust::encode_double_bits(v) << '|';
}

}  // namespace

std::uint32_t fingerprint(const PresenceRatioSeries& series) {
  std::ostringstream os;
  os << "fig7|" << to_string(series.kind) << '|';
  put(os, series.total_trials);
  put(os, series.trials_quarantined);
  for (const PresenceRatioBin& bin : series.bins) {
    put(os, bin.ratio_low);
    put(os, bin.ratio_high);
    put(os, bin.trials);
    put(os, bin.successes);
  }
  return robust::crc32(os.str());
}

std::uint32_t fingerprint(const SingleAttackerResult& result) {
  std::ostringstream os;
  os << "fig8|" << to_string(result.kind) << '|';
  put(os, result.trials);
  put(os, result.max_damage_successes);
  put(os, result.obfuscation_successes);
  put(os, result.trials_quarantined);
  return robust::crc32(os.str());
}

std::uint32_t fingerprint(const DetectionSeries& series) {
  std::ostringstream os;
  os << "fig9|" << to_string(series.kind) << '|';
  put(os, series.clean_trials);
  put(os, series.false_alarms);
  put(os, series.trials_quarantined);
  for (const DetectionCell& cell : series.cells) {
    os << to_string(cell.strategy) << '|' << (cell.perfect_cut ? 1 : 0)
       << '|';
    put(os, cell.attacks);
    put(os, cell.detected);
  }
  return robust::crc32(os.str());
}

std::uint32_t fingerprint(const FaultSweepSeries& series) {
  std::ostringstream os;
  os << "faults|" << to_string(series.kind) << '|';
  put(os, series.total_trials);
  put(os, series.trials_quarantined);
  for (const FaultSweepCell& cell : series.cells) {
    put(os, cell.loss_rate);
    put(os, cell.trials);
    put(os, cell.full_rank);
    put(os, cell.fallback);
    put(os, cell.unsolvable);
    put(os, cell.paths_total);
    put(os, cell.paths_measured);
    put(os, cell.mean_abs_error_ms);
    put(os, cell.max_abs_error_ms);
    put(os, cell.alarms);
  }
  return robust::crc32(os.str());
}

std::uint32_t fingerprint(const AblationSeries& series) {
  std::ostringstream os;
  os << "ablation|" << to_string(series.kind) << '|';
  put(os, series.total_trials);
  put(os, series.clean_trials);
  put(os, series.ls_false_alarms);
  for (double eps : series.epsilons) put(os, eps);
  for (std::size_t n : series.sparse_false_alarms) put(os, n);
  for (const AblationCell& cell : series.cells) {
    os << to_string(cell.family) << '|';
    put(os, cell.sparsity);
    put(os, cell.attacks);
    put(os, cell.ls_detected);
    for (std::size_t e = 0; e < cell.sparse_detected.size(); ++e) {
      put(os, cell.sparse_detected[e]);
      put(os, cell.ls_only[e]);
      put(os, cell.sparse_only[e]);
    }
  }
  return robust::crc32(os.str());
}

std::uint32_t fingerprint(const LossAblationSeries& series) {
  std::ostringstream os;
  os << "loss_ablation|" << to_string(series.kind) << '|'
     << to_string(series.probe_mode) << '|';
  put(os, series.total_trials);
  put(os, series.clean_trials);
  put(os, series.mle_false_alarms);
  put(os, series.ls_false_alarms);
  for (const LossAblationCell& cell : series.cells) {
    os << to_string(cell.family) << '|';
    put(os, cell.drop_rate);
    put(os, cell.attacks);
    put(os, cell.victim_blamed);
    put(os, cell.mle_detected);
    put(os, cell.ls_detected);
    put(os, cell.mle_only);
    put(os, cell.ls_only);
  }
  return robust::crc32(os.str());
}

}  // namespace scapegoat::testkit
