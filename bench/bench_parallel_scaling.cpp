// Parallel-scaling bench for the Monte-Carlo experiment engine.
//
// Runs the Fig. 7 workload (chosen-victim success probability vs presence
// ratio) at 1/2/4/8 worker threads and reports trials/sec, speedup over the
// 1-thread run, and a checksum over the per-bin (trials, successes) counts —
// the checksum line makes the determinism guarantee visible: it must be the
// same at every thread count.
//
//   bench_parallel_scaling [--quick] [--threads a,b,c] [--trials N]
//                          [--topologies N] [--seed N]
//
// Note the engine's speedup is bounded by the cores the OS actually grants
// (nproc), not by the requested worker count; on a 1-core machine every row
// reports ~1× while the checksums still prove thread-count independence.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/experiment.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

// FNV-1a over the folded series so any drift in any bin shows up.
std::uint64_t series_checksum(const scapegoat::PresenceRatioSeries& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(s.total_trials);
  for (const scapegoat::PresenceRatioBin& b : s.bins) {
    mix(b.trials);
    mix(b.successes);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  scapegoat::ArgParser args(argc, argv);

  scapegoat::PresenceRatioOptions opt;
  opt.topologies = static_cast<std::size_t>(args.get_int("topologies", 1));
  opt.trials_per_topology =
      static_cast<std::size_t>(args.get_int("trials", 200));
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  if (args.get_bool("quick")) opt.trials_per_topology = 60;

  std::vector<std::size_t> thread_counts = args.get_thread_list();
  if (thread_counts.empty()) thread_counts = {1, 2, 4, 8};
  for (const std::string& err : args.errors())
    std::cerr << "warning: " << err << '\n';

  scapegoat::Table table(
      {"threads", "trials", "seconds", "trials_per_sec", "speedup",
       "checksum"});
  double base_rate = 0.0;
  std::uint64_t base_checksum = 0;
  bool deterministic = true;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    opt.threads = thread_counts[i];
    const auto start = std::chrono::steady_clock::now();
    const scapegoat::PresenceRatioSeries series =
        scapegoat::run_presence_ratio_experiment(
            scapegoat::TopologyKind::kWireline, opt);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double rate =
        secs > 0.0 ? static_cast<double>(series.total_trials) / secs : 0.0;
    const std::uint64_t checksum = series_checksum(series);
    if (i == 0) {
      base_rate = rate;
      base_checksum = checksum;
    } else if (checksum != base_checksum) {
      deterministic = false;
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(checksum));
    table.add_row({std::to_string(opt.threads),
                   std::to_string(series.total_trials),
                   scapegoat::Table::num(secs, 3),
                   scapegoat::Table::num(rate, 1),
                   scapegoat::Table::num(base_rate > 0 ? rate / base_rate : 0.0,
                                         2),
                   hex});
  }
  std::cout << "Fig. 7 workload (wireline), " << opt.topologies
            << " topologies x " << opt.trials_per_topology << " trials\n";
  table.print(std::cout);
  std::cout << (deterministic
                    ? "determinism: OK — identical checksums at every "
                      "thread count\n"
                    : "determinism: FAILED — checksums differ across thread "
                      "counts\n");
  return deterministic ? 0 : 1;
}
