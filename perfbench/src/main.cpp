// End-to-end benchmark driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--trace-out PATH] [--commit ID]
//
// Prints a few human-readable lines (environment, outcome fingerprint,
// workload notes) and, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: value}}
// An untraced run reports the end-to-end metrics, a traced run the
// per-layer ones. Units, and the list of metrics every run must carry, live
// in BENCHMARK.json; run.py attaches them. Exit code 0 iff every output
// check passed.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/thread_pool.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

constexpr std::size_t kPoolThreads = 1;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_trials|service_stream --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-out PATH] "
               "[--commit ID]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(flag);
  return v;
}

// Time all CPUs have spent in each state, in ticks: the first eight fields
// of /proc/stat's "cpu" line, the last of which is steal (time a hypervisor
// gave this machine's CPUs to other guests). Empty where unavailable.
std::vector<unsigned long long> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::vector<unsigned long long> ticks;
  unsigned long long t = 0;
  if (stat >> label && label == "cpu")
    while (ticks.size() < 8 && stat >> t) ticks.push_back(t);
  return ticks;
}

// Share of CPU time stolen between two cpu_ticks() readings, as JSON.
std::string steal_share(const std::vector<unsigned long long>& before,
                        const std::vector<unsigned long long>& after) {
  if (before.size() < 8 || after.size() < 8) return "null";
  unsigned long long total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += after[i] - before[i];
  if (total == 0) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(after[7] - before[7]) /
                    static_cast<double>(total));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = parse_u64(value(), "--seed expects an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(
          parse_u64(value(), "--seconds expects an integer"));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::uint64_t t = parse_u64(value(), "--trace expects 0 or 1");
      if (t > 1) usage("--trace expects 0 or 1");
      opt.trace = t == 1;
      have_trace = true;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--trace-out") {
      opt.trace_path = value();
    } else if (a == "--commit") {
      commit = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (opt.seconds < 1) usage("--seconds must be at least 1");

  // The library's parallel kernels run on one pool worker: at 4 workers the
  // same trials ran 2–3× slower and far less steadily on a 4-core host (see
  // README "Known gaps"), which would drown any per-layer change.
  scapegoat::ThreadPool::set_global_threads(kPoolThreads);
  const std::vector<unsigned long long> ticks0 = cpu_ticks();
  RunResult r;
  if (opt.workload == "paper_trials") {
    r = perfbench::run_paper_trials(opt);
  } else if (opt.workload == "service_stream") {
    r = perfbench::run_service_stream(opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  const std::string steal = steal_share(ticks0, cpu_ticks());

  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %s, \"nproc\": %u, \"pool_threads\": %zu, "
      "\"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"commit\": \"%s\", \"steal\": %s}\n",
      json_escape(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, opt.tiny ? "true" : "false",
      std::thread::hardware_concurrency(), kPoolThreads,
      PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      json_escape(commit).c_str(), steal.c_str());
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(r.fingerprint));
  for (const std::string& note : r.notes) std::printf("note %s\n", note.c_str());

  std::string metrics;
  for (const auto& [name, value] : r.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", metrics.empty() ? "" : ", ",
                  name.c_str(), value);
    metrics += buf;
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return correct ? 0 : 1;
}
