#!/usr/bin/env bash
# Acceptance bench reports.
#
# Builds the default tree and runs the overhead gates, writing the
# machine-readable reports to the repo root:
#   BENCH_pr3.json  bench_observability — disabled vs metrics vs tracing
#                   wall times on the Fig. 7 workload (EXPERIMENTS.md
#                   "Observability")
#   BENCH_pr4.json  bench_checkpoint_overhead — resilience off vs journaling
#                   vs full replay, with the <2% journal-overhead bar and the
#                   cross-mode series fingerprint (EXPERIMENTS.md
#                   "Crash-safe runs")
#   BENCH_pr7.json  bench_streaming — open-loop overload soak of the
#                   probe-ingest service: bounded queue depth, exact batch
#                   accounting, zero crashes, shard-count-independent pinned
#                   shed set (EXPERIMENTS.md "Streaming service")
#   BENCH_pr8.json  bench_sparse_recovery — planted k-sparse anomalies
#                   through the ℓ1 estimator in the identifiable and
#                   underdetermined regimes, with the LS-agreement and
#                   support-recovery gates (EXPERIMENTS.md "Sparse-recovery
#                   estimator")
#   BENCH_pr10.json bench_multicast_mle — planted lossy links on balanced
#                   binary multicast trees: estimation error, exact-blame
#                   rate and solve latency vs probe budget and depth, with
#                   the brute-force-likelihood agreement gate
#                   (EXPERIMENTS.md "Multicast MLE")
# Re-run after touching the obs layer, the checkpoint journal, the LP
# solver, the service layer, or any instrumented hot path.
#
#   scripts/bench_report.sh [--quick] [-j N] [--obs-out PATH] [--ckpt-out PATH]
#                           [--service-out PATH] [--sparse-recovery-out PATH]
#                           [--multicast-out PATH]
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
obs_out=BENCH_pr3.json
ckpt_out=BENCH_pr4.json
service_out=BENCH_pr7.json
sparse_recovery_out=BENCH_pr8.json
multicast_out=BENCH_pr10.json
quick=""
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick="--quick" ;;
    --obs-out) obs_out=$2; shift ;;
    --ckpt-out) ckpt_out=$2; shift ;;
    --service-out) service_out=$2; shift ;;
    --sparse-recovery-out) sparse_recovery_out=$2; shift ;;
    --multicast-out) multicast_out=$2; shift ;;
    -j) jobs=$2; shift ;;
    *) echo "usage: $0 [--quick] [-j N] [--obs-out PATH] [--ckpt-out PATH] [--service-out PATH] [--sparse-recovery-out PATH] [--multicast-out PATH]" >&2; exit 2 ;;
  esac
  shift
done

# Property-testkit knobs must not leak into bench processes: an exported
# SCAPEGOAT_PROP_SEED/_ITERS (e.g. from a replay session) would silently
# change any test binary the bench build re-runs, and the reports are meant
# to be environment-independent.
unset SCAPEGOAT_PROP_ITERS SCAPEGOAT_PROP_SEED SCAPEGOAT_PROP_CORPUS

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" --target bench_observability \
      bench_checkpoint_overhead bench_streaming \
      bench_sparse_recovery bench_multicast_mle

build/bench/bench_observability $quick --out "$obs_out"
echo "report: $obs_out"

build/bench/bench_checkpoint_overhead $quick --out "$ckpt_out"
echo "report: $ckpt_out"

build/bench/bench_streaming $quick --out "$service_out"
echo "report: $service_out"

build/bench/bench_sparse_recovery $quick --out "$sparse_recovery_out"
echo "report: $sparse_recovery_out"

build/bench/bench_multicast_mle $quick --out "$multicast_out"
echo "report: $multicast_out"
