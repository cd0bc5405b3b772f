#!/usr/bin/env bash
# Sanitizer gate for the robustness layer.
#
# Builds the tree under ASan+UBSan (or TSan with `--tsan`) and runs the
# suites most likely to trip memory/UB bugs under fault injection: the
# robust subsystem units, the chaos harness, the loaders that digest
# corrupted files, the streaming-service suite (queues + shard threads —
# the prime TSan target), the Monte-Carlo trial engine every experiment
# driver shares (test_checkpoint, test_experiment, test_golden_figures),
# the suites whose code walks R's CSR rows by index (test_localize,
# test_attack_lp, test_detector, test_routing_matrix, test_sparse_aware),
# the attack strategy suites that feed them link and node ids
# (test_chosen_victim, test_max_damage, test_obfuscation,
# test_attack_properties, test_attacks_fig1, test_naive_attack, and
# test_manipulation, whose out-of-range attacker ids must be skipped by the
# context's derived sets), the dense least-squares and Tikhonov kernels
# (test_least_squares), the worker pool the trial engine runs on
# (test_thread_pool), the measurement-design, topology, recovery and
# ablation suites (test_monitor_placement, test_path_selection,
# test_secure_placement, test_topology, test_recovery,
# test_defender_ablation), the LP suites (test_lp, test_simplex_stress,
# whose pinned-output model set walks the tableau's flat buffer through both
# phases and the phase-2 column compaction, and test_sparse_recovery, whose
# ℓ1 models run the tableau's post-solve refactor), and the `prop`
# generative suites at a reduced iteration budget (sanitizer builds are ~10x
# slower; override with SCAPEGOAT_PROP_ITERS, and SCAPEGOAT_PROP_ITERS=0
# skips them cleanly).
# Pass `--all` to run the full ctest suite instead.
#
#   scripts/sanitize.sh [--tsan] [--all] [-j N]
set -euo pipefail

cd "$(dirname "$0")/.."

preset=asan-ubsan
suites='test_robust test_fault_injection test_checkpoint test_rocketfuel test_scenario_io test_args test_lp test_simnet test_sparse test_service test_estimator test_max_damage test_obfuscation test_estimator_interface test_sparse_recovery test_sparse_aware test_multicast_mle test_multicast_probe test_loss_scapegoat test_golden_figures test_experiment test_localize test_attack_lp test_detector test_routing_matrix test_chosen_victim test_attack_properties test_attacks_fig1 test_thread_pool test_monitor_placement test_path_selection test_secure_placement test_recovery test_defender_ablation test_topology test_simplex_stress test_manipulation test_naive_attack test_least_squares'
prop_suites='test_testkit test_prop_lp test_prop_linalg test_prop_attack test_prop_detect test_prop_checkpoint test_prop_tomography test_prop_corpus'
export SCAPEGOAT_PROP_ITERS="${SCAPEGOAT_PROP_ITERS:-25}"
jobs=$(nproc 2>/dev/null || echo 4)
run_all=0
while [ $# -gt 0 ]; do
  case "$1" in
    --tsan) preset=tsan ;;
    --all) run_all=1 ;;
    -j) jobs=$2; shift ;;
    *) echo "usage: $0 [--tsan] [--all] [-j N]" >&2; exit 2 ;;
  esac
  shift
done

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$jobs"

builddir=build-$preset
[ "$preset" = default ] && builddir=build

if [ "$run_all" = 1 ]; then
  ctest --preset "$preset" -j "$jobs"
else
  # ctest registers individual gtest case names, so filter by running the
  # suite binaries directly. The `prop` label is also registered with ctest
  # (`ctest -L prop`), which scripts/proptest.sh uses for nightly budgets.
  for suite in $suites $prop_suites; do
    echo "== $suite (SCAPEGOAT_PROP_ITERS=$SCAPEGOAT_PROP_ITERS) =="
    "$builddir/tests/$suite" --gtest_brief=1
  done
fi
