// Umbrella header: the full public API of the scapegoat library.
//
//   #include "core/scapegoat.hpp"
//
// Layering (each header is independently includable):
//   util/       RNG, summary statistics, table/CSV output
//   linalg/     dense Matrix/Vector, LU, Cholesky, QR, least squares
//   lp/         LP model + two-phase simplex
//   graph/      topology type, traversal, shortest paths, cuts
//   topology/   Fig. 1 / Fig. 3 examples, ISP + geometric + random generators,
//               Rocketfuel loaders
//   tomography/ routing matrix, link states, Eq. 2 estimator, monitor and
//               path selection
//   robust/     Expected error taxonomy, deterministic fault schedules,
//               retry policy, degraded (partially-measured) estimation
//   attack/     Constraint-1 model, perfect cuts, the three scapegoating
//               strategies (Eqs. 4-11), consistent/stealthy variants
//   detect/     Eq. 23 consistency detector
//   core/       Scenario bundling + the paper's figure experiments

#pragma once

#include "attack/attack_lp.hpp"
#include "attack/chosen_victim.hpp"
#include "attack/cut.hpp"
#include "attack/manipulation.hpp"
#include "attack/max_damage.hpp"
#include "attack/naive_attack.hpp"
#include "attack/obfuscation.hpp"
#include "attack/sparse_aware.hpp"
#include "core/defender_ablation.hpp"
#include "core/experiment.hpp"
#include "core/fault_experiment.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"
#include "core/recovery.hpp"
#include "core/scenario_io.hpp"
#include "core/simulate.hpp"
#include "detect/detector.hpp"
#include "detect/localize.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph.hpp"
#include "graph/k_shortest.hpp"
#include "graph/paths.hpp"
#include "graph/shortest_path.hpp"
#include "graph/traversal.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/conditioning.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "robust/degraded.hpp"
#include "robust/expected.hpp"
#include "robust/faults.hpp"
#include "robust/retry.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/resilient_probing.hpp"
#include "simnet/simulator.hpp"
#include "tomography/estimator.hpp"
#include "tomography/estimator_interface.hpp"
#include "tomography/link_state.hpp"
#include "tomography/sparse_recovery.hpp"
#include "tomography/loss_metric.hpp"
#include "tomography/monitor_placement.hpp"
#include "tomography/path_selection.hpp"
#include "tomography/routing_matrix.hpp"
#include "tomography/secure_placement.hpp"
#include "topology/example_networks.hpp"
#include "topology/generators.hpp"
#include "topology/geometric.hpp"
#include "topology/isp.hpp"
#include "topology/rocketfuel.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
