#include "core/scenario.hpp"

#include <algorithm>
#include <cassert>

#include "tomography/routing_matrix.hpp"
#include "topology/example_networks.hpp"

namespace scapegoat {

namespace {

EstimatorOptions estimator_options_for(const ScenarioConfig& config) {
  EstimatorOptions opt;
  opt.sparse_epsilon_ms = config.sparse_epsilon_ms;
  opt.mle_min_rate = config.mle_min_rate;
  return opt;
}

}  // namespace

Scenario::Scenario(Graph graph, std::vector<NodeId> monitors,
                   std::vector<Path> paths, ScenarioConfig config)
    : graph_(std::move(graph)),
      monitors_(std::move(monitors)),
      estimator_(make_estimator(config.estimator_kind, graph_,
                                std::move(paths),
                                estimator_options_for(config))),
      config_(config) {}

Scenario::Scenario(const Scenario& other)
    : graph_(other.graph_),
      monitors_(other.monitors_),
      estimator_(other.estimator_->clone()),
      x_true_(other.x_true_),
      config_(other.config_) {}

Scenario& Scenario::operator=(const Scenario& other) {
  if (this == &other) return *this;
  graph_ = other.graph_;
  monitors_ = other.monitors_;
  estimator_ = other.estimator_->clone();
  x_true_ = other.x_true_;
  config_ = other.config_;
  return *this;
}

Scenario Scenario::fig1(Rng& rng, const ScenarioConfig& config) {
  ExampleNetwork net = fig1_network();
  Scenario sc(std::move(net.graph), std::move(net.monitors),
              std::move(net.paths), config);
  sc.resample_metrics(rng);
  return sc;
}

std::optional<Scenario> Scenario::from_graph(Graph graph, Rng& rng,
                                             const ScenarioConfig& config,
                                             std::size_t redundant_paths) {
  MonitorPlacementOptions opt;
  opt.path_options.redundant_paths = redundant_paths;
  MonitorPlacementResult placement = place_monitors(graph, opt, rng);
  if (!placement.identifiable) return std::nullopt;
  Scenario sc(std::move(graph), std::move(placement.monitors),
              std::move(placement.paths), config);
  sc.resample_metrics(rng);
  return sc;
}

std::optional<Scenario> Scenario::restore(Graph graph,
                                          std::vector<NodeId> monitors,
                                          std::vector<Path> paths,
                                          Vector x_true,
                                          const ScenarioConfig& config) {
  if (x_true.size() != graph.num_links()) return std::nullopt;
  for (const Path& p : paths)
    if (!is_valid_simple_path(graph, p)) return std::nullopt;
  for (NodeId m : monitors)
    if (m >= graph.num_nodes()) return std::nullopt;
  Scenario sc(std::move(graph), std::move(monitors), std::move(paths),
              config);
  if (!sc.estimator_->ok()) return std::nullopt;
  sc.x_true_ = std::move(x_true);
  return sc;
}

bool Scenario::is_monitor(NodeId v) const {
  return std::find(monitors_.begin(), monitors_.end(), v) != monitors_.end();
}

void Scenario::resample_metrics(Rng& rng) {
  x_true_ = Vector(graph_.num_links());
  for (std::size_t i = 0; i < x_true_.size(); ++i)
    x_true_[i] = rng.uniform(config_.delay_min_ms, config_.delay_max_ms);
}

AttackContext Scenario::context(std::vector<NodeId> attackers) const {
  AttackContext ctx(graph_, *estimator_, std::move(attackers));
  ctx.x_true = x_true_;
  ctx.thresholds = config_.thresholds;
  ctx.per_path_cap = config_.per_path_cap_ms;
  ctx.margin = config_.margin_ms;
  return ctx;
}

Vector Scenario::clean_measurements() const {
  return path_metrics(estimator_->paths(), x_true_);
}

Vector Scenario::noisy_measurements(double amplitude, Rng& rng) const {
  Vector y = clean_measurements();
  for (auto& yi : y) yi += rng.uniform(0.0, amplitude);
  return y;
}

}  // namespace scapegoat
