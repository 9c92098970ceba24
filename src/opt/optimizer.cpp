#include "opt/optimizer.hpp"

#include <cmath>
#include <mutex>
#include <optional>

#include "celllib/cell.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "opt/search.hpp"
#include "power/gate_power.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace tr::opt {

const char* engine_name(Engine engine) noexcept {
  switch (engine) {
    case Engine::catalog: return "catalog";
    case Engine::reference: return "reference";
    case Engine::anneal: return "anneal";
  }
  return "unknown";
}

Engine engine_from_name(std::string_view name) {
  for (const Engine engine :
       {Engine::catalog, Engine::reference, Engine::anneal}) {
    if (name == engine_name(engine)) return engine;
  }
  throw Error("unknown engine '" + std::string(name) + "'",
              ErrorCode::parse);
}

const char* objective_name(Objective objective) noexcept {
  return objective == Objective::minimize_power ? "minimize_power"
                                                : "maximize_power";
}

const char* model_name(power::ModelKind model) noexcept {
  return model == power::ModelKind::extended ? "extended" : "output_only";
}

using boolfn::SignalStats;
using celllib::CatalogConfig;
using celllib::CatalogNode;
using celllib::ReorderCatalog;
using gategraph::GateGraph;
using gategraph::GateTopology;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

std::vector<std::pair<GateTopology, double>> score_configurations_reference(
    const GateTopology& config, const std::vector<SignalStats>& inputs,
    double external_load, const celllib::Tech& tech, power::ModelKind model) {
  std::vector<std::pair<GateTopology, double>> scored;
  for (GateTopology& candidate : config.all_reorderings()) {
    const GateGraph graph(candidate);
    const std::vector<double> caps =
        celllib::node_capacitances(graph, tech, external_load);
    const power::GatePower gp =
        model == power::ModelKind::extended
            ? power::evaluate_gate_power(graph, caps, inputs, tech)
            : power::evaluate_output_only_power(graph, caps, inputs, tech);
    scored.emplace_back(std::move(candidate), gp.total_power);
  }
  return scored;
}

const std::vector<double>& score_catalog(const ReorderCatalog& catalog,
                                         const std::vector<SignalStats>& inputs,
                                         double external_load,
                                         const celllib::Tech& tech,
                                         power::ModelKind model,
                                         ScoreScratch& scratch) {
  if (util::fault::enabled()) util::fault::check("opt.score");
  require(static_cast<int>(inputs.size()) == catalog.input_count(),
          "score_catalog: input statistics arity mismatch");
  scratch.probs.clear();
  scratch.probs.reserve(inputs.size());
  for (const SignalStats& s : inputs) scratch.probs.push_back(s.prob);
  scratch.weights.assign(scratch.probs);

  // One node's model power from its precomputed tables.
  const auto node_power = [&](const CatalogNode& node) {
    const double cap =
        celllib::node_capacitance(tech, node.terminal_count,
                                  node.node == GateGraph::output_node,
                                  external_load);
    return power::evaluate_node_tables(node.h, node.g, node.dh.data(),
                                       node.dg.data(), cap, inputs,
                                       scratch.weights, tech)
        .power;
  };

  scratch.powers.clear();
  scratch.powers.reserve(catalog.configs().size());
  for (const CatalogConfig& config : catalog.configs()) {
    double total = 0.0;
    if (model == power::ModelKind::extended) {
      for (const CatalogNode& node : config.nodes) total += node_power(node);
    } else {
      // Output-only ablation: the output node is stored last.
      total += node_power(config.nodes.back());
    }
    scratch.powers.push_back(total);
  }
  return scratch.powers;
}

std::vector<std::pair<GateTopology, double>> score_configurations(
    const GateTopology& config, const std::vector<SignalStats>& inputs,
    double external_load, const celllib::Tech& tech, power::ModelKind model,
    ScoreScratch& scratch) {
  const ReorderCatalog catalog = ReorderCatalog::build(config);
  const std::vector<double>& powers =
      score_catalog(catalog, inputs, external_load, tech, model, scratch);
  std::vector<std::pair<GateTopology, double>> scored;
  scored.reserve(powers.size());
  for (std::size_t i = 0; i < powers.size(); ++i) {
    scored.emplace_back(catalog.configs()[i].topology, powers[i]);
  }
  return scored;
}

std::vector<std::pair<GateTopology, double>> score_configurations(
    const GateTopology& config, const std::vector<SignalStats>& inputs,
    double external_load, const celllib::Tech& tech, power::ModelKind model) {
  ScoreScratch scratch;
  return score_configurations(config, inputs, external_load, tech, model,
                              scratch);
}

namespace {

/// The retained pre-catalog engine (Engine::reference, the explicit
/// parity oracle): scores with per-candidate graph rebuilds and commits
/// gate by gate along the topological traversal.
OptimizeReport optimize_reference(Netlist& netlist,
                                  const std::map<NetId, SignalStats>& pi_stats,
                                  const celllib::Tech& tech,
                                  const OptimizeOptions& options) {
  netlist.validate();

  // OBTAIN_PROBABILITIES: net statistics, filled during the traversal.
  std::vector<SignalStats> net_stats(
      static_cast<std::size_t>(netlist.net_count()), SignalStats{0.5, 0.0});
  for (NetId id : netlist.primary_inputs()) {
    const auto it = pi_stats.find(id);
    require(it != pi_stats.end(),
            "optimize: missing statistics for primary input '" +
                netlist.net(id).name + "'");
    net_stats[static_cast<std::size_t>(id)] = it->second;
  }

  OptimizeReport report;
  report.engine_used = Engine::reference;
  report.threads_used = 1;  // the traversal is inherently sequential
  report.decisions.resize(static_cast<std::size_t>(netlist.gate_count()));

  // One circuit_delay of the incoming mapping gives the report's
  // critical_path_before — from circuit_delay itself, so this engine stays
  // independent of the catalog engines' delay tables — and, under arrival
  // budgeting (conclusion (b)), the per-net arrival ceilings; `arrival`
  // holds the running arrivals of the optimized netlist.
  const bool budget_delay = options.max_circuit_delay_increase.has_value();
  const delay::CircuitDelay timing = delay::circuit_delay(netlist, tech);
  report.critical_path_before = timing.critical_path;
  std::vector<double> arrival_budget;
  std::vector<double> arrival;
  if (budget_delay) {
    arrival_budget.resize(timing.net_arrival.size());
    for (std::size_t i = 0; i < timing.net_arrival.size(); ++i) {
      arrival_budget[i] =
          timing.net_arrival[i] * (1.0 + *options.max_circuit_delay_increase);
    }
    arrival.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
  }

  // DEPTH_FIRST_TRAVERSE: every gate after its transitive fan-in.
  // Cancellation mid-traversal leaves committed configurations behind;
  // the containment layer (BatchOptimizer) restores the netlist from its
  // pre-optimize snapshot, keeping cancellation all-or-nothing.
  const bool cancellable = options.cancel.valid();
  for (GateId g : netlist.topological_order()) {
    if (cancellable) options.cancel.check("optimize");
    const netlist::GateInst& inst = netlist.gate(g);

    // OBTAIN_PROB_AND_DENS.
    std::vector<SignalStats> inputs;
    inputs.reserve(inst.inputs.size());
    for (NetId in : inst.inputs) {
      inputs.push_back(net_stats[static_cast<std::size_t>(in)]);
    }

    // FIND_BEST_REORDERING: exhaustive exploration (Fig. 4) + model.
    const double load = netlist.external_load(g, tech);
    const auto scored = score_configurations_reference(inst.config, inputs,
                                                       load, tech,
                                                       options.model);
    TR_ASSERT(!scored.empty());

    // Admissibility filters (paper conclusions (a) and (b)).
    std::vector<bool> admissible(scored.size(), true);
    if (options.restrict_to_instance) {
      const std::string instance = inst.config.instance_key();
      for (std::size_t i = 0; i < scored.size(); ++i) {
        if (scored[i].first.instance_key() != instance) {
          admissible[i] = false;
          ++report.configs_rejected_by_instance;
        }
      }
    }
    std::vector<double> candidate_arrival(scored.size(), 0.0);
    if (budget_delay) {
      const auto arrival_of = [&](const gategraph::GateTopology& config) {
        const GateGraph graph(config);
        const auto caps = celllib::node_capacitances(graph, tech, load);
        const delay::GateDelays delays = delay::gate_delays(graph, caps, tech);
        double out = 0.0;
        for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
          out = std::max(
              out, arrival[static_cast<std::size_t>(inst.inputs[pin])] +
                       delays.pin_delay[pin]);
        }
        return out;
      };
      const double budget =
          arrival_budget[static_cast<std::size_t>(inst.output)];
      for (std::size_t i = 0; i < scored.size(); ++i) {
        candidate_arrival[i] = arrival_of(scored[i].first);
        // The incoming configuration (i == 0) always fits the budget (its
        // pin delays are the original ones and input arrivals are within
        // their own budgets), so the fallback is always available.
        if (i > 0 && candidate_arrival[i] > budget + 1e-18) {
          admissible[i] = false;
          ++report.configs_rejected_by_delay;
        }
      }
      TR_ASSERT(candidate_arrival[0] <= budget + 1e-15);
    }

    GateDecision decision;
    decision.gate = g;
    decision.config_count = static_cast<int>(scored.size());
    decision.original_power = scored.front().second;  // incoming config first
    decision.best_power = scored.front().second;
    decision.worst_power = scored.front().second;
    std::size_t chosen = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      const double p = scored[i].second;
      if (p < decision.best_power) decision.best_power = p;
      if (p > decision.worst_power) decision.worst_power = p;
      if (!admissible[i]) continue;
      const bool better = options.objective == Objective::minimize_power
                              ? p < scored[chosen].second
                              : p > scored[chosen].second;
      if (better) chosen = i;
    }
    decision.chosen_power = scored[chosen].second;
    decision.changed = chosen != 0;
    if (decision.changed) {
      netlist.set_config(g, scored[chosen].first);
      ++report.gates_changed;
    }
    if (budget_delay) {
      arrival[static_cast<std::size_t>(inst.output)] =
          candidate_arrival[chosen];
    }
    report.model_power_before += decision.original_power;
    report.model_power_after += decision.chosen_power;
    report.decisions[static_cast<std::size_t>(g)] = decision;

    // CALCULATE_DENS + UPDATE_CIRCUIT_INFORMATION: output statistics from
    // the cell function — identical for every configuration (Sec. 4.2).
    const boolfn::TruthTable f =
        netlist.library().cell(inst.cell).function();
    net_stats[static_cast<std::size_t>(inst.output)] =
        boolfn::propagate(f, inputs);
  }
  report.critical_path_after =
      delay::circuit_delay(netlist, tech).critical_path;
  return report;
}

/// The default engine: per-gate tables built gate-parallel (catalog
/// powers and pin delays), then the greedy walk
/// of paper Fig. 3 over them — per-gate argmins when unconstrained, and
/// under arrival budgeting a walk in which a gate's admissible set
/// depends on its fan-in's committed configurations.
OptimizeReport optimize_catalog(Netlist& netlist,
                                const std::map<NetId, SignalStats>& pi_stats,
                                const celllib::Tech& tech,
                                const OptimizeOptions& options) {
  // Auto-sized runs share one long-lived pool (spawning and joining
  // threads per optimize() call would dominate small netlists); the pool
  // is a single-submitter structure, so concurrent optimize() calls
  // serialise on the guard mutex. An explicit thread count gets a
  // dedicated pool.
  util::ThreadPool* pool = nullptr;
  std::unique_lock<std::mutex> shared_guard;
  std::optional<util::ThreadPool> own_pool;
  if (options.threads == 0) {
    static std::mutex shared_pool_mutex;
    static util::ThreadPool shared_pool(0);
    shared_guard = std::unique_lock<std::mutex>(shared_pool_mutex);
    pool = &shared_pool;
  } else {
    pool = &own_pool.emplace(options.threads);
  }
  const std::vector<search::GateTable> tables = search::build_tables(
      netlist, pi_stats, tech, options.model, options.cancel, pool);
  const std::vector<GateId> topo_order = netlist.topological_order();
  const search::GreedySeed walk =
      search::greedy_seed(netlist, tables, topo_order, options);

  // Last cancellation point: past here the netlist is mutated, so the
  // commit runs to completion and the result is the full deterministic
  // report (all-or-nothing without needing a snapshot on this engine).
  if (options.cancel.valid()) options.cancel.check("optimize");

  OptimizeReport report =
      search::commit(netlist, tables, topo_order, walk.configs);
  report.engine_used = Engine::catalog;
  report.threads_used = pool->thread_count();
  report.configs_rejected_by_delay = walk.rejected_delay;
  report.configs_rejected_by_instance = walk.rejected_instance;
  return report;
}

}  // namespace

OptimizeReport optimize(Netlist& netlist,
                        const std::map<NetId, SignalStats>& pi_stats,
                        const celllib::Tech& tech,
                        const OptimizeOptions& options) {
  return with_error_site("optimize", [&] {
    if (options.max_circuit_delay_increase) {
      const double budget = *options.max_circuit_delay_increase;
      require(std::isfinite(budget) && budget >= 0.0,
              "optimize: max_circuit_delay_increase must be finite and >= 0");
    }
    if (options.engine == Engine::anneal) {
      return search::anneal_optimize(netlist, pi_stats, tech, options);
    }
    if (options.engine == Engine::reference) {
      return optimize_reference(netlist, pi_stats, tech, options);
    }
    return optimize_catalog(netlist, pi_stats, tech, options);
  });
}

double committed_power(const OptimizeReport& report, const Netlist& netlist,
                       const std::map<NetId, SignalStats>& pi_stats,
                       const celllib::Tech& tech) {
  require(report.decisions.size() ==
              static_cast<std::size_t>(netlist.gate_count()),
          "committed_power: report does not match the netlist");
  double gate_power = 0.0;
  for (const GateDecision& decision : report.decisions) {
    gate_power += decision.chosen_power;
  }
  return gate_power + power::pi_load_power(netlist, pi_stats, tech);
}

}  // namespace tr::opt
