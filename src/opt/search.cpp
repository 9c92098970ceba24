#include "opt/search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "delay/elmore_program.hpp"
#include "power/circuit_power.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tr::opt::search {

using boolfn::SignalStats;
using celllib::ReorderCatalog;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

namespace {

/// Admissibility slop of the arrival ceilings — the same epsilon the
/// reference engine applies to its per-net budgets, so "feasible" means
/// the same thing in both engines.
constexpr double k_budget_epsilon = 1e-18;

constexpr double k_inf = std::numeric_limits<double>::infinity();

/// The circuit_delay recurrence for one gate: the max over pins, in pin
/// order and starting from 0.0, of input arrival + pin delay.
double gate_arrival(const netlist::GateInst& inst,
                    std::span<const double> pin_delay,
                    const std::vector<double>& arrival) {
  double out = 0.0;
  for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
    out = std::max(
        out, arrival[static_cast<std::size_t>(inst.inputs[pin])] +
                 pin_delay[pin]);
  }
  return out;
}

}  // namespace

std::vector<GateTable> build_tables(
    const Netlist& netlist, const std::map<NetId, SignalStats>& pi_stats,
    const celllib::Tech& tech, power::ModelKind model,
    const util::CancellationToken& cancel, util::ThreadPool* pool) {
  netlist.validate();
  // Signal statistics are configuration-invariant (paper Sec. 4.2): one
  // topological pass fixes every gate's input statistics for good.
  const std::vector<SignalStats> net_stats =
      power::propagate_activity(netlist, pi_stats).net_stats;

  // Serial pass in GateId order: catalogs (the CellLibrary cache
  // characterises each distinct configuration once) and the pin-delay
  // memo's slots — gates sharing a cell configuration and external load
  // share one delay table, numbered in first-use order.
  const std::size_t gates = static_cast<std::size_t>(netlist.gate_count());
  std::vector<GateTable> tables(gates);
  std::vector<std::size_t> delay_slot(gates);
  std::vector<std::pair<GateId, double>> slot_owner;  ///< (gate, load)
  std::map<std::pair<const ReorderCatalog*, double>, std::size_t> slot_of;
  const bool cancellable = cancel.valid();
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    if (cancellable) cancel.check("optimize");
    GateTable& table = tables[static_cast<std::size_t>(g)];
    table.catalog = with_error_site("characterize", [&] {
      return netlist.library().catalog(netlist.gate(g).config);
    });
    const double load = netlist.external_load(g, tech);
    const auto slot = slot_of.emplace(
        std::make_pair(table.catalog.get(), load), slot_owner.size());
    if (slot.second) slot_owner.emplace_back(g, load);
    delay_slot[static_cast<std::size_t>(g)] = slot.first->second;
  }

  // Parallel pass, one slot per task: task i < gates scores gate i's
  // configurations; every later task fills one pin-delay table by
  // evaluating the catalog's compiled Elmore programs at the slot's load.
  std::vector<std::shared_ptr<const std::vector<double>>> delay_tables(
      slot_owner.size());
  const auto build = [&](std::size_t i) {
    if (cancellable) cancel.check("optimize");
    if (i < gates) {
      thread_local ScoreScratch scratch;
      thread_local std::vector<SignalStats> inputs;
      const GateId g = static_cast<GateId>(i);
      inputs.clear();
      for (NetId in : netlist.gate(g).inputs) {
        inputs.push_back(net_stats[static_cast<std::size_t>(in)]);
      }
      tables[i].power = with_error_site("score", [&] {
        return score_catalog(*tables[i].catalog, inputs,
                             netlist.external_load(g, tech), tech, model,
                             scratch);
      });
      TR_ASSERT(!tables[i].power.empty());  // the incoming config
      return;
    }
    const auto [owner, load] = slot_owner[i - gates];
    const ReorderCatalog& catalog =
        *tables[static_cast<std::size_t>(owner)].catalog;
    const std::size_t pins = static_cast<std::size_t>(catalog.input_count());
    auto delays =
        std::make_shared<std::vector<double>>(catalog.configs().size() * pins);
    const std::span<double> rows(*delays);
    for (std::size_t c = 0; c < catalog.configs().size(); ++c) {
      delay::evaluate_elmore(catalog.configs()[c].elmore, tech, load,
                             rows.subspan(c * pins, pins));
    }
    delay_tables[i - gates] = std::move(delays);
  };
  const std::size_t tasks = gates + slot_owner.size();
  if (pool != nullptr) {
    pool->parallel_for(tasks, build);
  } else {
    for (std::size_t i = 0; i < tasks; ++i) build(i);
  }
  for (std::size_t gi = 0; gi < gates; ++gi) {
    tables[gi].pin_delay = delay_tables[delay_slot[gi]];
  }
  return tables;
}

std::vector<double> table_arrivals(const Netlist& netlist,
                                   const std::vector<GateTable>& tables,
                                   const std::vector<GateId>& topo_order,
                                   const std::vector<int>& configs) {
  std::vector<double> arrival(static_cast<std::size_t>(netlist.net_count()),
                              0.0);
  for (GateId g : topo_order) {
    const netlist::GateInst& inst = netlist.gate(g);
    arrival[static_cast<std::size_t>(inst.output)] = gate_arrival(
        inst,
        tables[static_cast<std::size_t>(g)].pin_delays(
            configs[static_cast<std::size_t>(g)]),
        arrival);
  }
  return arrival;
}

IncrementalScorer::IncrementalScorer(
    const Netlist& netlist, const std::map<NetId, SignalStats>& pi_stats,
    const celllib::Tech& tech, power::ModelKind model,
    const util::CancellationToken& cancel)
    : netlist_(&netlist),
      tables_(build_tables(netlist, pi_stats, tech, model, cancel, nullptr)),
      topo_order_(netlist.topological_order()) {
  topo_rank_.assign(tables_.size(), 0);
  for (std::size_t i = 0; i < topo_order_.size(); ++i) {
    topo_rank_[static_cast<std::size_t>(topo_order_[i])] = static_cast<int>(i);
  }
  config_.assign(tables_.size(), 0);
  po_ceiling_.assign(static_cast<std::size_t>(netlist.net_count()), k_inf);
  queued_.assign(tables_.size(), 0);
  recompute_state();
}

void IncrementalScorer::recompute_state() {
  arrival_ = table_arrivals(*netlist_, tables_, topo_order_, config_);
  total_power_ = total_power_in_topo_order();
  po_violations_ = 0;
  if (has_ceilings_) {
    for (NetId id : netlist_->primary_outputs()) {
      if (arrival_[static_cast<std::size_t>(id)] >
          po_ceiling_[static_cast<std::size_t>(id)] + k_budget_epsilon) {
        ++po_violations_;
      }
    }
  }
}

double IncrementalScorer::total_power_in_topo_order() const {
  double total = 0.0;
  for (GateId g : topo_order_) {
    total += tables_[static_cast<std::size_t>(g)]
                 .power[static_cast<std::size_t>(
                     config_[static_cast<std::size_t>(g)])];
  }
  return total;
}

void IncrementalScorer::set_delay_budget(double fraction) {
  require(std::isfinite(fraction) && fraction >= 0.0,
          "search: delay budget must be finite and >= 0");
  for (NetId id : netlist_->primary_outputs()) {
    po_ceiling_[static_cast<std::size_t>(id)] =
        arrival_[static_cast<std::size_t>(id)] * (1.0 + fraction);
  }
  has_ceilings_ = true;
  po_violations_ = 0;
  for (NetId id : netlist_->primary_outputs()) {
    if (arrival_[static_cast<std::size_t>(id)] >
        po_ceiling_[static_cast<std::size_t>(id)] + k_budget_epsilon) {
      ++po_violations_;
    }
  }
}

IncrementalScorer::Undo IncrementalScorer::apply(GateId g, int config) {
  Undo undo;
  undo.gate = g;
  undo.old_config = config_[static_cast<std::size_t>(g)];
  undo.old_total_power = total_power_;
  undo.old_po_violations = po_violations_;

  const GateTable& moved = tables_[static_cast<std::size_t>(g)];
  total_power_ += moved.power[static_cast<std::size_t>(config)] -
                  moved.power[static_cast<std::size_t>(undo.old_config)];
  config_[static_cast<std::size_t>(g)] = config;

  // Fanout-cone arrival propagation: a min-rank worklist pops each gate
  // at most once (a gate's fan-in drivers all have strictly lower rank,
  // so by the time it pops, its inputs are final) and stops wherever the
  // recomputed arrival is bit-identical to the stored one.
  const auto by_rank_greater = [](const std::pair<int, GateId>& a,
                                  const std::pair<int, GateId>& b) {
    return a > b;
  };
  TR_ASSERT(heap_.empty());
  heap_.emplace_back(topo_rank_[static_cast<std::size_t>(g)], g);
  queued_[static_cast<std::size_t>(g)] = 1;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), by_rank_greater);
    const GateId u = heap_.back().second;
    heap_.pop_back();
    queued_[static_cast<std::size_t>(u)] = 0;

    const netlist::GateInst& inst = netlist_->gate(u);
    const double arrival = gate_arrival(
        inst,
        tables_[static_cast<std::size_t>(u)].pin_delays(
            config_[static_cast<std::size_t>(u)]),
        arrival_);
    const NetId out = inst.output;
    double& stored = arrival_[static_cast<std::size_t>(out)];
    if (arrival == stored) continue;
    undo.arrivals.emplace_back(out, stored);
    if (has_ceilings_) {
      const double ceiling =
          po_ceiling_[static_cast<std::size_t>(out)] + k_budget_epsilon;
      po_violations_ +=
          static_cast<int>(arrival > ceiling) - static_cast<int>(stored > ceiling);
    }
    stored = arrival;
    for (const std::pair<GateId, int>& fanout : netlist_->net(out).fanouts) {
      const GateId f = fanout.first;
      if (!queued_[static_cast<std::size_t>(f)]) {
        queued_[static_cast<std::size_t>(f)] = 1;
        heap_.emplace_back(topo_rank_[static_cast<std::size_t>(f)], f);
        std::push_heap(heap_.begin(), heap_.end(), by_rank_greater);
      }
    }
  }
  return undo;
}

void IncrementalScorer::revert(const Undo& undo) {
  config_[static_cast<std::size_t>(undo.gate)] = undo.old_config;
  total_power_ = undo.old_total_power;
  po_violations_ = undo.old_po_violations;
  for (auto it = undo.arrivals.rbegin(); it != undo.arrivals.rend(); ++it) {
    arrival_[static_cast<std::size_t>(it->first)] = it->second;
  }
}

void IncrementalScorer::set_configs(const std::vector<int>& configs) {
  require(configs.size() == config_.size(),
          "search: configuration vector arity mismatch");
  config_ = configs;
  recompute_state();
}

std::vector<double> IncrementalScorer::full_arrivals() const {
  return table_arrivals(*netlist_, tables_, topo_order_, config_);
}

std::vector<double> IncrementalScorer::required_times() const {
  require(has_ceilings_, "search: required_times needs a delay budget");
  std::vector<double> required(
      static_cast<std::size_t>(netlist_->net_count()), k_inf);
  for (NetId id : netlist_->primary_outputs()) {
    required[static_cast<std::size_t>(id)] =
        std::min(required[static_cast<std::size_t>(id)],
                 po_ceiling_[static_cast<std::size_t>(id)]);
  }
  for (auto it = topo_order_.rbegin(); it != topo_order_.rend(); ++it) {
    const netlist::GateInst& inst = netlist_->gate(*it);
    const double out_required = required[static_cast<std::size_t>(inst.output)];
    const std::span<const double> pd =
        tables_[static_cast<std::size_t>(*it)].pin_delays(
            config_[static_cast<std::size_t>(*it)]);
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      double& in_required = required[static_cast<std::size_t>(inst.inputs[pin])];
      in_required = std::min(in_required, out_required - pd[pin]);
    }
  }
  return required;
}

GreedySeed greedy_seed(const Netlist& netlist,
                       const std::vector<GateTable>& tables,
                       const std::vector<GateId>& topo_order,
                       const OptimizeOptions& options) {
  GreedySeed seed;
  seed.configs.assign(tables.size(), 0);

  // The reference engine's arrival budgeting, off the tables: per-net
  // ceilings of (1 + f) x the original arrival (the circuit_delay
  // recurrence over configuration 0, i.e. the incoming netlist), running
  // arrivals of the partially committed netlist, and the same 1e-18
  // admissibility epsilon.
  const bool budget_delay = options.max_circuit_delay_increase.has_value();
  std::vector<double> original;
  std::vector<double> arrival;
  if (budget_delay) {
    original.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
    arrival.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
  }

  std::vector<char> admissible;
  std::vector<double> candidate_arrival;
  for (GateId g : topo_order) {
    const GateTable& table = tables[static_cast<std::size_t>(g)];
    const netlist::GateInst& inst = netlist.gate(g);
    const std::size_t n = table.power.size();

    admissible.assign(n, 1);
    if (options.restrict_to_instance) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!table.same_instance(static_cast<int>(i))) {
          admissible[i] = 0;
          ++seed.rejected_instance;
        }
      }
    }
    if (budget_delay) {
      const std::size_t out = static_cast<std::size_t>(inst.output);
      original[out] = gate_arrival(inst, table.pin_delays(0), original);
      const double budget =
          original[out] * (1.0 + *options.max_circuit_delay_increase);
      candidate_arrival.assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        candidate_arrival[i] = gate_arrival(
            inst, table.pin_delays(static_cast<int>(i)), arrival);
        if (i > 0 && candidate_arrival[i] > budget + k_budget_epsilon) {
          admissible[i] = 0;
          ++seed.rejected_delay;
        }
      }
      TR_ASSERT(candidate_arrival[0] <= budget + 1e-15);
    }

    std::size_t chosen = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!admissible[i]) continue;
      const bool better = options.objective == Objective::minimize_power
                              ? table.power[i] < table.power[chosen]
                              : table.power[i] > table.power[chosen];
      if (better) chosen = i;
    }
    seed.configs[static_cast<std::size_t>(g)] = static_cast<int>(chosen);
    if (budget_delay) {
      arrival[static_cast<std::size_t>(inst.output)] =
          candidate_arrival[chosen];
    }
  }
  return seed;
}

GreedySeed greedy_seed(const IncrementalScorer& scorer,
                       const OptimizeOptions& options) {
  return greedy_seed(scorer.netlist(), scorer.tables(), scorer.topo_order(),
                     options);
}

OptimizeReport commit(Netlist& netlist, const std::vector<GateTable>& tables,
                      const std::vector<GateId>& topo_order,
                      const std::vector<int>& configs) {
  require(configs.size() == tables.size(),
          "search: configuration vector arity mismatch");
  OptimizeReport report;
  report.decisions.resize(tables.size());
  for (std::size_t gi = 0; gi < tables.size(); ++gi) {
    const GateTable& table = tables[gi];
    GateDecision& decision = report.decisions[gi];
    decision.gate = static_cast<GateId>(gi);
    decision.config_count = table.config_count();
    decision.original_power = table.power.front();  // incoming config first
    decision.best_power = table.power.front();
    decision.worst_power = table.power.front();
    for (const double p : table.power) {
      if (p < decision.best_power) decision.best_power = p;
      if (p > decision.worst_power) decision.worst_power = p;
    }
    const std::size_t cfg = static_cast<std::size_t>(configs[gi]);
    decision.chosen_power = table.power[cfg];
    decision.changed = cfg != 0;
    if (decision.changed) {
      netlist.set_config(decision.gate, table.catalog->configs()[cfg].topology);
      ++report.gates_changed;
    }
  }
  for (GateId g : topo_order) {
    report.model_power_before +=
        report.decisions[static_cast<std::size_t>(g)].original_power;
    report.model_power_after +=
        report.decisions[static_cast<std::size_t>(g)].chosen_power;
  }
  // The circuit_delay reduction: max over primary outputs from 0.0.
  const auto critical_path = [&](const std::vector<int>& at) {
    const std::vector<double> arrival =
        table_arrivals(netlist, tables, topo_order, at);
    double path = 0.0;
    for (NetId id : netlist.primary_outputs()) {
      path = std::max(path, arrival[static_cast<std::size_t>(id)]);
    }
    return path;
  };
  report.critical_path_before =
      critical_path(std::vector<int>(tables.size(), 0));
  report.critical_path_after = critical_path(configs);
  return report;
}

OptimizeReport anneal_optimize(Netlist& netlist,
                               const std::map<NetId, SignalStats>& pi_stats,
                               const celllib::Tech& tech,
                               const OptimizeOptions& options) {
  const AnnealParams& params = options.anneal;
  require(params.iterations_per_gate >= 0, "anneal: iterations_per_gate < 0");
  require(params.min_iterations >= 0, "anneal: min_iterations < 0");
  require(std::isfinite(params.initial_temp_scale) &&
              params.initial_temp_scale >= 0.0,
          "anneal: initial_temp_scale must be finite and >= 0");
  require(params.final_temp_ratio > 0.0 && params.final_temp_ratio <= 1.0,
          "anneal: final_temp_ratio must be in (0, 1]");
  require(params.slack_refresh >= 1, "anneal: slack_refresh must be >= 1");

  const bool cancellable = options.cancel.valid();
  IncrementalScorer scorer(netlist, pi_stats, tech, options.model,
                           options.cancel);
  const GreedySeed seed = greedy_seed(scorer, options);
  if (options.max_circuit_delay_increase) {
    scorer.set_delay_budget(*options.max_circuit_delay_increase);
  }
  scorer.set_configs(seed.configs);
  TR_ASSERT(scorer.feasible());  // the greedy seed honours per-net budgets
  const double greedy_power = scorer.total_power_in_topo_order();

  const int gates = scorer.gate_count();
  const std::uint64_t total_iters = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(params.min_iterations),
      static_cast<std::uint64_t>(params.iterations_per_gate) *
          static_cast<std::uint64_t>(gates));

  // Initial temperature: a fraction of the mean per-gate power span, so
  // early uphill moves can cross typical single-gate barriers; geometric
  // decay to final_temp_ratio x T0 across the whole move budget.
  double span_sum = 0.0;
  for (GateId g = 0; g < gates; ++g) {
    const std::vector<double>& power = scorer.table(g).power;
    const auto [lo, hi] = std::minmax_element(power.begin(), power.end());
    span_sum += *hi - *lo;
  }
  const double t0 =
      params.initial_temp_scale * (gates > 0 ? span_sum / gates : 0.0);

  // Minimisation throughout: E = sign * power.
  const double sign =
      options.objective == Objective::minimize_power ? 1.0 : -1.0;

  AnnealStats stats;
  std::vector<int> best = scorer.configs();

  // When greedy rejected nothing for delay, every gate already holds its
  // strict per-gate optimum among the configurations a move may visit
  // (moves obey the same instance restriction), and the topological-order
  // sum the final commit compares is monotone in each term: no move
  // sequence can beat the seed, so the search is skipped and its stats
  // stay zero.
  if (seed.rejected_delay > 0 && t0 > 0.0 && gates > 0 && total_iters > 1) {
    double best_energy = sign * scorer.total_power();
    std::vector<double> required;
    if (scorer.has_delay_budget()) required = scorer.required_times();
    int accepted_since_refresh = 0;
    tr::Rng rng(params.seed);
    const double alpha =
        std::pow(params.final_temp_ratio,
                 1.0 / static_cast<double>(total_iters - 1));
    double temp = t0;
    for (std::uint64_t it = 0; it < total_iters; ++it, temp *= alpha) {
      if (cancellable && (it & 1023u) == 0) options.cancel.check("anneal");
      ++stats.iterations;

      // Move: uniform gate, uniform *other* configuration of that gate.
      const GateId g =
          static_cast<GateId>(rng.next_below(static_cast<std::uint64_t>(gates)));
      const GateTable& table = scorer.table(g);
      const int n = table.config_count();
      if (n <= 1) continue;
      const int current = scorer.config_of(g);
      int candidate = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n - 1)));
      if (candidate >= current) ++candidate;
      if (options.restrict_to_instance && !table.same_instance(candidate)) {
        continue;
      }

      // Slack prune: reject before propagating when the gate's own output
      // would already overshoot its required time. Required times go stale
      // between refreshes, which can only over-reject (a quality knob) —
      // acceptance is always validated by the exact propagation below.
      if (!required.empty()) {
        const netlist::GateInst& inst = netlist.gate(g);
        if (gate_arrival(inst, table.pin_delays(candidate),
                         scorer.arrivals()) >
            required[static_cast<std::size_t>(inst.output)] +
                k_budget_epsilon) {
          ++stats.rejected_delay;
          continue;
        }
      }

      const IncrementalScorer::Undo undo = scorer.apply(g, candidate);
      if (scorer.has_delay_budget() && !scorer.feasible()) {
        scorer.revert(undo);
        ++stats.rejected_delay;
        continue;
      }
      const double delta = sign * (scorer.total_power() - undo.old_total_power);
      bool accept = delta <= 0.0;
      if (!accept && temp > 0.0) {
        accept = rng.next_double() < std::exp(-delta / temp);
      }
      if (!accept) {
        scorer.revert(undo);
        continue;
      }
      ++stats.accepted;
      if (delta > 0.0) ++stats.uphill_accepted;
      const double energy = sign * scorer.total_power();
      if (energy < best_energy) {
        best_energy = energy;
        best = scorer.configs();
      }
      if (!required.empty() &&
          ++accepted_since_refresh >= params.slack_refresh) {
        required = scorer.required_times();
        accepted_since_refresh = 0;
      }
    }
  }

  // Last cancellation point: past here the netlist is mutated.
  if (cancellable) options.cancel.check("anneal");

  // Final commit compares *true* (topo-order) objective values, so the
  // result never loses to the greedy seed — ties and any accumulated
  // exact-difference drift both resolve to the seed.
  scorer.set_configs(best);
  const double best_power = scorer.total_power_in_topo_order();
  const bool use_best = options.objective == Objective::minimize_power
                            ? best_power < greedy_power
                            : best_power > greedy_power;
  if (!use_best) scorer.set_configs(seed.configs);
  TR_ASSERT(scorer.feasible());

  OptimizeReport report =
      commit(netlist, scorer.tables(), scorer.topo_order(), scorer.configs());
  report.engine_used = Engine::anneal;
  report.threads_used = 1;
  report.configs_rejected_by_delay = seed.rejected_delay;
  report.configs_rejected_by_instance = seed.rejected_instance;
  stats.greedy_power = greedy_power;
  stats.final_power = report.model_power_after;
  report.anneal = stats;
  return report;
}

}  // namespace tr::opt::search
