// Differential tests of the one timing engine (DESIGN.md Sec. 7.1, 14.3):
//
//  * the compiled Elmore program — evaluate_elmore from the stored
//    terminal counts, and gate_delays from caller capacitances — is
//    bit-identical (memcmp) to a frozen copy of the path walk it
//    replaced, over every standard-library catalog configuration, random
//    SP gates up to 6 inputs and repeated-input cells with up to 18
//    devices on one path, each at no load, a typical load and ten times
//    that;
//  * the critical paths every engine reports equal delay::circuit_delay
//    on the incoming and the committed netlist, across engines, budgets,
//    objectives and the instance restriction;
//  * the tables' arrivals equal circuit_delay's net arrivals field for
//    field under random joint configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "celllib/catalog.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "opt/circuit_load.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"
#include "opt/search.hpp"
#include "random_sp_tree.hpp"
#include "util/rng.hpp"

namespace tr {
namespace {

using celllib::CellLibrary;
using celllib::ReorderCatalog;
using celllib::Tech;
using gategraph::GateGraph;
using gategraph::GateTopology;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

namespace frozen {

// The path walk as it stood before it was compiled, kept verbatim as the
// oracle: every path's time constants recomputed from scratch.
using gategraph::DeviceType;
using gategraph::Transistor;

constexpr double k_elmore_to_delay = 0.69;

void analyse_network(const GateGraph& graph,
                     const std::vector<double>& node_caps, int rail,
                     const Tech& tech, std::vector<double>& pin_delay) {
  const auto& transistors = graph.transistors();
  std::vector<std::vector<int>> adjacency(
      static_cast<std::size_t>(graph.node_count()));
  for (std::size_t t = 0; t < transistors.size(); ++t) {
    adjacency[static_cast<std::size_t>(transistors[t].node_out)].push_back(
        static_cast<int>(t));
    adjacency[static_cast<std::size_t>(transistors[t].node_rail)].push_back(
        static_cast<int>(t));
  }

  std::vector<bool> visited(static_cast<std::size_t>(graph.node_count()));
  std::vector<int> path;

  auto score_path = [&](const std::vector<int>& devices,
                        const std::vector<int>& nodes_above) {
    const std::size_t k = devices.size();
    for (std::size_t m = 0; m < k; ++m) {
      double tau = 0.0;
      for (std::size_t j = 0; j <= m; ++j) {
        double resistance = 0.0;
        for (std::size_t i = j; i < k; ++i) {
          const Transistor& t =
              transistors[static_cast<std::size_t>(devices[i])];
          resistance += t.type == DeviceType::nmos ? tech.r_n : tech.r_p;
        }
        tau += node_caps[static_cast<std::size_t>(nodes_above[j])] * resistance;
      }
      const int pin = transistors[static_cast<std::size_t>(devices[m])].input;
      pin_delay[static_cast<std::size_t>(pin)] =
          std::max(pin_delay[static_cast<std::size_t>(pin)],
                   k_elmore_to_delay * tau);
    }
  };

  std::vector<int> nodes_above;
  auto dfs = [&](auto&& self, int v) -> void {
    visited[static_cast<std::size_t>(v)] = true;
    for (int t : adjacency[static_cast<std::size_t>(v)]) {
      const Transistor& tx = transistors[static_cast<std::size_t>(t)];
      const int next = tx.node_out == v ? tx.node_rail : tx.node_out;
      if (visited[static_cast<std::size_t>(next)]) continue;
      if (next != rail &&
          (next == GateGraph::vss_node || next == GateGraph::vdd_node)) {
        continue;
      }
      path.push_back(t);
      nodes_above.push_back(v);
      if (next == rail) {
        score_path(path, nodes_above);
      } else {
        self(self, next);
      }
      path.pop_back();
      nodes_above.pop_back();
    }
    visited[static_cast<std::size_t>(v)] = false;
  };
  dfs(dfs, GateGraph::output_node);
}

std::vector<double> pin_delays(const GateGraph& graph,
                               const std::vector<double>& node_caps,
                               const Tech& tech) {
  std::vector<double> pin_delay(static_cast<std::size_t>(graph.input_count()),
                                0.0);
  analyse_network(graph, node_caps, GateGraph::vss_node, tech, pin_delay);
  analyse_network(graph, node_caps, GateGraph::vdd_node, tech, pin_delay);
  return pin_delay;
}

}  // namespace frozen

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// No load, a two-fanout net, and ten times that.
std::vector<double> loads(const Tech& tech) {
  const double typical = tech.c_wire + 2.0 * tech.c_gate;
  return {0.0, typical, 10.0 * typical};
}

/// Every evaluation path of `program` against the frozen walk on
/// `topology`'s graph, at every load.
void expect_program_matches_walk(const delay::ElmoreProgram& program,
                                 const GateTopology& topology) {
  const Tech tech;
  const GateGraph graph(topology);
  for (const double load : loads(tech)) {
    SCOPED_TRACE(testing::Message() << topology.canonical_key() << " load "
                                    << load);
    const std::vector<double> caps =
        celllib::node_capacitances(graph, tech, load);
    const std::vector<double> expected = frozen::pin_delays(graph, caps, tech);

    std::vector<double> from_load(expected.size(), -1.0);
    delay::evaluate_elmore(program, tech, load, from_load);
    EXPECT_TRUE(same_bits(from_load, expected));

    EXPECT_TRUE(
        same_bits(delay::gate_delays(graph, caps, tech).pin_delay, expected));
  }
}

void expect_catalog_matches_walk(const ReorderCatalog& catalog) {
  for (const celllib::CatalogConfig& config : catalog.configs()) {
    expect_program_matches_walk(config.elmore, config.topology);
    EXPECT_EQ(config.elmore, delay::compile_elmore(GateGraph(config.topology)));
  }
}

TEST(ElmoreProgram, EveryStandardCatalogConfigurationMatchesTheWalk) {
  const CellLibrary lib = CellLibrary::standard();
  int configs = 0;
  for (const std::string& name : lib.cell_names()) {
    const auto catalog = lib.catalog(lib.cell(name).topology());
    expect_catalog_matches_walk(*catalog);
    configs += static_cast<int>(catalog->configs().size());
  }
  EXPECT_GT(configs, 100);
}

TEST(ElmoreProgram, RandomSpGatesUpToSixInputsMatchTheWalk) {
  Rng rng(20261020);
  for (int n = 1; n <= 6; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<int> inputs;
      for (int i = 0; i < n; ++i) inputs.push_back(i);
      const GateTopology gate = GateTopology::from_pulldown(
          testutil::random_sp_tree(inputs, rng), n);
      expect_program_matches_walk(delay::compile_elmore(GateGraph(gate)),
                                  gate);
      if (gate.reordering_count_formula() <= 256) {
        expect_catalog_matches_walk(ReorderCatalog::build(gate));
      }
    }
  }
}

TEST(ElmoreProgram, RepeatedInputCellsAndLongSeriesPathsMatchTheWalk) {
  // The 12- and 18-leaf cells of the simulator's node-mask test, plus a
  // pure 18-device series stack: a path longer than any fixed-size
  // scratch an evaluator might assume.
  for (int leaves : {12, 18}) {
    Rng rng(1);
    std::vector<int> inputs;
    for (int i = 0; i < leaves; ++i) inputs.push_back(i % 6);
    const GateTopology gate = GateTopology::from_pulldown(
        testutil::random_sp_tree(inputs, rng), 6);
    expect_program_matches_walk(delay::compile_elmore(GateGraph(gate)), gate);
  }
  std::vector<gategraph::SpNode> stack;
  for (int i = 0; i < 18; ++i) {
    stack.push_back(gategraph::SpNode::transistor(i % 6));
  }
  const GateTopology series = GateTopology::from_pulldown(
      gategraph::SpNode::series(std::move(stack)), 6);
  const delay::ElmoreProgram program = delay::compile_elmore(GateGraph(series));
  expect_program_matches_walk(program, series);
  // The pull-down walk's one path, the first record, holds all 18.
  EXPECT_EQ(program[2 + static_cast<std::size_t>(program[1]) + 1], 18);
}

TEST(ElmoreProgram, MismatchedPinBufferIsRefused) {
  const CellLibrary lib = CellLibrary::standard();
  const GateGraph graph(lib.cell("nand2").topology());
  const delay::ElmoreProgram program = delay::compile_elmore(graph);
  const Tech tech;
  std::vector<double> three(3);
  EXPECT_THROW(delay::evaluate_elmore(program, tech, 0.0, three), Error);
}

// ---------------------------------------------------------------------------
// Report critical paths vs the GateGraph-per-gate oracle.

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

struct Case {
  opt::Engine engine;
  std::optional<double> budget;
  opt::Objective objective;
  bool restrict_to_instance;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (opt::Engine engine :
       {opt::Engine::catalog, opt::Engine::anneal, opt::Engine::reference}) {
    for (std::optional<double> budget :
         {std::optional<double>{}, std::optional<double>{0.0},
          std::optional<double>{0.05}}) {
      for (opt::Objective objective :
           {opt::Objective::minimize_power, opt::Objective::maximize_power}) {
        for (bool restrict_to_instance : {false, true}) {
          cases.push_back({engine, budget, objective, restrict_to_instance});
        }
      }
    }
  }
  return cases;
}

/// Runs the cases whose index is `first` modulo `stride` (all by default).
void expect_report_critical_paths(
    const Netlist& original,
    const std::map<NetId, boolfn::SignalStats>& stats, std::size_t first = 0,
    std::size_t stride = 1) {
  const Tech tech;
  const double before = delay::circuit_delay(original, tech).critical_path;
  const std::vector<Case> cases = all_cases();
  for (std::size_t i = first; i < cases.size(); i += stride) {
    const Case& c = cases[i];
    SCOPED_TRACE(testing::Message()
                 << original.name() << " engine " << opt::engine_name(c.engine)
                 << " budget " << c.budget.value_or(-1.0) << " objective "
                 << opt::objective_name(c.objective) << " restrict "
                 << c.restrict_to_instance);
    opt::OptimizeOptions options;
    options.engine = c.engine;
    options.max_circuit_delay_increase = c.budget;
    options.objective = c.objective;
    options.restrict_to_instance = c.restrict_to_instance;
    options.threads = 1;
    options.anneal.iterations_per_gate = 8;  // the search length is not
    options.anneal.min_iterations = 256;     // what is under test here
    Netlist committed = original;
    const opt::OptimizeReport report =
        opt::optimize(committed, stats, tech, options);
    EXPECT_EQ(report.critical_path_before, before);
    EXPECT_EQ(report.critical_path_after,
              delay::circuit_delay(committed, tech).critical_path);
    if (c.budget) {
      EXPECT_LE(report.critical_path_after,
                report.critical_path_before * (1.0 + *c.budget) + 1e-15);
    }
  }
}

TEST(ReportCriticalPaths, ClassicSuiteEqualsCircuitDelay) {
  std::uint64_t seed = 11;
  for (const std::string& spec : opt::suite_circuit_specs("classic")) {
    const Netlist nl = opt::load_circuit_spec(spec, lib());
    expect_report_critical_paths(nl, opt::scenario_a(nl, ++seed));
  }
}

TEST(ReportCriticalPaths, Table3SuiteEqualsCircuitDelay) {
  // Every case on three of the 39 circuits (circuit k runs the cases
  // congruent to k modulo 13), so the suite stays a tier-1 cost.
  std::uint64_t seed = 101;
  std::size_t k = 0;
  for (const std::string& spec : opt::suite_circuit_specs("table3")) {
    const Netlist nl = opt::load_circuit_spec(spec, lib());
    expect_report_critical_paths(nl, opt::scenario_a(nl, ++seed), k++ % 13,
                                 13);
  }
}

TEST(ReportCriticalPaths, RandomSpNetlistsEqualCircuitDelay) {
  Rng rng(424242);
  for (int trial = 0; trial < 6; ++trial) {
    const CellLibrary cells = testutil::random_sp_library(rng, 5, 5);
    const Netlist nl = testutil::random_sp_netlist(cells, rng, 14);
    std::map<NetId, boolfn::SignalStats> stats;
    for (NetId id : nl.primary_inputs()) {
      stats[id] = {rng.uniform(0.1, 0.9), rng.uniform(1e4, 1e6)};
    }
    expect_report_critical_paths(nl, stats);
  }
}

TEST(TableArrivals, RandomJointConfigurationsEqualCircuitDelay) {
  const Tech tech;
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const CellLibrary cells = testutil::random_sp_library(rng, 5, 6);
    const Netlist nl = testutil::random_sp_netlist(cells, rng, 16);
    std::map<NetId, boolfn::SignalStats> stats;
    for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 1e5};
    const std::vector<opt::search::GateTable> tables =
        opt::search::build_tables(nl, stats, tech,
                                  power::ModelKind::extended, {}, nullptr);
    const std::vector<GateId> topo = nl.topological_order();
    for (int round = 0; round < 4; ++round) {
      std::vector<int> configs(tables.size());
      Netlist materialised = nl;
      for (std::size_t g = 0; g < tables.size(); ++g) {
        configs[g] = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(tables[g].config_count())));
        materialised.set_config(
            static_cast<GateId>(g),
            tables[g].catalog->configs()[static_cast<std::size_t>(configs[g])]
                .topology);
      }
      EXPECT_TRUE(same_bits(
          opt::search::table_arrivals(nl, tables, topo, configs),
          delay::circuit_delay(materialised, tech).net_arrival));
    }
  }
}

}  // namespace
}  // namespace tr
