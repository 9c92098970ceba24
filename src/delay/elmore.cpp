#include "delay/elmore.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tr::delay {

using gategraph::DeviceType;
using gategraph::GateGraph;
using gategraph::Transistor;

namespace {

/// RC-ladder step response factor (time to 50% swing of exp settling).
constexpr double k_elmore_to_delay = 0.69;

/// Walks every simple path from the output node to `rail` and appends one
/// program record per path: y = n_0 -[d_0]- n_1 -[d_1]- ... -[d_{k-1}]- rail
/// becomes (rail, k, n_0, pin(d_0), ..., n_{k-1}, pin(d_{k-1})). When d_m
/// switches last, the charge still to move sits on n_0..n_m (nodes below
/// d_m are pre-discharged), and n_j drains through d_j..d_{k-1}.
void compile_network(const GateGraph& graph, int rail, ElmoreProgram& program) {
  // Adjacency over transistor indices.
  const auto& transistors = graph.transistors();
  std::vector<std::vector<int>> adjacency(
      static_cast<std::size_t>(graph.node_count()));
  for (std::size_t t = 0; t < transistors.size(); ++t) {
    adjacency[static_cast<std::size_t>(transistors[t].node_out)].push_back(
        static_cast<int>(t));
    adjacency[static_cast<std::size_t>(transistors[t].node_rail)].push_back(
        static_cast<int>(t));
  }
  // A path to a rail runs through that rail's network only, so one
  // on-resistance serves every device of the record.
  const DeviceType rail_type =
      rail == GateGraph::vss_node ? DeviceType::nmos : DeviceType::pmos;

  std::vector<bool> visited(static_cast<std::size_t>(graph.node_count()));
  std::vector<int> path;         // transistor indices, output side first
  std::vector<int> nodes_above;  // node above device at same index in path
  auto emit = [&] {
    program.push_back(static_cast<std::uint16_t>(rail));
    program.push_back(static_cast<std::uint16_t>(path.size()));
    for (std::size_t i = 0; i < path.size(); ++i) {
      const Transistor& t = transistors[static_cast<std::size_t>(path[i])];
      TR_ASSERT(t.type == rail_type);
      program.push_back(static_cast<std::uint16_t>(nodes_above[i]));
      program.push_back(static_cast<std::uint16_t>(t.input));
    }
  };
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
        emit();
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

/// Replays a program with node capacitances from `cap_of(node)`.
template <typename CapOf>
void evaluate(std::span<const std::uint16_t> program, CapOf cap_of,
              const celllib::Tech& tech, std::span<double> pin_delay) {
  require(program.size() >= 2 && pin_delay.size() == program[0],
          "evaluate_elmore: pin delay arity mismatch");
  std::fill(pin_delay.begin(), pin_delay.end(), 0.0);
  std::size_t pos = 2 + static_cast<std::size_t>(program[1]);
  while (pos < program.size()) {
    const double r = program[pos] == GateGraph::vss_node ? tech.r_n : tech.r_p;
    const std::size_t k = program[pos + 1];
    pos += 2;
    double tau = 0.0;
    for (std::size_t m = 0; m < k; ++m, pos += 2) {
      double resistance = 0.0;
      for (std::size_t i = m; i < k; ++i) resistance += r;
      tau += cap_of(program[pos]) * resistance;
      double& delay = pin_delay[program[pos + 1]];
      delay = std::max(delay, k_elmore_to_delay * tau);
    }
  }
}

}  // namespace

ElmoreProgram compile_elmore(const GateGraph& graph) {
  require(graph.node_count() <= 0xffff && graph.input_count() <= 0xffff &&
              graph.transistors().size() <= 0xffff,
          "compile_elmore: gate too large for the program encoding");
  ElmoreProgram program;
  program.push_back(static_cast<std::uint16_t>(graph.input_count()));
  program.push_back(static_cast<std::uint16_t>(graph.node_count()));
  for (int count : graph.terminal_counts()) {
    program.push_back(static_cast<std::uint16_t>(count));
  }
  compile_network(graph, GateGraph::vss_node, program);
  compile_network(graph, GateGraph::vdd_node, program);
  program.shrink_to_fit();
  return program;
}

void evaluate_elmore(std::span<const std::uint16_t> program,
                     const celllib::Tech& tech, double external_load,
                     std::span<double> pin_delay) {
  // Paths never pass through a rail, so every node read here is the
  // output or internal — the nodes node_capacitances does not zero.
  evaluate(
      program,
      [&](std::uint16_t node) {
        return celllib::node_capacitance(tech, program[2 + node],
                                         node == GateGraph::output_node,
                                         external_load);
      },
      tech, pin_delay);
}

GateDelays gate_delays(const GateGraph& graph,
                       const std::vector<double>& node_caps,
                       const celllib::Tech& tech) {
  require(static_cast<int>(node_caps.size()) == graph.node_count(),
          "gate_delays: node capacitance arity mismatch");
  GateDelays result;
  result.pin_delay.resize(static_cast<std::size_t>(graph.input_count()));
  evaluate(
      compile_elmore(graph),
      [&](std::uint16_t node) { return node_caps[node]; }, tech,
      result.pin_delay);
  for (double d : result.pin_delay) result.worst = std::max(result.worst, d);
  return result;
}

CircuitDelay circuit_delay(const netlist::Netlist& netlist,
                           const celllib::Tech& tech) {
  CircuitDelay result;
  result.net_arrival.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);

  for (netlist::GateId g : netlist.topological_order()) {
    const netlist::GateInst& inst = netlist.gate(g);
    const gategraph::GateGraph graph(inst.config);
    const std::vector<double> caps = celllib::node_capacitances(
        graph, tech, netlist.external_load(g, tech));
    const GateDelays delays = gate_delays(graph, caps, tech);
    double arrival = 0.0;
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      arrival = std::max(
          arrival,
          result.net_arrival[static_cast<std::size_t>(inst.inputs[pin])] +
              delays.pin_delay[pin]);
    }
    result.net_arrival[static_cast<std::size_t>(inst.output)] = arrival;
  }

  for (netlist::NetId id : netlist.primary_outputs()) {
    result.critical_path = std::max(
        result.critical_path, result.net_arrival[static_cast<std::size_t>(id)]);
  }
  return result;
}

}  // namespace tr::delay
