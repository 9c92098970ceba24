#pragma once
// The compiled form of the Elmore path walk of one gate configuration
// (DESIGN.md Sec. 7.1). delay::gate_delays walks every simple path from
// the output to each rail; the walk depends only on the configuration's
// structure, never on the node capacitances or the technology, so it runs
// once — when ReorderCatalog::build characterises the configuration — and
// every later timing question evaluates the stored program.
//
// A program is one flat array of small integers:
//
//   [0]                    gate input count
//   [1]                    node count N (GateGraph numbering)
//   [2, 2 + N)             diffusion terminal count per node
//   then one record per path, in the walk's order (pull-down first):
//     rail (0 = vss, 1 = vdd), device count k,
//     k pairs (node above device d_m, input pin of d_m), output side first
//
// Evaluation replays the walk's arithmetic exactly: for each path and
// each m, the time constant sum_{j<=m} C(n_j) * R(d_j..d_{k-1}) with the
// resistances folded device by device from the node down to the rail, the
// nodes summed from the output down, and 0.69 * tau maxed into the pin of
// d_m — so the result is bit-identical to the walk.

#include <cstdint>
#include <span>
#include <vector>

#include "celllib/tech.hpp"
#include "gategraph/gate_graph.hpp"

namespace tr::delay {

using ElmoreProgram = std::vector<std::uint16_t>;

/// Runs the path walk of `graph` and records its output.
ElmoreProgram compile_elmore(const gategraph::GateGraph& graph);

/// Per-pin delays [s] at the node capacitances of
/// celllib::node_capacitances(graph, tech, external_load), computed from
/// the stored terminal counts. `pin_delay` must hold one entry per gate
/// input; it is overwritten. Allocates nothing.
void evaluate_elmore(std::span<const std::uint16_t> program,
                     const celllib::Tech& tech, double external_load,
                     std::span<double> pin_delay);

}  // namespace tr::delay
