#pragma once
// Per-cell reordering catalogs: the one-time characterisation that powers
// the configuration-scoring engine (DESIGN.md Sec. 7.1).
//
// A catalog enumerates every reordering of a starting configuration (in
// GateTopology::all_reorderings order, starting configuration first) and
// precomputes, for every node of every configuration, the data the power
// model needs: terminal count (diffusion capacitance is proportional),
// the H/G path functions, and their boolean differences per input. Only
// one representative per layout-instance group is characterised with a
// GateGraph path DFS; all other configurations derive their tables by
// word-parallel variable permutation through a ConfigIsomorphism — the
// configurations of a cell are input-permutations of their instance
// representative (paper Sec. 5.1), so no truth table is recomputed from
// a graph per candidate. Every configuration also stores its compiled
// Elmore program (delay/elmore_program.hpp), the load-independent output
// of the timing path walk, so pin delays are evaluated, never re-walked.
//
// Catalogs contain no technology constants and no input statistics, so
// one catalog serves every gate of a netlist that instantiates the same
// cell in the same configuration; CellLibrary caches them by the
// topology's STORED structural form (not the canonical key: enumeration
// order walks the stored tree, and tie-break parity with the reference
// engine requires equal enumeration orders — see stored_key() in
// library.cpp).

#include <utility>
#include <vector>

#include "boolfn/truth_table.hpp"
#include "delay/elmore_program.hpp"
#include "gategraph/gate_topology.hpp"

namespace tr::celllib {

/// Precomputed model inputs for one node of one configuration.
struct CatalogNode {
  int node = -1;           ///< GateGraph node id in this configuration
  int terminal_count = 0;  ///< diffusion terminals (C = c_diff * count)
  boolfn::TruthTable h;    ///< paths to vdd
  boolfn::TruthTable g;    ///< paths to vss
  std::vector<boolfn::TruthTable> dh;  ///< dH/dx_i per gate input i
  std::vector<boolfn::TruthTable> dg;  ///< dG/dx_i per gate input i
};

/// One reordering of the cell, fully characterised.
struct CatalogConfig {
  explicit CatalogConfig(gategraph::GateTopology t)
      : topology(std::move(t)) {}

  gategraph::GateTopology topology;
  /// True when this configuration is realisable by the same sea-of-gates
  /// layout instance as the catalog's starting configuration (equal
  /// instance keys) — precomputed for OptimizeOptions::restrict_to_instance.
  bool same_instance_as_first = true;
  /// Internal nodes in ascending GateGraph id order, then the output node
  /// last — the exact node order evaluate_gate_power sums in.
  std::vector<CatalogNode> nodes;
  /// The configuration's Elmore path walk, compiled: evaluate_elmore on
  /// it is bit-identical to delay::gate_delays on its graph.
  delay::ElmoreProgram elmore;
};

class ReorderCatalog {
public:
  /// Characterises the full reordering space reachable from `start`.
  static ReorderCatalog build(const gategraph::GateTopology& start);

  int input_count() const noexcept { return input_count_; }
  int internal_node_count() const noexcept { return internal_node_count_; }
  /// Configurations in GateTopology::all_reorderings enumeration order;
  /// configs()[0] is the starting configuration.
  const std::vector<CatalogConfig>& configs() const noexcept {
    return configs_;
  }
  /// Instance representatives characterised by graph DFS; the remaining
  /// configs().size() - characterized_instances() entries were derived by
  /// variable permutation.
  int characterized_instances() const noexcept { return characterized_; }

private:
  ReorderCatalog() = default;

  int input_count_ = 0;
  int internal_node_count_ = 0;
  int characterized_ = 0;
  std::vector<CatalogConfig> configs_;
};

}  // namespace tr::celllib
