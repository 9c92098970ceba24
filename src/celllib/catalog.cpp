#include "celllib/catalog.hpp"

#include <string>
#include <utility>

#include "gategraph/gate_graph.hpp"
#include "gategraph/isomorphism.hpp"
#include "util/error.hpp"

namespace tr::celllib {

using boolfn::TruthTable;
using gategraph::GateGraph;
using gategraph::GateTopology;

namespace {

/// Fills dh/dg from the node's h/g tables. Derived configurations run the
/// same code as representatives so their tables are bit-identical to what
/// the reference scorer computes on the fly.
void fill_differences(CatalogNode& node, int input_count) {
  node.dh.reserve(static_cast<std::size_t>(input_count));
  node.dg.reserve(static_cast<std::size_t>(input_count));
  for (int i = 0; i < input_count; ++i) {
    node.dh.push_back(node.h.boolean_difference(i));
    node.dg.push_back(node.g.boolean_difference(i));
  }
}

/// Model node order: internal nodes ascending, output last (the order
/// power::evaluate_gate_power sums node powers in).
std::vector<int> model_node_order(int internal_count) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(internal_count) + 1);
  for (int k = 0; k < internal_count; ++k) {
    order.push_back(GateGraph::first_internal_node + k);
  }
  order.push_back(GateGraph::output_node);
  return order;
}

/// Characterises a configuration directly: path-function DFS on its graph.
void characterize(CatalogConfig& entry, const GateGraph& graph,
                  int input_count, int internal_count) {
  const std::vector<int> terminals = graph.terminal_counts();
  entry.nodes.clear();
  entry.nodes.reserve(static_cast<std::size_t>(internal_count) + 1);
  for (int node : model_node_order(internal_count)) {
    CatalogNode cn;
    cn.node = node;
    cn.terminal_count = terminals[static_cast<std::size_t>(node)];
    cn.h = graph.h_function(node);
    cn.g = graph.g_function(node);
    fill_differences(cn, input_count);
    entry.nodes.push_back(std::move(cn));
  }
}

/// Derives a configuration's tables from its instance representative by
/// variable permutation and node remapping — no path-function DFS.
void derive(CatalogConfig& entry, const CatalogConfig& rep,
            const gategraph::ConfigIsomorphism& iso, int input_count,
            int internal_count) {
  entry.nodes.clear();
  entry.nodes.reserve(static_cast<std::size_t>(internal_count) + 1);
  for (int node : model_node_order(internal_count)) {
    const int rep_node = iso.node_remap[static_cast<std::size_t>(node)];
    // Representative storage position for a graph node id (internal nodes
    // are contiguous from first_internal_node; output is stored last).
    const std::size_t rep_pos =
        rep_node == GateGraph::output_node
            ? static_cast<std::size_t>(internal_count)
            : static_cast<std::size_t>(rep_node - GateGraph::first_internal_node);
    const CatalogNode& src = rep.nodes[rep_pos];
    CatalogNode cn;
    cn.node = node;
    cn.terminal_count = src.terminal_count;
    cn.h = src.h.permute_vars(iso.var_perm);
    cn.g = src.g.permute_vars(iso.var_perm);
    fill_differences(cn, input_count);
    entry.nodes.push_back(std::move(cn));
  }
}

/// Build-time sanity: the output node's path functions have closed forms
/// (H_y = pull-up conduction, G_y = pull-down conduction) and no node may
/// see both rails at once in a complementary gate. Internal-node tables
/// are covered by the parity test suite.
void verify(const CatalogConfig& entry, int input_count) {
  const TruthTable up = gategraph::conduction_function(
      entry.topology.pmos(), gategraph::DeviceType::pmos, input_count);
  const TruthTable down = gategraph::conduction_function(
      entry.topology.nmos(), gategraph::DeviceType::nmos, input_count);
  TR_ASSERT(entry.nodes.back().h == up);
  TR_ASSERT(entry.nodes.back().g == down);
  for (const CatalogNode& node : entry.nodes) {
    TR_ASSERT((node.h & node.g).is_zero());
  }
}

}  // namespace

ReorderCatalog ReorderCatalog::build(const GateTopology& start) {
  ReorderCatalog catalog;
  catalog.input_count_ = start.input_count();
  catalog.internal_node_count_ = start.internal_node_count();

  std::vector<GateTopology> orderings = start.all_reorderings();
  catalog.configs_.reserve(orderings.size());

  // Instance representatives seen so far: (config index, instance key).
  std::vector<std::pair<int, std::string>> reps;
  std::string first_key;
  for (GateTopology& topology : orderings) {
    CatalogConfig entry(std::move(topology));
    const std::string key = entry.topology.instance_key();
    if (catalog.configs_.empty()) first_key = key;
    entry.same_instance_as_first = key == first_key;

    const GateGraph graph(entry.topology);
    entry.elmore = delay::compile_elmore(graph);
    bool derived = false;
    for (const auto& [rep_index, rep_key] : reps) {
      if (rep_key != key) continue;
      const CatalogConfig& rep =
          catalog.configs_[static_cast<std::size_t>(rep_index)];
      const auto iso = find_isomorphism(rep.topology, entry.topology);
      if (!iso) continue;  // fall through to direct characterisation
      derive(entry, rep, *iso, catalog.input_count_,
             catalog.internal_node_count_);
      derived = true;
      break;
    }
    if (!derived) {
      characterize(entry, graph, catalog.input_count_,
                   catalog.internal_node_count_);
      reps.emplace_back(static_cast<int>(catalog.configs_.size()), key);
      ++catalog.characterized_;
    }
    verify(entry, catalog.input_count_);
    catalog.configs_.push_back(std::move(entry));
  }
  return catalog;
}

}  // namespace tr::celllib
