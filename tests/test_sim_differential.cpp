// Differential suite pinning the rewritten simulation hot path
// bit-identical to the retained reference event loop (DESIGN.md
// Sec. 10.5): same SimResult for every seed, both delay models,
// zero-delay mode, truncation, both scheduler lanes, and seeded random
// SP-tree netlists; plus the scratch-reuse contracts — zero steady-state
// allocation on a scaled circuit and Monte-Carlo thread-scratch safety.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "benchgen/generators.hpp"
#include "benchgen/suite.hpp"
#include "celllib/cell.hpp"
#include "celllib/library.hpp"
#include "gategraph/gate_graph.hpp"
#include "opt/scenario.hpp"
#include "random_sp_tree.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/sim_engine.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: global operator new/delete instrumented so the
// no-allocation-growth stress can observe the steady state directly.
// Counting is gated by a flag, so gtest bookkeeping outside the measured
// window stays invisible.
// ---------------------------------------------------------------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tr::sim {
namespace {

using boolfn::SignalStats;
using celllib::CellLibrary;
using celllib::Tech;
using netlist::NetId;
using netlist::Netlist;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

/// Field-by-field equality of the semantic (seed-determined) SimResult
/// content; the wall-clock diagnostics are deliberately not compared.
void expect_results_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.output_node_energy, b.output_node_energy);
  EXPECT_EQ(a.internal_node_energy, b.internal_node_energy);
  EXPECT_EQ(a.pi_energy, b.pi_energy);
  EXPECT_EQ(a.per_gate_energy, b.per_gate_energy);
  EXPECT_EQ(a.per_gate_output_energy, b.per_gate_output_energy);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    EXPECT_EQ(a.nets[n].prob, b.nets[n].prob) << "net " << n;
    EXPECT_EQ(a.nets[n].density, b.nets[n].density) << "net " << n;
  }
  EXPECT_EQ(a.event_count, b.event_count);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.measured_time, b.measured_time);
}

/// Fast path (both scheduler lanes) vs the reference oracle on one
/// engine configuration, across several replicate seeds.
void differential_check(const Netlist& nl,
                        const std::map<NetId, SignalStats>& stats,
                        SimOptions opt,
                        const std::vector<std::uint64_t>& seeds) {
  const Tech tech;
  opt.scheduler = SchedulerKind::calendar;
  const SimEngine calendar(nl, stats, tech, opt);
  opt.scheduler = SchedulerKind::heap;
  const SimEngine heap(nl, stats, tech, opt);
  ASSERT_TRUE(calendar.fast_path_available());
  ReplicationScratch scratch;
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const SimResult oracle = calendar.run_reference(seed);
    expect_results_identical(calendar.run(seed, scratch), oracle);
    expect_results_identical(heap.run(seed, scratch), oracle);
  }
}

TEST(SimDifferential, RippleCarryBothDelayModels) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 4);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.4, 2e5};
  SimOptions opt;
  opt.measure_time = 6e-4;
  opt.warmup_time = 1e-5;
  for (bool delays : {true, false}) {
    SCOPED_TRACE(testing::Message() << "delays=" << delays);
    opt.use_gate_delays = delays;
    differential_check(nl, stats, opt, {1, 2, 42, 987654321});
  }
}

TEST(SimDifferential, SuiteCircuitScenarioStats) {
  const auto& spec = benchgen::suite_entry("cm85a");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  const auto stats = opt::scenario_a(nl, spec.seed ^ 0x5EEDULL);
  SimOptions opt;
  opt.measure_time = 2e-4;
  differential_check(nl, stats, opt, {7, 1234});
}

TEST(SimDifferential, RandomSpTreeNetlists) {
  // Random series-parallel cells: deep stacks, many internal nodes,
  // mixed arities — the gate-level state machinery under stress.
  Rng rng(20260728);
  const Tech tech;
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
    const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 8);
    std::map<NetId, SignalStats> stats;
    for (NetId id : nl.primary_inputs()) {
      stats[id] = {rng.uniform(0.2, 0.8), rng.uniform(1e5, 4e5)};
    }
    SimOptions opt;
    opt.measure_time = 3e-4;
    opt.warmup_time = 1e-5;
    opt.use_gate_delays = (trial % 2) == 0;
    differential_check(nl, stats, opt, {11 + static_cast<std::uint64_t>(trial)});
  }

  // Up to 6-input cells, the widest gates the hot path takes. A read-once
  // gate has pins - 1 internal nodes, so these reach 5 nodes per mask.
  Rng wide_rng(20261018);
  const CellLibrary wide_lib = testutil::random_sp_library(wide_rng, 6, 6);
  const Netlist wide = testutil::random_sp_netlist(wide_lib, wide_rng, 12);
  int max_nodes = 0;
  for (netlist::GateId g = 0; g < wide.gate_count(); ++g) {
    const int nodes =
        gategraph::GateGraph(wide.gate(g).config).internal_node_count();
    EXPECT_EQ(nodes, static_cast<int>(wide.gate(g).inputs.size()) - 1);
    max_nodes = std::max(max_nodes, nodes);
  }
  ASSERT_EQ(max_nodes, 5);
  std::map<NetId, SignalStats> stats;
  for (NetId id : wide.primary_inputs()) {
    stats[id] = {wide_rng.uniform(0.2, 0.8), wide_rng.uniform(1e5, 4e5)};
  }
  SimOptions opt;
  opt.measure_time = 3e-4;
  opt.warmup_time = 1e-5;
  for (bool delays : {true, false}) {
    SCOPED_TRACE(testing::Message() << "wide, delays=" << delays);
    opt.use_gate_delays = delays;
    differential_check(wide, stats, opt, {21, 22});
  }
}

TEST(SimDifferential, RepeatedInputCellsUpToAndBeyondTheMaskWidth) {
  // Only cells whose inputs drive several transistors reach the high
  // node-mask bits: 12 leaves over 6 pins give 11 internal nodes (fast
  // path); 18 give 17, more than NodeMask holds, so that engine must run
  // the reference loop.
  const Tech tech;
  for (int leaves : {12, 18}) {
    SCOPED_TRACE(testing::Message() << "leaves " << leaves);
    Rng rng(1);
    std::vector<int> inputs;
    for (int i = 0; i < leaves; ++i) inputs.push_back(i % 6);
    CellLibrary cells;
    cells.add(celllib::Cell("rep", {"p0", "p1", "p2", "p3", "p4", "p5"},
                            testutil::random_sp_tree(inputs, rng)));
    ASSERT_EQ(gategraph::GateGraph(cells.cell("rep").topology())
                  .internal_node_count(),
              leaves - 1);
    const Netlist nl = testutil::random_sp_netlist(cells, rng, 6);
    std::map<NetId, SignalStats> stats;
    for (NetId id : nl.primary_inputs()) {
      stats[id] = {rng.uniform(0.2, 0.8), rng.uniform(1e5, 4e5)};
    }
    SimOptions opt;
    opt.measure_time = 3e-4;
    opt.warmup_time = 1e-5;
    if (leaves - 1 <= std::numeric_limits<NodeMask>::digits) {
      differential_check(nl, stats, opt, {31, 32});
      continue;
    }
    const SimEngine engine(nl, stats, tech, opt);
    EXPECT_FALSE(engine.fast_path_available());
    expect_results_identical(engine.run(31), engine.run_reference(31));
  }
}

TEST(SimDifferential, TruncationIsBitIdentical) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 2e5};
  SimOptions opt;
  opt.measure_time = 6e-4;
  const Tech tech;
  const SimEngine probe(nl, stats, tech, opt);
  const std::uint64_t full_events = probe.run_reference(5).event_count;
  ASSERT_GT(full_events, 50u);
  for (std::uint64_t budget : {full_events / 2, std::uint64_t{1}}) {
    SCOPED_TRACE(testing::Message() << "max_events " << budget);
    opt.max_events = budget;
    differential_check(nl, stats, opt, {5, 6});
  }
}

TEST(SimDifferential, FrozenAndMixedInputProcesses) {
  // Frozen inputs exercise the empty-queue path and the scheduler's
  // degenerate-grid fallback; the mixed case leaves some processes
  // frozen with others toggling.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const std::vector<NetId> pis = nl.primary_inputs();
  std::map<NetId, SignalStats> frozen;
  for (NetId id : pis) frozen[id] = {1.0, 0.0};
  SimOptions opt;
  opt.measure_time = 2e-4;
  differential_check(nl, frozen, opt, {3});

  std::map<NetId, SignalStats> mixed = frozen;
  mixed[pis.front()] = {0.5, 3e5};
  differential_check(nl, mixed, opt, {3, 4});
}

TEST(SimDifferential, PiStatsTableMatchesMapBoundary) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.3, 1e5};
  const Tech tech;
  SimOptions opt;
  opt.measure_time = 4e-4;
  const SimEngine from_map(nl, stats, tech, opt);
  const SimEngine from_table(
      nl, PiStatsTable(nl.net_count(), stats), tech, opt);
  expect_results_identical(from_map.run(9), from_table.run(9));

  // Missing-PI validation holds for the flat boundary too.
  PiStatsTable incomplete(nl.net_count());
  EXPECT_THROW(SimEngine(nl, incomplete, tech, opt), Error);
}

TEST(SimDifferential, MonteCarloSummariesMatchPreRewriteAccumulation) {
  // The MC layer folds fast-path results; replaying the fold over
  // reference results must give the identical summary (scratch reuse and
  // the scheduler drop out of the estimates entirely).
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  MonteCarloOptions mc;
  mc.sim.seed = 77;
  mc.sim.measure_time = 3e-4;
  mc.sim.warmup_time = 1e-5;
  mc.replications = 8;
  mc.threads = 2;
  const SimEngine engine(nl, stats, tech, mc.sim);
  const SimSummary summary = monte_carlo(engine, mc);
  ASSERT_EQ(summary.replications, 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    const SimResult oracle =
        engine.run_reference(Rng::derive_stream(mc.sim.seed, k));
    EXPECT_EQ(summary.replicate_energy[k], oracle.energy) << "replicate " << k;
  }
  EXPECT_GT(summary.events_per_sec, 0.0);
  EXPECT_GT(summary.scratch_high_water_bytes, 0u);
}

TEST(SimDifferential, ScaledCircuitSteadyStateDoesNotAllocate) {
  // Slow-tier stress (ISSUE 5): on a scaled-suite circuit, replications
  // reusing one scratch + one result must reach an allocation-free
  // steady state — the arena high-water stabilises and the global
  // operator-new counter stays at zero across later replications.
  const auto& spec = benchgen::suite_entry("syn1000");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  const auto stats = opt::scenario_a(nl, spec.seed);
  const Tech tech;
  SimOptions opt;
  // A short window keeps the test fast; the state arenas (the thing the
  // contract is about) are sized by the circuit, not the window.
  opt.measure_time = 2e-5;
  opt.warmup_time = 2e-6;
  const SimEngine engine(nl, stats, tech, opt);
  ASSERT_TRUE(engine.fast_path_available());

  ReplicationScratch scratch;
  SimResult result;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    engine.run(seed, scratch, result);  // warmup: arenas grow to size
  }
  const std::size_t warm_bytes = scratch.high_water_bytes();
  EXPECT_GT(warm_bytes, 0u);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (std::uint64_t seed = 5; seed <= 16; ++seed) {
    engine.run(seed, scratch, result);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "steady-state replications allocated";
  EXPECT_EQ(scratch.high_water_bytes(), warm_bytes);
  EXPECT_EQ(result.scratch_bytes, warm_bytes);
  EXPECT_FALSE(result.truncated);
}

TEST(SimDifferential, ScaledCircuitFastPathMatchesOracle) {
  // One scaled-tier differential point (slow tier): the whole reason the
  // rewrite is trusted on the syn tier.
  const auto& spec = benchgen::suite_entry("syn1000");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  const auto stats = opt::scenario_a(nl, spec.seed);
  SimOptions opt;
  opt.measure_time = 2e-5;
  opt.warmup_time = 2e-6;
  differential_check(nl, stats, opt, {2026});
}

}  // namespace
}  // namespace tr::sim
