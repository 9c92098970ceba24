// Golden-file regression for the tr_opt JSON output: the deterministic
// report for the four embedded classic circuits — unbudgeted, and at
// --delay-budget 0.05 with the catalog and the annealing engine — must
// stay byte-identical to the checked-in fixtures, across runs and across
// worker counts at both parallelism levels.
//
// The test drives the exact library path the CLI uses (load classics ->
// map -> make_scenario_circuit -> BatchOptimizer -> write_batch_json
// with timing off), so a golden mismatch means the CLI's output contract
// changed. Intentional schema changes: regenerate with
//   TR_UPDATE_GOLDEN=1 ctest -R GoldenTrOpt
// and commit the refreshed tests/golden/ files with the change that
// caused them.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "benchgen/classic.hpp"
#include "celllib/library.hpp"
#include "mapper/mapper.hpp"
#include "netlist/blif.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "util/fault.hpp"

namespace tr::opt {
namespace {

using celllib::CellLibrary;
using celllib::Tech;

#ifndef TR_GOLDEN_DIR
#error "TR_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

std::string golden_path(const std::string& name) {
  return std::string(TR_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The tr_opt --suite classic --seed 1 --no-timing pipeline, with the
/// run options `opt` (the default = no further flags).
std::string classic_batch_json(int jobs, int threads_per_circuit,
                               BatchJsonOptions json,
                               const OptimizeOptions& opt = {}) {
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  std::vector<BatchCircuit> batch;
  for (const std::string& name : benchgen::classic_names()) {
    const auto logic =
        netlist::read_blif_logic_string(benchgen::classic_blif(name), name);
    batch.push_back(make_scenario_circuit(
        mapper::map_network(logic, library), 'A', /*master_seed=*/1));
  }
  BatchOptions options;
  options.opt = opt;
  options.jobs = jobs;
  options.threads_per_circuit = threads_per_circuit;
  const BatchReport report =
      BatchOptimizer(library, tech, options).run(batch);
  std::ostringstream out;
  json.include_timing = false;  // goldens are wall-clock-free by contract
  write_batch_json(batch, report, options, out, json);
  return out.str();
}

/// Compares `current` with tests/golden/`name`, or rewrites the golden
/// under TR_UPDATE_GOLDEN.
void expect_golden(const std::string& current, const std::string& name) {
  const std::string path = golden_path(name);

  if (std::getenv("TR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << current;
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden " << path
      << " — run with TR_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(golden, current)
      << name << " drifted from the golden; if intentional, regenerate "
      << "with TR_UPDATE_GOLDEN=1 and commit the diff";
}

TEST(GoldenTrOpt, ClassicSuiteMatchesGolden) {
  expect_golden(classic_batch_json(1, 1, {}), "tr_opt_classic.json");
}

/// --delay-budget 0.05: pins the budgeted catalog walk's decisions and
/// both critical paths byte for byte.
TEST(GoldenTrOpt, BudgetedClassicSuiteMatchesGolden) {
  OptimizeOptions opt;
  opt.max_circuit_delay_increase = 0.05;
  const std::string serial = classic_batch_json(1, 1, {}, opt);
  expect_golden(serial, "tr_opt_classic_budgeted.json");
  EXPECT_EQ(serial, classic_batch_json(4, 1, {}, opt));
}

/// --engine anneal --delay-budget 0.05: the same for the annealer.
TEST(GoldenTrOpt, BudgetedAnnealClassicSuiteMatchesGolden) {
  OptimizeOptions opt;
  opt.engine = Engine::anneal;
  opt.max_circuit_delay_increase = 0.05;
  const std::string serial = classic_batch_json(1, 1, {}, opt);
  expect_golden(serial, "tr_opt_classic_anneal_budgeted.json");
  EXPECT_EQ(serial, classic_batch_json(4, 1, {}, opt));
}

TEST(GoldenTrOpt, ByteStableAcrossWorkerCounts) {
  const std::string serial = classic_batch_json(1, 1, {});
  EXPECT_EQ(serial, classic_batch_json(4, 1, {}));
  EXPECT_EQ(serial, classic_batch_json(0, 1, {}));
  // Since schema v3 every circuit reports the gate-level worker count it
  // actually used, so a different --threads-per-circuit legitimately
  // changes exactly that one field — everything else (all decisions, all
  // numbers) must stay byte-identical.
  std::string threaded = classic_batch_json(2, 2, {});
  std::size_t replaced = 0;
  const std::string from = "\"threads\": 2";
  const std::string to = "\"threads\": 1";
  for (std::size_t pos = threaded.find(from); pos != std::string::npos;
       pos = threaded.find(from, pos + to.size())) {
    threaded.replace(pos, from.size(), to);
    ++replaced;
  }
  EXPECT_EQ(replaced, 4u);  // one per classic circuit
  EXPECT_EQ(serial, threaded);
}

TEST(GoldenTrOpt, ByteStableAcrossRepeatedRuns) {
  const std::string first = classic_batch_json(0, 1, {});
  EXPECT_EQ(first, classic_batch_json(0, 1, {}));
}

/// The classic pipeline with one circuit poisoned at the batch-worker
/// boundary: the error record (code/site/message) is deterministic, so
/// the whole report — survivors plus the errors index — is
/// golden-pinnable like the healthy run.
std::string poisoned_batch_json(int jobs) {
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  std::vector<BatchCircuit> batch;
  for (const std::string& name : benchgen::classic_names()) {
    const auto logic =
        netlist::read_blif_logic_string(benchgen::classic_blif(name), name);
    batch.push_back(make_scenario_circuit(
        mapper::map_network(logic, library), 'A', /*master_seed=*/1));
  }
  BatchOptions options;
  options.jobs = jobs;
  options.threads_per_circuit = 1;  // fault context stays on the worker
  const util::fault::ScopedFault fault("batch.circuit", 1,
                                       util::fault::FaultKind::error, "cmp2");
  const BatchReport report =
      BatchOptimizer(library, tech, options).run(batch);
  BatchJsonOptions json;
  json.include_timing = false;
  std::ostringstream out;
  write_batch_json(batch, report, options, out, json);
  return out.str();
}

TEST(GoldenTrOpt, PoisonedBatchMatchesGolden) {
  expect_golden(poisoned_batch_json(1), "tr_opt_poisoned.json");
}

TEST(GoldenTrOpt, PoisonedBatchByteStableAcrossWorkerCounts) {
  const std::string serial = poisoned_batch_json(1);
  EXPECT_EQ(serial, poisoned_batch_json(4));
}

TEST(GoldenTrOpt, GateConfigsToggleOnlyRemovesArrays) {
  BatchJsonOptions lean;
  lean.include_gate_configs = false;
  const std::string without = classic_batch_json(1, 1, lean);
  EXPECT_EQ(without.find("\"gate_configs\""), std::string::npos);
  const std::string with_configs = classic_batch_json(1, 1, {});
  EXPECT_NE(with_configs.find("\"gate_configs\""), std::string::npos);
}

}  // namespace
}  // namespace tr::opt
