#include "workloads.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench_math.hpp"
#include "benchgen/suite.hpp"
#include "celllib/catalog.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "harness.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/checkpoint.hpp"
#include "opt/circuit_load.hpp"
#include "opt/optimizer.hpp"
#include "opt/search.hpp"
#include "power/circuit_power.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/request.hpp"
#include "sim/bitsim.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/sim_engine.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

extern char** environ;

namespace perfbench {

void RunResult::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "batch_scaled", "budgeted_table3", "serve_mixed", "paper_pipeline"};
  return names;
}

namespace {

using namespace tr;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Circuit-level workers of every batch: the core count of the machine
/// the benchmark was sized on, so no workload oversubscribes it.
constexpr int kJobs = 4;
constexpr double kBudget = 0.05;
constexpr double kInf = std::numeric_limits<double>::infinity();

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer& tracer() { return Tracer::global(); }
void count(const std::string& name, double value) {
  tracer().count(name, value);
}
double counter(const std::string& name) { return tracer().counter(name); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs measured passes until `seconds` are spent (at least `min_passes`).
/// `pass(index, traced)` returns the gates per second of its measured
/// phase. In a traced run every second pass is traced; the rest measure
/// the same work untraced, which gives trace.overhead_pct. Returns the
/// number of traced passes.
template <class Pass>
int run_passes(const RunConfig& config, RunResult& r, Pass&& pass) {
  const auto start = Clock::now();
  const int min_passes = config.trace ? 2 : 1;
  int traced = 0;
  for (int i = 0; i < min_passes || since_s(start) < config.seconds; ++i) {
    const bool on = config.trace && i % 2 == 1;
    tracer().set_enabled(on);
    const double gates_per_s = pass(i, on);
    (on ? r.traced_gates_per_s : r.gates_per_s).push_back(gates_per_s);
    std::cerr << "pass " << i << (on ? " traced" : "") << ": " << gates_per_s
              << " gates/s\n";
    traced += on ? 1 : 0;
  }
  tracer().set_enabled(false);
  return traced;
}

/// Generates a suite as a scenario-A batch, exactly as tr_opt loads it.
std::vector<opt::BatchCircuit> load_batch(const std::vector<std::string>& specs,
                                          const celllib::CellLibrary& library,
                                          std::uint64_t seed) {
  std::vector<opt::BatchCircuit> batch;
  batch.reserve(specs.size());
  for (const std::string& spec : specs) {
    batch.push_back(opt::make_scenario_circuit_guarded(
        spec, 'A', seed, library, [&] {
          Span span("benchgen.build");
          return opt::load_circuit_spec(spec, library);
        }));
  }
  return batch;
}

opt::BatchOptions batch_options() {
  opt::BatchOptions options;
  options.jobs = kJobs;
  options.threads_per_circuit = 1;
  return options;
}

/// One BatchOptimizer::run; in a traced pass the progress hook collects
/// per-circuit times for the scheduling metrics.
opt::BatchReport run_batch(const celllib::CellLibrary& library,
                           const celllib::Tech& tech,
                           std::vector<opt::BatchCircuit>& batch,
                           opt::BatchOptions options, bool on) {
  std::mutex mutex;
  std::vector<double> circuit_ms;
  if (on) {
    options.progress = [&](std::size_t, const opt::BatchCircuitResult& res) {
      const std::lock_guard<std::mutex> lock(mutex);
      circuit_ms.push_back(res.elapsed_ms);
    };
  }
  const opt::BatchReport report =
      opt::BatchOptimizer(library, tech, options).run(batch);
  if (on) {
    double sum = 0.0;
    double max = 0.0;
    for (const double ms : circuit_ms) {
      sum += ms;
      max = std::max(max, ms);
    }
    count("opt.batches", 1);
    count("opt.circuit_ms.max", max);
    count("opt.batch_imbalance", ratio(max, report.elapsed_ms));
    count("opt.worker_busy_frac",
          ratio(sum, report.jobs * report.elapsed_ms));
    count("celllib.hits", static_cast<double>(report.cache.hits));
    count("celllib.misses", static_cast<double>(report.cache.misses));
  }
  return report;
}

std::string render(const std::vector<opt::BatchCircuit>& batch,
                   const opt::BatchReport& report,
                   const opt::BatchOptions& options,
                   const opt::BatchJsonOptions& json = {}) {
  Span span("report.render");
  std::ostringstream out;
  opt::write_batch_json(batch, report, options, out, json);
  std::string text = out.str();
  span.stop();
  count("report.bytes", static_cast<double>(text.size()));
  return text;
}

/// Counts every circuit of a batch as one operation; with
/// `circuit_latency` each circuit is also one latency sample.
void record_circuits(RunResult& r, const opt::BatchReport& report,
                     bool circuit_latency) {
  for (const opt::BatchCircuitResult& c : report.circuits) {
    const bool ok = c.status == opt::CircuitStatus::ok;
    r.op(ok, "circuit " + c.name + " status " +
                 opt::circuit_status_name(c.status));
    if (circuit_latency) r.latency_ms.push_back(ok ? c.elapsed_ms : kInf);
  }
}

// ---------------------------------------------------------------------------
// Layer probes: direct calls into layers the batch runs internally, made
// only in traced passes and outside their measured phase.
// ---------------------------------------------------------------------------

/// propagate_activity (the statistics pre-pass) and score_catalog over
/// every gate, on unoptimized copies of the batch.
void probe_scoring(const celllib::CellLibrary& library,
                   const celllib::Tech& tech,
                   const std::vector<opt::BatchCircuit>& pristine) {
  for (const opt::BatchCircuit& circuit : pristine) {
    const netlist::Netlist& nl = circuit.netlist;
    power::CircuitActivity activity;
    {
      Span span("power.activity");
      activity = power::propagate_activity(nl, circuit.pi_stats);
    }
    const auto n = static_cast<std::size_t>(nl.gate_count());
    std::vector<std::shared_ptr<const celllib::ReorderCatalog>> catalogs(n);
    std::vector<std::vector<boolfn::SignalStats>> inputs(n);
    std::vector<double> loads(n);
    for (std::size_t g = 0; g < n; ++g) {
      const netlist::GateInst& gate = nl.gate(static_cast<netlist::GateId>(g));
      catalogs[g] = library.catalog(gate.config);
      for (const netlist::NetId in : gate.inputs) {
        inputs[g].push_back(activity.net_stats[static_cast<std::size_t>(in)]);
      }
      loads[g] = nl.external_load(static_cast<netlist::GateId>(g), tech);
    }
    opt::ScoreScratch scratch;
    double checksum = 0.0;
    {
      Span span("opt.score");
      for (std::size_t g = 0; g < n; ++g) {
        checksum += opt::score_catalog(*catalogs[g], inputs[g], loads[g], tech,
                                       power::ModelKind::extended, scratch)
                        .front();
      }
    }
    require(std::isfinite(checksum), "probe: non-finite gate power");
    count("opt.score.gates", static_cast<double>(n));
  }
}

/// Catalog characterisation cost per miss, against a fresh library.
void probe_characterize(const std::vector<opt::BatchCircuit>& pristine) {
  const celllib::CellLibrary fresh = celllib::CellLibrary::standard();
  for (const opt::BatchCircuit& circuit : pristine) {
    for (netlist::GateId g = 0; g < circuit.netlist.gate_count(); ++g) {
      const std::uint64_t misses = fresh.catalog_cache_stats().misses;
      const std::int64_t t0 = tracer().now_ns();
      fresh.catalog(circuit.netlist.gate(g).config);
      const std::int64_t t1 = tracer().now_ns();
      if (fresh.catalog_cache_stats().misses > misses) {
        tracer().add_span("celllib.characterize", t0, t1);
        count("celllib.probe_misses", 1);
        count("celllib.probe_miss_ms", static_cast<double>(t1 - t0) * 1e-6);
      }
    }
  }
}

/// IncrementalScorer::apply + revert on the largest circuits.
void probe_search(const std::vector<opt::BatchCircuit>& pristine,
                  const celllib::Tech& tech, std::uint64_t seed) {
  constexpr int kCircuits = 4;
  constexpr int kMoves = 4000;
  Rng rng(seed);
  const std::size_t first =
      pristine.size() - std::min<std::size_t>(kCircuits, pristine.size());
  for (std::size_t k = first; k < pristine.size(); ++k) {
    const opt::BatchCircuit& circuit = pristine[k];
    opt::search::IncrementalScorer scorer(circuit.netlist, circuit.pi_stats,
                                          tech, power::ModelKind::extended);
    scorer.set_delay_budget(kBudget);
    std::vector<netlist::GateId> movable;
    for (netlist::GateId g = 0; g < scorer.gate_count(); ++g) {
      if (scorer.table(g).config_count() > 1) movable.push_back(g);
    }
    if (movable.empty()) continue;
    std::vector<std::pair<netlist::GateId, int>> moves(kMoves);
    for (auto& [g, config] : moves) {
      g = movable[rng.next_below(movable.size())];
      const auto others =
          static_cast<std::uint64_t>(scorer.table(g).config_count() - 1);
      config = 1 + static_cast<int>(rng.next_below(others));
    }
    {
      Span span("search.apply_revert");
      for (const auto& [g, config] : moves) scorer.revert(scorer.apply(g, config));
    }
    count("search.moves", kMoves);
  }
}

sim::SimOptions window_for(
    const std::map<netlist::NetId, boolfn::SignalStats>& stats,
    double toggles_per_pi, std::uint64_t seed) {
  double mean_density = 0.0;
  for (const auto& [net, s] : stats) mean_density += s.density;
  mean_density /= static_cast<double>(stats.size());
  sim::SimOptions options;
  options.seed = seed;
  options.measure_time = mean_density > 0.0 ? toggles_per_pi / mean_density : 1e-3;
  options.warmup_time = options.measure_time * 0.02;
  return options;
}

/// The zero-delay window of the packed Monte-Carlo over the bp tier
/// (the BENCH_sim bit-parallel configuration).
sim::SimOptions bitsim_options(const opt::BatchCircuit& circuit,
                               std::uint64_t seed) {
  sim::SimOptions options = window_for(circuit.pi_stats, 40.0, seed);
  options.delay_model = sim::DelayModel::zero;
  return options;
}

/// SimEngine::run on the largest table3 circuits and BitSim::run on the
/// bp tier.
void probe_sim(const std::vector<opt::BatchCircuit>& table,
               const std::vector<opt::BatchCircuit>& bp,
               const celllib::Tech& tech, std::uint64_t seed) {
  for (std::size_t k = table.size() - 3; k < table.size(); ++k) {
    const sim::SimEngine engine(table[k].netlist, table[k].pi_stats, tech,
                                window_for(table[k].pi_stats, 150.0, seed + k));
    sim::ReplicationScratch scratch;
    sim::SimResult result;
    {
      Span span("sim.engine_run");
      result = engine.run(seed + k, scratch);
    }
    count("sim.probe_events", static_cast<double>(result.event_count));
  }
  for (const opt::BatchCircuit& circuit : bp) {
    const sim::SimEngine engine(circuit.netlist, circuit.pi_stats, tech,
                                bitsim_options(circuit, seed));
    if (!sim::BitSim::supported(engine)) continue;  // failed in the pass
    const sim::BitSim bitsim(engine);
    std::array<std::uint64_t, sim::BitSim::lane_count> seeds{};
    for (int k = 0; k < sim::BitSim::lane_count; ++k) {
      seeds[static_cast<std::size_t>(k)] =
          Rng::derive_stream(seed, static_cast<std::uint64_t>(k));
    }
    sim::BitSimScratch scratch;
    bitsim.run(seeds.data(), scratch);  // sizes the scratch arenas
    {
      Span span("sim.bitsim_run");
      bitsim.run(seeds.data(), scratch);
    }
    double lane_events = 0.0;
    for (const std::uint64_t events : scratch.event_count) {
      lane_events += static_cast<double>(events);
    }
    count("sim.bitsim_reps", sim::BitSim::lane_count);
    count("sim.bitsim_lane_events", lane_events);
  }
}

/// Per-layer metrics shared by the offline workloads, from the spans and
/// counters of `passes` traced passes (amounts are per pass).
void offline_layers(RunResult& r, int passes) {
  const std::vector<SpanRecord> spans = tracer().spans();
  const auto per_pass = [&](double v) { return ratio(v, passes); };
  auto& L = r.layers;
  const double hits = counter("celllib.hits");
  const double misses = counter("celllib.misses");
  const double batches = counter("opt.batches");
  L["benchgen.build_ms"] = per_pass(total_ms(spans, "benchgen.build"));
  L["celllib.catalog_misses"] = per_pass(misses);
  L["celllib.catalog_hit_rate"] = ratio(hits, hits + misses);
  L["celllib.catalog_miss_ms"] = ratio(counter("celllib.probe_miss_ms"),
                                       counter("celllib.probe_misses"));
  L["opt.catalog_lookups"] = per_pass(counter("opt.catalog_lookups"));
  L["power.activity_ms"] = per_pass(total_ms(spans, "power.activity"));
  L["opt.score_ns_per_gate"] =
      ratio(total_ms(spans, "opt.score") * 1e6, counter("opt.score.gates"));
  L["opt.circuit_ms.max"] = ratio(counter("opt.circuit_ms.max"), batches);
  L["opt.batch_imbalance"] = ratio(counter("opt.batch_imbalance"), batches);
  L["opt.worker_busy_frac"] = ratio(counter("opt.worker_busy_frac"), batches);
  L["opt.reference_circuit_ms"] = ratio(counter("opt.reference_circuit_ms"),
                                        counter("opt.reference_circuits"));
  L["delay.circuit_delay_ms"] =
      ratio(total_ms(spans, "delay.circuit_delay"),
            static_cast<double>(span_count(spans, "delay.circuit_delay")));
  L["search.apply_ns_per_move"] =
      ratio(total_ms(spans, "search.apply_revert") * 1e6,
            counter("search.moves"));
  L["search.anneal_ms"] = per_pass(total_ms(spans, "opt.batch.anneal"));
  L["search.iterations"] = per_pass(counter("search.iterations"));
  L["search.accept_rate"] =
      ratio(counter("search.accepted"), counter("search.iterations"));
  L["search.improved_frac"] =
      ratio(counter("search.improved"), counter("search.circuits"));
  const double render_ms = total_ms(spans, "report.render");
  L["report.render_ms"] = per_pass(render_ms);
  L["report.render_mb_per_s"] =
      ratio(counter("report.bytes") * 1e-6, render_ms * 1e-3);
  L["journal.entry_us"] =
      ratio(total_ms(spans, "journal.entry") * 1e3,
            static_cast<double>(span_count(spans, "journal.entry")));
  L["journal.entries"] =
      per_pass(static_cast<double>(span_count(spans, "journal.entry")));
  L["sim.events"] = per_pass(counter("sim.events"));
  L["sim.events_per_s"] = ratio(counter("sim.probe_events"),
                                total_ms(spans, "sim.engine_run") * 1e-3);
  L["sim.bitsim_reps_per_s"] = ratio(counter("sim.bitsim_reps"),
                                     total_ms(spans, "sim.bitsim_run") * 1e-3);
  L["sim.bitsim_lane_events_per_s"] =
      ratio(counter("sim.bitsim_lane_events"),
            total_ms(spans, "sim.bitsim_run") * 1e-3);
}

// ---------------------------------------------------------------------------
// batch_scaled
// ---------------------------------------------------------------------------

/// A pass's library with the batch that references it.
struct Pass {
  std::unique_ptr<celllib::CellLibrary> library;
  std::vector<opt::BatchCircuit> batch;
  opt::BatchReport report;
};

RunResult batch_scaled(const RunConfig& config) {
  RunResult r;
  const std::vector<std::string> specs = opt::suite_circuit_specs("scaled");
  const celllib::Tech tech;
  const opt::BatchOptions options = batch_options();
  Pass last;

  const int traced = run_passes(config, r, [&](int, bool on) {
    auto t0 = Clock::now();
    Pass pass;
    pass.library = std::make_unique<celllib::CellLibrary>(
        celllib::CellLibrary::standard());
    pass.batch = load_batch(specs, *pass.library, config.seed);
    if (!on) r.setup_s.push_back(since_s(t0));
    std::vector<opt::BatchCircuit> pristine;
    if (on) pristine = pass.batch;

    t0 = Clock::now();
    {
      Span span("opt.batch");
      pass.report = run_batch(*pass.library, tech, pass.batch, options, on);
    }
    render(pass.batch, pass.report, options);
    const double seconds = since_s(t0);

    record_circuits(r, pass.report, !on);
    if (on) {
      count("opt.catalog_lookups",
            static_cast<double>(pass.report.cache.lookups()));
      probe_scoring(*pass.library, tech, pristine);
      probe_characterize(pristine);
    }
    const double gates = pass.report.gates_total;
    last = std::move(pass);
    return gates / seconds;
  });
  if (config.trace) offline_layers(r, traced);

  r.power_reduction_pct = percent_reduction(last.report.model_power_before,
                                            last.report.model_power_after);

  // Determinism across worker counts: a fresh --jobs 1 run renders the
  // same --no-timing document as the last --jobs 4 pass.
  opt::BatchJsonOptions no_timing;
  no_timing.include_timing = false;
  const std::string jobs4 = render(last.batch, last.report, options, no_timing);
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  std::vector<opt::BatchCircuit> serial =
      load_batch(specs, library, config.seed);
  opt::BatchOptions serial_options = options;
  serial_options.jobs = 1;
  const opt::BatchReport serial_report =
      opt::BatchOptimizer(library, tech, serial_options).run(serial);
  r.op(render(serial, serial_report, serial_options, no_timing) == jobs4,
       "--jobs 1 and --jobs 4 --no-timing output differ");
  return r;
}

// ---------------------------------------------------------------------------
// budgeted_table3
// ---------------------------------------------------------------------------

/// One tr_opt-shaped budgeted run: checkpoint journal, batch, render.
opt::BatchReport run_journaled(const celllib::CellLibrary& library,
                               const celllib::Tech& tech,
                               std::vector<opt::BatchCircuit>& batch,
                               opt::BatchOptions options,
                               const std::vector<std::string>& specs,
                               std::uint64_t seed, const fs::path& dir,
                               const char* span_name, bool on, RunResult& r) {
  opt::checkpoint::CheckpointJournal journal(
      dir.string(), false,
      opt::checkpoint::render_manifest(specs, 'A', seed, options));
  Span batch_span(span_name);
  options.journal = [&journal, parent = batch_span.id()](
                        std::size_t i, const opt::BatchCircuit& circuit,
                        const opt::BatchCircuitResult& result) {
    Span span("journal.entry", parent);
    journal.record(i, circuit, result);
  };
  const opt::BatchReport report = run_batch(library, tech, batch, options, on);
  batch_span.stop();
  render(batch, report, options);
  for (const opt::checkpoint::JournalWarning& w : journal.warnings()) {
    r.op(false, "journal " + w.file + ": " + w.message);
  }
  return report;
}

struct BudgetedPass {
  std::unique_ptr<celllib::CellLibrary> library;
  std::vector<opt::BatchCircuit> greedy_batch, anneal_batch;
  opt::BatchReport greedy, anneal;
};

RunResult budgeted_table3(const RunConfig& config) {
  RunResult r;
  const std::vector<std::string> specs = opt::suite_circuit_specs("table3");
  const celllib::Tech tech;
  opt::BatchOptions greedy_options = batch_options();
  greedy_options.opt.max_circuit_delay_increase = kBudget;
  opt::BatchOptions anneal_options = greedy_options;
  anneal_options.opt.engine = opt::Engine::anneal;
  BudgetedPass last;

  const int traced = run_passes(config, r, [&](int index, bool on) {
    auto t0 = Clock::now();
    BudgetedPass pass;
    pass.library = std::make_unique<celllib::CellLibrary>(
        celllib::CellLibrary::standard());
    pass.greedy_batch = load_batch(specs, *pass.library, config.seed);
    pass.anneal_batch = load_batch(specs, *pass.library, config.seed);
    if (!on) r.setup_s.push_back(since_s(t0));
    std::vector<opt::BatchCircuit> pristine;
    if (on) pristine = pass.greedy_batch;
    const fs::path greedy_dir =
        config.work_dir / ("journal-" + std::to_string(index) + "-greedy");
    const fs::path anneal_dir =
        config.work_dir / ("journal-" + std::to_string(index) + "-anneal");
    fs::remove_all(greedy_dir);
    fs::remove_all(anneal_dir);

    t0 = Clock::now();
    pass.greedy = run_journaled(*pass.library, tech, pass.greedy_batch,
                                greedy_options, specs, config.seed, greedy_dir,
                                "opt.batch.greedy", on, r);
    pass.anneal = run_journaled(*pass.library, tech, pass.anneal_batch,
                                anneal_options, specs, config.seed, anneal_dir,
                                "opt.batch.anneal", on, r);
    const double seconds = since_s(t0);
    fs::remove_all(greedy_dir);
    fs::remove_all(anneal_dir);

    record_circuits(r, pass.greedy, !on);
    record_circuits(r, pass.anneal, !on);
    if (on) {
      count("opt.catalog_lookups",
            static_cast<double>(pass.greedy.cache.lookups()));
      for (std::size_t i = 0; i < pass.greedy.circuits.size(); ++i) {
        const opt::BatchCircuitResult& g = pass.greedy.circuits[i];
        const opt::BatchCircuitResult& a = pass.anneal.circuits[i];
        if (g.report.engine_used == opt::Engine::reference) {
          count("opt.reference_circuits", 1);
          count("opt.reference_circuit_ms", g.elapsed_ms);
        }
        if (a.report.anneal) {
          count("search.iterations",
                static_cast<double>(a.report.anneal->iterations));
          count("search.accepted",
                static_cast<double>(a.report.anneal->accepted));
        }
        count("search.circuits", 1);
        if (a.report.model_power_after < g.report.model_power_after) {
          count("search.improved", 1);
        }
      }
      probe_scoring(*pass.library, tech, pristine);
      probe_search(pristine, tech, config.seed);
      probe_characterize(pristine);
    }
    const double gates = pass.greedy.gates_total + pass.anneal.gates_total;
    last = std::move(pass);
    return gates / seconds;
  });

  r.power_reduction_pct = percent_reduction(
      last.greedy.model_power_before + last.anneal.model_power_before,
      last.greedy.model_power_after + last.anneal.model_power_after);

  // Determinism across worker counts: a fresh --jobs 1 default-engine run
  // renders the same --no-timing document as the last --jobs 4 pass.
  opt::BatchJsonOptions no_timing;
  no_timing.include_timing = false;
  {
    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    std::vector<opt::BatchCircuit> serial =
        load_batch(specs, library, config.seed);
    opt::BatchOptions serial_options = greedy_options;
    serial_options.jobs = 1;
    const opt::BatchReport serial_report =
        opt::BatchOptimizer(library, tech, serial_options).run(serial);
    r.op(render(serial, serial_report, serial_options, no_timing) ==
             render(last.greedy_batch, last.greedy, greedy_options, no_timing),
         "--jobs 1 and --jobs 4 --no-timing output differ");
  }

  // Delay budget and anneal-vs-greedy quality, re-timed from outside.
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  const std::vector<opt::BatchCircuit> original =
      load_batch(specs, library, config.seed);
  tracer().set_enabled(config.trace);
  const auto critical_path = [&](const netlist::Netlist& nl) {
    Span span("delay.circuit_delay");
    return delay::circuit_delay(nl, tech).critical_path;
  };
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double before = critical_path(original[i].netlist);
    const double greedy = critical_path(last.greedy_batch[i].netlist);
    const double anneal = critical_path(last.anneal_batch[i].netlist);
    const std::string& name = original[i].name;
    r.op(greedy <= (1.0 + kBudget) * before,
         name + ": greedy critical path beyond the delay budget");
    r.op(anneal <= (1.0 + kBudget) * before,
         name + ": anneal critical path beyond the delay budget");
    r.op(last.anneal.circuits[i].report.model_power_after <=
             last.greedy.circuits[i].report.model_power_after,
         name + ": anneal power above greedy power");
  }
  tracer().set_enabled(false);
  if (config.trace) offline_layers(r, traced);
  return r;
}

// ---------------------------------------------------------------------------
// paper_pipeline
// ---------------------------------------------------------------------------

std::vector<opt::BatchCircuit> load_specs(
    const std::vector<benchgen::BenchmarkSpec>& specs,
    const celllib::CellLibrary& library, std::uint64_t seed) {
  std::vector<opt::BatchCircuit> out;
  out.reserve(specs.size());
  for (const benchgen::BenchmarkSpec& spec : specs) {
    netlist::Netlist nl = [&] {
      Span span("benchgen.build");
      return benchgen::build_benchmark(library, spec);
    }();
    out.push_back(opt::make_scenario_circuit(std::move(nl), 'A', seed));
  }
  return out;
}

RunResult paper_pipeline(const RunConfig& config) {
  RunResult r;
  const celllib::Tech tech;
  const std::vector<benchgen::BenchmarkSpec> bp_specs = {
      benchgen::suite_entry("bp2000"), benchgen::suite_entry("bp4000")};
  constexpr int kReplications = 8;
  constexpr int kBitsimReplications = 64;
  double sim_reduction = 0.0;

  const int traced = run_passes(config, r, [&](int, bool on) {
    auto t0 = Clock::now();
    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    const std::vector<opt::BatchCircuit> table =
        load_specs(benchgen::table3_suite(), library, config.seed);
    const std::vector<opt::BatchCircuit> bp =
        load_specs(bp_specs, library, config.seed);
    if (!on) r.setup_s.push_back(since_s(t0));

    t0 = Clock::now();
    double gates = 0.0;
    double model_sum = 0.0;
    double sim_sum = 0.0;
    for (const opt::BatchCircuit& circuit : table) {
      const auto row_start = Clock::now();
      bench::PipelineRow row;
      {
        Span span("bench.run_pipeline");
        const std::uint64_t sim_seed =
            opt::circuit_seed(config.seed, circuit.name) + 1;
        row = bench::run_pipeline(circuit.netlist, circuit.pi_stats, tech,
                                  sim_seed, 150.0, kReplications);
      }
      const bool ok =
          !row.sim_truncated && row.sim_replications == kReplications;
      r.op(ok, circuit.name + ": truncated or missing replications");
      if (!on) r.latency_ms.push_back(ok ? since_s(row_start) * 1e3 : kInf);
      gates += row.gates;
      model_sum += row.model_reduction;
      sim_sum += row.sim_reduction;
      count("sim.events", static_cast<double>(row.sim_events));
    }
    for (const opt::BatchCircuit& circuit : bp) {
      const auto mc_start = Clock::now();
      sim::MonteCarloOptions mc;
      mc.sim =
          bitsim_options(circuit, opt::circuit_seed(config.seed, circuit.name));
      mc.replications = kBitsimReplications;
      sim::SimSummary summary;
      bool packed = false;
      {
        Span span("sim.monte_carlo");
        const sim::SimEngine engine(circuit.netlist, circuit.pi_stats, tech,
                                    mc.sim);
        packed = sim::BitSim::supported(engine);
        summary = sim::monte_carlo(engine, mc);
      }
      r.op(packed, circuit.name + ": packed path unavailable");
      const bool ok = summary.truncated_replications == 0 &&
                      summary.replications == kBitsimReplications;
      r.op(ok, circuit.name + ": truncated or missing replications");
      if (!on) r.latency_ms.push_back(ok ? since_s(mc_start) * 1e3 : kInf);
      gates += circuit.netlist.gate_count();
      count("sim.events", static_cast<double>(summary.total_events));
    }
    const double seconds = since_s(t0);

    const double rows = static_cast<double>(table.size());
    r.power_reduction_pct = model_sum / rows;
    sim_reduction = sim_sum / rows;
    if (on) probe_sim(table, bp, tech, config.seed);
    return gates / seconds;
  });
  if (config.trace) {
    offline_layers(r, traced);
    r.layers["sim.reduction_pct"] = sim_reduction;
  }
  return r;
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

const char* const kHost = "127.0.0.1";

/// A `tr_opt --serve` child process on an ephemeral loopback port. The
/// destructor makes sure the child has ended before it returns.
class Daemon {
public:
  Daemon(const fs::path& dir, int index)
      : port_file_(dir / ("daemon-" + std::to_string(index) + ".port")),
        out_file_(dir / ("daemon-" + std::to_string(index) + ".out")),
        err_file_(dir / ("daemon-" + std::to_string(index) + ".err")) {
    fs::remove(port_file_);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, out_file_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, err_file_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<std::string> args = {PERFBENCH_TR_OPT, "--serve", "--port",
                                     "0", "--port-file", port_file_.string()};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, PERFBENCH_TR_OPT, &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    require(rc == 0, std::string("cannot start ") + PERFBENCH_TR_OPT);

    const auto start = Clock::now();
    while (port_ == 0) {
      std::ifstream in(port_file_);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') {
        port_ = std::stoi(text);
      } else if (exited() || since_s(start) > 30.0) {
        // No destructor runs for a throwing constructor: end the child here.
        stop();
        throw Error("daemon did not start listening (see " +
                    err_file_.string() + ")");
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const noexcept { return port_; }

  /// Graceful drain; returns the metrics dump the daemon printed.
  std::string drain() {
    require(server::send_shutdown(kHost, port_), "daemon did not ack drain");
    require(wait_exit(30.0), "daemon did not exit after drain");
    std::ifstream in(out_file_);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

private:
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    if (!wait_exit(10.0)) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  bool exited() {
    if (pid_ <= 0) return true;
    int status = 0;
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == pid_ || (rc < 0 && errno == ECHILD)) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  bool wait_exit(double seconds) {
    const auto start = Clock::now();
    while (!exited()) {
      if (since_s(start) > seconds) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  fs::path port_file_, out_file_, err_file_;
  pid_t pid_ = -1;
  int port_ = 0;
};

/// One traffic key: a table3 circuit, with or without the delay budget.
struct RequestKind {
  std::string json;
  std::string expected;  ///< in-process rendering of the same request
  int gates = 0;
  double power_before = 0.0;
  double power_after = 0.0;
  double exec_ms = 0.0;  ///< unloaded daemon latency (traced runs)
};

/// Renders a request in-process exactly as the daemon's executor does:
/// parse, load, optimize on a shared library, write without the
/// nondeterministic blocks.
void render_expected(RequestKind& kind, const celllib::CellLibrary& library,
                     const celllib::Tech& tech) {
  const server::OptimizeRequest request = server::parse_request(kind.json);
  std::vector<opt::BatchCircuit> batch;
  for (const std::string& spec : request.circuits) {
    batch.push_back(opt::make_scenario_circuit_guarded(
        spec, request.scenario, request.seed, library,
        [&] { return opt::load_circuit_spec(spec, library); }));
  }
  const opt::BatchReport report =
      opt::BatchOptimizer(library, tech, request.batch).run(batch);
  opt::BatchJsonOptions json;
  json.include_timing = false;
  json.include_cache_stats = false;
  json.include_gate_configs = request.gate_configs;
  kind.expected = render(batch, report, request.batch, json);
  kind.gates = report.gates_total;
  kind.power_before = report.model_power_before;
  kind.power_after = report.model_power_after;
}

struct Completion {
  double done_s = 0.0;  ///< since the loaded phase started
  double latency_ms = 0.0;
  std::size_t kind = 0;
  bool ok = false;
  bool traced = false;
};

RunResult serve_mixed(const RunConfig& config) {
  RunResult r;
  const std::vector<std::string> specs = opt::suite_circuit_specs("table3");
  const std::size_t circuits = specs.size();
  // Kind index = 2 * circuit + (budgeted ? 1 : 0).
  std::vector<RequestKind> kinds(2 * circuits);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    kinds[i].json = "{\"circuits\":[\"" + specs[i / 2] +
                    "\"],\"seed\":" + std::to_string(config.seed) +
                    (i % 2 == 1 ? ",\"delay_budget\":0.05}" : "}");
  }

  // Expected responses, rendered on kJobs threads before any timing.
  {
    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    const celllib::Tech tech;
    tracer().set_enabled(config.trace);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    std::mutex error_mutex;
    std::string error;
    for (int w = 0; w < kJobs; ++w) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < kinds.size(); i = next++) {
          try {
            render_expected(kinds[i], library, tech);
          } catch (const std::exception& e) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            error = e.what();
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
    tracer().set_enabled(false);
    require(error.empty(), "rendering expected responses: " + error);
  }
  double before = 0.0;
  double after = 0.0;
  for (const RequestKind& kind : kinds) {
    before += kind.power_before;
    after += kind.power_after;
  }
  r.power_reduction_pct = percent_reduction(before, after);

  const auto exchange = [&](int port, std::size_t k, std::int64_t request_id,
                            const char* span_name = "server.request") {
    bool ok = false;
    try {
      Span span(span_name, 0, request_id);
      const server::ClientResult result =
          server::run_request(kHost, port, kinds[k].json);
      ok = result.type == server::kFrameResponse &&
           result.payload == kinds[k].expected;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: request " << request_id << ": " << e.what()
                << "\n";
    }
    return ok;
  };

  // Set-up: daemon start to the first answered request (the largest
  // circuit, cold cache), seven times; the last daemon serves the
  // measured traffic.
  const std::size_t first = 2 * (circuits - 1);
  std::unique_ptr<Daemon> daemon;
  constexpr int kStarts = 7;
  for (int k = 0; k < kStarts; ++k) {
    const auto t0 = Clock::now();
    auto d = std::make_unique<Daemon>(config.work_dir, k);
    const bool ok = exchange(d->port(), first, -1);
    r.setup_s.push_back(since_s(t0));
    r.op(ok, "first request of daemon " + std::to_string(k));
    if (k + 1 < kStarts) {
      d->drain();
    } else {
      daemon = std::move(d);
    }
  }
  const int port = daemon->port();

  // Warm the shared cache with every circuit once.
  for (std::size_t i = 0; i < circuits; ++i) {
    r.op(exchange(port, 2 * i, -1), "warm-up request " + specs[i]);
  }
  if (config.trace) {
    tracer().set_enabled(true);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto t0 = Clock::now();
      r.op(exchange(port, k, -1, "server.exec_alone"),
           "unloaded request " + kinds[k].json);
      kinds[k].exec_ms = since_s(t0) * 1e3;
    }
    for (int i = 0; i < 20; ++i) {
      Span span("server.connect");
      const int fd = server::connect_tcp(kHost, port);
      span.stop();
      ::close(fd);
    }
    tracer().set_enabled(false);
  }

  // Loaded phase: kJobs closed-loop clients draw from one shared deck in
  // which every circuit appears eight times, once with the delay budget,
  // shuffled by the seed — the seed changes the order, never the mix. In
  // a traced run the second half is traced.
  std::vector<std::size_t> deck;
  for (std::size_t i = 0; i < circuits; ++i) {
    for (int j = 0; j < 8; ++j) deck.push_back(2 * i + (j == 0 ? 1 : 0));
  }
  Rng shuffle(Rng::derive_stream(config.seed, 100));
  shuffle.shuffle(deck.begin(), deck.end());
  std::atomic<std::size_t> cursor{0};
  std::mutex mutex;
  std::vector<Completion> done;
  const auto phase_start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kJobs; ++c) {
    clients.emplace_back([&, c] {
      for (std::int64_t seq = 0; since_s(phase_start) < config.seconds; ++seq) {
        const std::size_t k = deck[cursor++ % deck.size()];
        const bool traced = tracer().enabled();
        const auto t0 = Clock::now();
        const bool ok = exchange(port, k, c * 1000000 + seq);
        const double latency = since_s(t0) * 1e3;
        const std::lock_guard<std::mutex> lock(mutex);
        done.push_back(
            {since_s(phase_start), ok ? latency : kInf, k, ok, traced});
      }
    });
  }
  const double half = config.seconds / 2;
  if (config.trace) {
    std::this_thread::sleep_for(std::chrono::duration<double>(half));
    tracer().set_enabled(true);
  }
  for (std::thread& t : clients) t.join();
  tracer().set_enabled(false);
  const std::string metrics = daemon->drain();
  daemon.reset();
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  r.child_peak_rss_mb = static_cast<double>(children.ru_maxrss) / 1024.0;

  // Served gates over the phase (in a traced run: over each half).
  double end_s = 0.0;
  double gates_first = 0.0;
  double gates_second = 0.0;
  std::vector<double> queue_wait;
  std::vector<double> exec;
  for (const Completion& c : done) {
    r.op(c.ok, "response to " + kinds[c.kind].json);
    end_s = std::max(end_s, c.done_s);
    if (c.ok) {
      (config.trace && c.done_s > half ? gates_second : gates_first) +=
          kinds[c.kind].gates;
    }
    if (!c.traced) r.latency_ms.push_back(c.latency_ms);
    if (c.traced && c.ok) {
      queue_wait.push_back(c.latency_ms - kinds[c.kind].exec_ms);
      exec.push_back(kinds[c.kind].exec_ms);
    }
  }
  if (config.trace) {
    r.gates_per_s.push_back(gates_first / half);
    r.traced_gates_per_s.push_back(ratio(gates_second, end_s - half));
  } else {
    r.gates_per_s.push_back(ratio(gates_first, end_s));
  }

  const util::JsonValue dump = util::json_parse(metrics);
  const util::JsonValue* requests = dump.find("requests");
  const util::JsonValue* cache = dump.find("catalog_cache");
  require(requests != nullptr && cache != nullptr, "malformed metrics dump");
  r.op(requests->find("rejected")->as_u64("rejected") == 0,
       "daemon rejected requests");
  if (config.trace) {
    const std::vector<SpanRecord> spans = tracer().spans();
    auto& L = r.layers;
    const double render_ms = total_ms(spans, "report.render");
    L["report.render_ms"] = ratio(render_ms, static_cast<double>(kinds.size()));
    L["report.render_mb_per_s"] =
        ratio(counter("report.bytes") * 1e-6, render_ms * 1e-3);
    L["celllib.catalog_misses"] =
        static_cast<double>(cache->find("misses")->as_u64("misses"));
    L["celllib.catalog_hit_rate"] =
        cache->find("hit_rate")->as_double("hit_rate");
    L["server.catalog_hit_rate"] = L["celllib.catalog_hit_rate"];
    L["server.rejected"] =
        static_cast<double>(requests->find("rejected")->as_u64("rejected"));
    L["server.replayed"] =
        static_cast<double>(requests->find("replayed")->as_u64("replayed"));
    L["server.connect_ms"] =
        ratio(total_ms(spans, "server.connect"),
              static_cast<double>(span_count(spans, "server.connect")));
    L["server.exec_ms"] = median(exec);
    L["server.queue_wait_ms.p50"] = percentile(queue_wait, 50);
    L["server.queue_wait_ms.p99"] = percentile(queue_wait, 99);
  }
  return r;
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  fs::create_directories(config.work_dir);
  if (config.workload == "batch_scaled") return batch_scaled(config);
  if (config.workload == "budgeted_table3") return budgeted_table3(config);
  if (config.workload == "serve_mixed") return serve_mixed(config);
  if (config.workload == "paper_pipeline") return paper_pipeline(config);
  throw Error("unknown workload " + config.workload);
}

}  // namespace perfbench
