#include "harness.hpp"

#include <algorithm>

#include "opt/optimizer.hpp"
#include "sim/monte_carlo.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace tr::bench {

PipelineRow run_pipeline(
    const netlist::Netlist& original,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, std::uint64_t sim_seed,
    double sim_toggles_per_pi, int sim_replications) {
  PipelineRow row;
  row.name = original.name();
  row.gates = original.gate_count();

  // Best and worst orderings (paper Sec. 5.1: "one of them contains the
  // best transistor reordering ... the other one the worst one").
  netlist::Netlist best = original;
  netlist::Netlist worst = original;
  const opt::OptimizeReport best_report = opt::optimize(best, pi_stats, tech);
  opt::OptimizeOptions maximize;
  maximize.objective = opt::Objective::maximize_power;
  const opt::OptimizeReport worst_report =
      opt::optimize(worst, pi_stats, tech, maximize);

  // Column M: model power reduction, best vs worst, from the optimizer's
  // own scores of the committed configurations.
  const double model_best =
      opt::committed_power(best_report, best, pi_stats, tech);
  const double model_worst =
      opt::committed_power(worst_report, worst, pi_stats, tech);
  row.model_reduction = percent_reduction(model_worst, model_best);

  // Column S: replicated switch-level simulation. Replicate k of the
  // best and the worst description share the seed stream (identical PI
  // waveforms — the paired design of paper Sec. 5.1), so the reduction
  // is computed per replicate and summarised with a 95% CI.
  double mean_density = 0.0;
  for (const auto& [net, stats] : pi_stats) mean_density += stats.density;
  mean_density /= static_cast<double>(pi_stats.size());
  sim::MonteCarloOptions mc;
  mc.sim.seed = sim_seed;
  mc.sim.measure_time =
      mean_density > 0.0 ? sim_toggles_per_pi / mean_density : 1e-3;
  mc.sim.warmup_time = mc.sim.measure_time * 0.02;
  mc.replications = sim_replications;
  const sim::SimSummary sim_best =
      sim::monte_carlo(best, pi_stats, tech, mc);
  const sim::SimSummary sim_worst =
      sim::monte_carlo(worst, pi_stats, tech, mc);
  TR_ASSERT(sim_best.replicate_energy.size() ==
            sim_worst.replicate_energy.size());
  RunningStats reduction;
  for (std::size_t k = 0; k < sim_best.replicate_energy.size(); ++k) {
    reduction.add(percent_reduction(sim_worst.replicate_energy[k],
                                    sim_best.replicate_energy[k]));
  }
  row.sim_reduction = reduction.mean();
  row.sim_reduction_ci = reduction.ci95_half_width();
  row.sim_replications = static_cast<int>(reduction.count());
  row.sim_truncated = sim_best.truncated_replications > 0 ||
                      sim_worst.truncated_replications > 0;
  row.sim_events = sim_best.total_events + sim_worst.total_events;
  row.sim_elapsed_seconds =
      sim_best.elapsed_seconds + sim_worst.elapsed_seconds;
  row.sim_scratch_bytes = std::max(sim_best.scratch_high_water_bytes,
                                   sim_worst.scratch_high_water_bytes);

  // Column D: delay increase of the power-best mapping vs the original
  // cell-library mapping, from the optimizer's own pin-delay tables.
  row.delay_increase = percent_increase(best_report.critical_path_before,
                                        best_report.critical_path_after);
  return row;
}

}  // namespace tr::bench
