#pragma once
// The four benchmark workloads (README.md "Workloads"). Each runs its
// measured passes for the configured time, checks the program's outputs,
// and returns raw samples; main.cpp turns them into the reported metrics.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: alternate untraced and traced passes (or halves, for
  /// serve_mixed); spans and per-layer metrics come from the traced ones.
  bool trace = false;
  /// Scratch directory for journals and daemon files.
  std::filesystem::path work_dir;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> gates_per_s;         ///< untraced passes/windows
  std::vector<double> traced_gates_per_s;  ///< traced passes/windows
  std::vector<double> latency_ms;          ///< untraced; +inf = failed
  double power_reduction_pct = 0.0;
  /// Peak RSS of the serving child process [MB]; 0 when the program ran
  /// in the harness process itself.
  double child_peak_rss_mb = 0.0;
  std::map<std::string, double> layers;    ///< per-layer metrics

  /// Counts one operation (circuit, request, replication set or
  /// correctness check); a failed one is reported on stderr.
  void op(bool ok, const std::string& what);
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws tr::Error / std::exception on a harness
/// failure (which the caller reports as an incorrect run).
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
