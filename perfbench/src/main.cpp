// perfbench — the repository benchmark harness (README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//
// Runs one workload for S seconds on inputs generated from N, checks the
// program's outputs, and prints as its last stdout line one JSON object
// with `correct`, `attempted`, `failed` and `metrics`. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics, writes
// the spans as Chrome trace-event JSON and prints a self-time table to
// stderr. Exits 1 when any operation or check failed, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// Per-layer metrics in BENCHMARK.json order; every traced run reports
/// all of them (0 where the workload does not exercise the layer).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"benchgen.build_ms", "ms"},
    {"celllib.catalog_misses", "count"},
    {"celllib.catalog_miss_ms", "ms"},
    {"celllib.catalog_hit_rate", "ratio"},
    {"opt.catalog_lookups", "count"},
    {"power.activity_ms", "ms"},
    {"opt.score_ns_per_gate", "ns"},
    {"opt.circuit_ms.max", "ms"},
    {"opt.batch_imbalance", "ratio"},
    {"opt.worker_busy_frac", "ratio"},
    {"opt.reference_circuit_ms", "ms"},
    {"delay.circuit_delay_ms", "ms"},
    {"search.apply_ns_per_move", "ns"},
    {"search.anneal_ms", "ms"},
    {"search.iterations", "count"},
    {"search.accept_rate", "ratio"},
    {"search.improved_frac", "ratio"},
    {"report.render_ms", "ms"},
    {"report.render_mb_per_s", "MB/s"},
    {"journal.entry_us", "us"},
    {"journal.entries", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.bitsim_reps_per_s", "1/s"},
    {"sim.bitsim_lane_events_per_s", "1/s"},
    {"sim.reduction_pct", "%"},
    {"server.connect_ms", "ms"},
    {"server.exec_ms", "ms"},
    {"server.queue_wait_ms.p50", "ms"},
    {"server.queue_wait_ms.p99", "ms"},
    {"server.rejected", "count"},
    {"server.replayed", "count"},
    {"server.catalog_hit_rate", "ratio"},
    {"failed_frac", "ratio"},
    {"trace.overhead_pct", "%"},
};

double self_peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0.0);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void print_layer_table(const std::vector<SpanRecord>& spans) {
  const auto layers = layer_times(spans);
  double all_self = 0.0;
  for (const auto& [name, t] : layers) all_self += t.self_ms;
  std::fprintf(stderr, "\n%-28s %8s %12s %12s %7s\n", "span", "count",
               "total_ms", "self_ms", "self%");
  for (const auto& [name, t] : layers) {
    std::fprintf(stderr, "%-28s %8zu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                 t.count, t.total_ms, t.self_ms,
                 all_self > 0 ? 100.0 * t.self_ms / all_self : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  RunConfig config;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  std::filesystem::path trace_out;
  config.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, config.seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage("bad --trace");
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage("unknown option " + arg);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return usage("unknown workload '" + config.workload + "'");
  }
  if (seconds == 0 || trace > 1) return usage("--seconds and --trace are required");
  config.seconds = static_cast<double>(seconds);
  config.trace = trace == 1;
  config.work_dir /= config.workload + "-" + std::to_string(::getpid());

  RunResult r;
  bool harness_ok = true;
  try {
    r = run_workload(config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: FAILED: " << e.what() << "\n";
    harness_ok = false;
  }
  std::error_code ignored;
  std::filesystem::remove_all(config.work_dir, ignored);
  if (!harness_ok) {
    r.attempted += 1;
    r.failed += 1;
  }

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!config.trace) {
    metrics.push_back({"setup_s", {median(r.setup_s), "s"}});
    metrics.push_back({"gates_per_s", {median(r.gates_per_s), "gates/s"}});
    metrics.push_back({"latency_ms.p50", {median(r.latency_ms), "ms"}});
    metrics.push_back({"latency_ms.p99", {percentile(r.latency_ms, 99), "ms"}});
    metrics.push_back({"power_reduction_pct", {r.power_reduction_pct, "%"}});
    metrics.push_back({"peak_rss_mb",
                       {r.child_peak_rss_mb > 0 ? r.child_peak_rss_mb
                                                : self_peak_rss_mb(),
                        "MB"}});
    if (const auto tail = resolved_tail(r.latency_ms)) {
      std::fprintf(stderr,
                   "latency: p50 %.3f ms, p%g %.3f ms (highest percentile "
                   "with >= 10 samples beyond it), %zu samples\n",
                   median(r.latency_ms), tail->p, tail->value,
                   tail->samples);
    } else {
      std::fprintf(stderr, "latency: %zu samples, too few for a tail\n",
                   r.latency_ms.size());
    }
  } else {
    const double untraced = median(r.gates_per_s);
    const double traced = median(r.traced_gates_per_s);
    r.layers["failed_frac"] = failed_frac(r.failed, r.attempted);
    r.layers["trace.overhead_pct"] =
        untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0.0;
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, {r.layers[name], unit}});
    }
    const std::vector<SpanRecord> spans = Tracer::global().spans();
    print_layer_table(spans);
    std::fprintf(stderr,
                 "trace.overhead_pct %.2f (traced %.0f vs untraced %.0f "
                 "gates/s)\n",
                 r.layers["trace.overhead_pct"], traced, untraced);
    if (trace_out.empty()) {
      trace_out = std::filesystem::path(".bench_build") / "perfbench-trace" /
                  (config.workload + "-seed" + std::to_string(config.seed) +
                   ".json");
    }
    std::filesystem::create_directories(trace_out.parent_path(), ignored);
    std::ofstream out(trace_out);
    write_chrome_trace(spans, out);
    std::cerr << "trace written to " << trace_out.string() << " ("
              << spans.size() << " spans)\n";
  }

  const bool correct = r.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": "
            << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << number(value.first) << ", \"unit\": \"" << value.second
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
