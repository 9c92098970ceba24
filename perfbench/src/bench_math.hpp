#pragma once
// The benchmark's own arithmetic: order statistics over timing samples,
// span self time, and the failure ratio. Kept free of the program under
// test so tests/test_bench_math.cpp can pin it in isolation.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN when empty. +inf samples (failed requests) sort last.
double median(std::vector<double> xs);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; NaN when empty.
double percentile(std::vector<double> xs, double p);

/// Samples strictly beyond the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);

/// A tail percentile together with the sample count it was taken from.
struct Tail {
  double p = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest of the standard percentiles (50, 90, 95, 99, 99.9) that
/// still has at least `min_beyond` samples beyond it; nullopt when not
/// even the median qualifies.
std::optional<Tail> resolved_tail(const std::vector<double>& xs,
                                  std::size_t min_beyond = 10);

/// Length of [start, end) covered by the union of `children` (each
/// clipped to the interval). Children may overlap one another, as spans
/// of parallel workers do.
std::int64_t covered(std::int64_t start, std::int64_t end,
                     std::vector<std::pair<std::int64_t, std::int64_t>> children);

/// Failed operations over attempted ones; 0 when nothing was attempted.
double failed_frac(std::uint64_t failed, std::uint64_t attempted);

}  // namespace perfbench
