#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  return xs[nearest_rank(xs.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::optional<Tail> resolved_tail(const std::vector<double>& xs,
                                  std::size_t min_beyond) {
  std::optional<Tail> best;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (samples_beyond(xs.size(), p) < min_beyond) break;
    best = Tail{p, percentile(xs, p), xs.size()};
  }
  return best;
}

std::int64_t covered(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  for (auto& [s, e] : children) {
    s = std::max(s, start);
    e = std::min(e, end);
  }
  std::sort(children.begin(), children.end());
  std::int64_t total = 0;
  std::int64_t reach = start;
  for (const auto& [s, e] : children) {
    const std::int64_t from = std::max(s, reach);
    if (e > from) {
      total += e - from;
      reach = e;
    }
  }
  return total;
}

double failed_frac(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
