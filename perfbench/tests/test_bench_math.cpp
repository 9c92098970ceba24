// Tests for the benchmark's own arithmetic: percentile selection, the
// resolved tail, span self time and failed_frac. Plain asserts that stay
// on in every build type, so the test needs no framework.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void test_median() {
  expect_near(perfbench::median({3, 1, 2}), 2, "odd median");
  expect_near(perfbench::median({4, 1, 3, 2}), 2.5, "even median");
  expect(std::isnan(perfbench::median({})), "empty median is NaN");
}

void test_percentile() {
  const std::vector<double> xs = one_to(100);
  expect_near(perfbench::percentile(xs, 50), 50, "p50 of 1..100");
  expect_near(perfbench::percentile(xs, 99), 99, "p99 of 1..100");
  expect_near(perfbench::percentile(xs, 100), 100, "p100 is the max");
  expect_near(perfbench::percentile(one_to(10), 99), 10, "p99 of 10 is max");
  expect_near(perfbench::percentile({7}, 1), 7, "single sample");
  // A failed request counts as +inf and lands in the tail.
  std::vector<double> with_failure = one_to(99);
  with_failure.push_back(std::numeric_limits<double>::infinity());
  expect(std::isinf(perfbench::percentile(with_failure, 100)), "+inf sorts last");
  expect_near(perfbench::percentile(with_failure, 99), 99, "p99 below the failure");
}

void test_samples_beyond_and_tail() {
  expect(perfbench::samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  expect(perfbench::samples_beyond(999, 99) == 9, "999 samples: 9 beyond p99");
  expect(perfbench::samples_beyond(0, 50) == 0, "no samples");

  const auto t1000 = perfbench::resolved_tail(one_to(1000));
  expect(t1000 && t1000->p == 99.0, "1000 samples resolve p99");
  expect(t1000 && t1000->value == 990.0 && t1000->samples == 1000,
         "p99 value and count of 1..1000");
  const auto t200 = perfbench::resolved_tail(one_to(200));
  expect(t200 && t200->p == 95.0, "200 samples resolve p95");
  const auto t19 = perfbench::resolved_tail(one_to(19));
  expect(!t19, "19 samples cannot resolve even the median");
  const auto t20 = perfbench::resolved_tail(one_to(20));
  expect(t20 && t20->p == 50.0, "20 samples resolve the median");
}

void test_covered() {
  using perfbench::covered;
  expect(covered(0, 100, {}) == 0, "no children");
  expect(covered(0, 100, {{10, 20}, {30, 50}}) == 30, "disjoint children");
  expect(covered(0, 100, {{10, 40}, {20, 60}, {50, 55}}) == 50,
         "overlapping children of parallel workers");
  expect(covered(0, 100, {{-20, 10}, {90, 150}}) == 20,
         "children clipped to the parent");
  expect(covered(0, 100, {{200, 300}}) == 0, "child outside the parent");
}

void test_self_time() {
  using perfbench::SpanRecord;
  std::vector<SpanRecord> spans;
  const auto add = [&](const char* name, std::int64_t id, std::int64_t parent,
                       std::int64_t start_ms, std::int64_t end_ms) {
    SpanRecord s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.start_ns = start_ms * 1000000;
    s.end_ns = end_ms * 1000000;
    spans.push_back(s);
  };
  add("batch", 1, 0, 0, 100);
  add("journal", 2, 1, 10, 30);  // two overlapping worker entries
  add("journal", 3, 1, 20, 40);
  add("render", 4, 0, 100, 110);
  const auto layers = perfbench::layer_times(spans);
  expect_near(layers.at("batch").total_ms, 100, "batch total");
  expect_near(layers.at("batch").self_ms, 70, "batch self excludes the union");
  expect(layers.at("journal").count == 2, "journal count");
  expect_near(layers.at("journal").self_ms, 40, "leaf self = total");
  expect_near(perfbench::total_ms(spans, "journal"), 40, "total_ms");
  expect(perfbench::span_count(spans, "render") == 1, "span_count");
}

void test_failed_frac() {
  expect_near(perfbench::failed_frac(0, 0), 0, "nothing attempted");
  expect_near(perfbench::failed_frac(0, 250), 0, "no failures");
  expect_near(perfbench::failed_frac(1, 4), 0.25, "one in four");
}

}  // namespace

int main() {
  test_median();
  test_percentile();
  test_samples_beyond_and_tail();
  test_covered();
  test_self_time();
  test_failed_frac();
  if (failures > 0) {
    std::fprintf(stderr, "%d failure(s)\n", failures);
    return EXIT_FAILURE;
  }
  std::puts("bench_math: all checks passed");
  return EXIT_SUCCESS;
}
