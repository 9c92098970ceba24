#pragma once
// In-memory span and counter recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around calls into
// each layer of the program (name, start, end, parent span, request id)
// and kept in memory; the harness writes them out as Chrome trace-event
// JSON when the run ends. While disabled, opening a span costs one
// branch and records nothing, so untraced runs measure the program, not
// the recorder.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;   ///< 0 = root
  std::int64_t request = -1; ///< serve_mixed request id, -1 = none
  int tid = 0;
};

/// Per-name aggregate over a span list.
struct LayerTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the part covered by child spans
};

class Tracer {
public:
  static Tracer& global();

  void set_enabled(bool on) noexcept { enabled_.store(on); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  std::int64_t now_ns() const;

  /// Adds `value` to the named counter (no-op while disabled).
  void count(const std::string& name, double value);
  double counter(const std::string& name) const;

  std::vector<SpanRecord> spans() const;
  void record(SpanRecord span);
  std::int64_t next_id();
  /// Records an already-timed interval as a span under the innermost
  /// open span of the calling thread (no-op while disabled).
  void add_span(const char* name, std::int64_t start_ns, std::int64_t end_ns);

private:
  Tracer();
  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
  std::int64_t next_id_ = 1;
};

/// Scoped span. The parent defaults to the innermost span open on the
/// calling thread; callbacks running on worker threads pass the parent
/// explicitly.
class Span {
public:
  static constexpr std::int64_t kInherit = -1;
  explicit Span(const char* name, std::int64_t parent = kInherit,
                std::int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// This span's id, 0 when tracing is disabled.
  std::int64_t id() const noexcept { return record_.id; }
  /// Ends the span now instead of at scope exit; returns its length
  /// [ms], 0 when tracing is disabled.
  double stop();

private:
  SpanRecord record_;
  bool active_ = false;
};

/// Per-name count, total and self time.
std::map<std::string, LayerTime> layer_times(const std::vector<SpanRecord>& spans);

/// Sum of span durations with this name [ms], and their count.
double total_ms(const std::vector<SpanRecord>& spans, const std::string& name);
std::size_t span_count(const std::vector<SpanRecord>& spans,
                       const std::string& name);

/// Chrome trace-event JSON ("X" complete events, microseconds).
void write_chrome_trace(const std::vector<SpanRecord>& spans, std::ostream& out);

}  // namespace perfbench
