#include "trace.hpp"

#include <chrono>
#include <iomanip>
#include <ostream>
#include <unordered_map>

#include "bench_math.hpp"

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int thread_index() {
  static std::mutex mutex;
  static int next = 0;
  thread_local const int index = [] {
    const std::lock_guard<std::mutex> lock(mutex);
    return next++;
  }();
  return index;
}

/// Innermost open span on this thread.
thread_local std::vector<std::int64_t> open_spans;

void write_json_string(std::ostream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

void Tracer::count(const std::string& name, double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += value;
}

double Tracer::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::int64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::add_span(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns) {
  if (!enabled()) return;
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = next_id();
  span.parent = open_spans.empty() ? 0 : open_spans.back();
  span.tid = thread_index();
  record(std::move(span));
}

Span::Span(const char* name, std::int64_t parent, std::int64_t request) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = tracer.next_id();
  record_.parent = parent != kInherit ? parent
                   : open_spans.empty() ? 0
                                        : open_spans.back();
  record_.request = request;
  record_.tid = thread_index();
  open_spans.push_back(record_.id);
  record_.start_ns = tracer.now_ns();
}

Span::~Span() { stop(); }

double Span::stop() {
  if (!active_) return 0.0;
  active_ = false;
  Tracer& tracer = Tracer::global();
  record_.end_ns = tracer.now_ns();
  std::erase(open_spans, record_.id);
  const double ms = static_cast<double>(record_.end_ns - record_.start_ns) * 1e-6;
  tracer.record(record_);
  return ms;
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::int64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> out;
  for (const SpanRecord& s : spans) {
    LayerTime& layer = out[s.name];
    const std::int64_t duration = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    const std::int64_t child =
        it == children.end() ? 0 : covered(s.start_ns, s.end_ns, it->second);
    ++layer.count;
    layer.total_ms += static_cast<double>(duration) * 1e-6;
    layer.self_ms += static_cast<double>(duration - child) * 1e-6;
  }
  return out;
}

double total_ms(const std::vector<SpanRecord>& spans, const std::string& name) {
  double ms = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.name == name) ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  return ms;
}

std::size_t span_count(const std::vector<SpanRecord>& spans,
                       const std::string& name) {
  std::size_t n = 0;
  for (const SpanRecord& s : spans) n += s.name == name ? 1 : 0;
  return n;
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::ostream& out) {
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":";
    write_json_string(out, s.name);
    out << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
    if (s.request >= 0) out << ",\"request\":" << s.request;
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
