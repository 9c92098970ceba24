#include "opt/run_options.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace tr::opt {

namespace {

[[noreturn]] void reject(const std::string& message) {
  throw Error("request: " + message, ErrorCode::invalid_argument);
}

template <typename T>
const T& as(const OptionValue& value) {
  return std::get<T>(value);
}

int as_int(const OptionValue& value) {
  return static_cast<int>(as<std::int64_t>(value));
}

std::optional<double> or_unset(const OptionValue& value) {
  if (std::holds_alternative<std::monostate>(value)) return std::nullopt;
  return as<double>(value);
}

OptionValue or_null(const std::optional<double>& number) {
  return number ? OptionValue(*number) : OptionValue();
}

// Each row's set/get are generic lambdas: r is the RunRequest, v the
// OptionValue of the row's kind (I: std::int64_t, U: std::uint64_t).
const std::vector<RunOption>& table() {
  using enum OptionKind;
  using I = std::int64_t;
  using U = std::uint64_t;
  using V = OptionValue;
  static const std::vector<RunOption> rows = {
      {.key = "scenario", .kind = choice, .names = {"A", "B"},
       .shapes_output = true, .help = "input-statistics scenario (default A)",
       .set = [](auto& r, auto& v) { r.scenario = 'A' + as_int(v); },
       .get = [](auto& r) -> V { return I{r.scenario - 'A'}; }},
      {.key = "seed", .kind = u64, .shapes_output = true,
       .help = "master seed (default 1)",
       .set = [](auto& r, auto& v) { r.seed = as<U>(v); },
       .get = [](auto& r) -> V { return r.seed; }},
      {.key = "jobs", .kind = integer, .min = 0, .must = "non-negative",
       .help = "circuit workers, 0 = hardware (default 0)",
       .set = [](auto& r, auto& v) { r.batch.jobs = as_int(v); },
       .get = [](auto& r) -> V { return I{r.batch.jobs}; }},
      // Never changes result numbers, but it is rendered (the
      // per-circuit "threads" field), so it shapes bytes; jobs does not.
      {.key = "threads_per_circuit", .kind = integer, .min = 0,
       .must = "non-negative", .shapes_output = true,
       .help = "gate-level workers per circuit (default 1)",
       .set = [](auto& r, auto& v) { r.batch.threads_per_circuit = as_int(v); },
       .get = [](auto& r) -> V { return I{r.batch.threads_per_circuit}; }},
      {.key = "objective", .kind = choice, .names = {"minimize", "maximize"},
       .shapes_output = true, .help = "power objective (default minimize)",
       .set = [](auto& r, auto& v) {
         r.batch.opt.objective = Objective(as_int(v));
       },
       .get = [](auto& r) -> V { return I(r.batch.opt.objective); }},
      {.key = "model", .kind = choice,
       .names = {model_name(power::ModelKind::extended),
                 model_name(power::ModelKind::output_only)},
       .shapes_output = true, .help = "gate power model (default extended)",
       .set = [](auto& r, auto& v) {
         r.batch.opt.model = power::ModelKind(as_int(v));
       },
       .get = [](auto& r) -> V { return I(r.batch.opt.model); }},
      {.key = "delay_budget", .kind = number, .min = 0.0,
       .must = "a non-negative number or null", .shapes_output = true,
       .help = "keep the critical path within (1+F)x",
       .set = [](auto& r, auto& v) {
         r.batch.opt.max_circuit_delay_increase = or_unset(v);
       },
       .get = [](auto& r) {
         return or_null(r.batch.opt.max_circuit_delay_increase);
       }},
      {.key = "engine", .kind = choice,
       .names = {engine_name(Engine::catalog), engine_name(Engine::reference),
                 engine_name(Engine::anneal)},
       .shapes_output = true,
       .help = "scoring engine (default catalog)",
       .set = [](auto& r, auto& v) { r.batch.opt.engine = Engine(as_int(v)); },
       .get = [](auto& r) -> V { return I(r.batch.opt.engine); }},
      {.key = "anneal_seed", .kind = u64, .shapes_output = true,
       .help = "anneal move-stream seed (default 1)",
       .set = [](auto& r, auto& v) { r.batch.opt.anneal.seed = as<U>(v); },
       .get = [](auto& r) -> V { return r.batch.opt.anneal.seed; }},
      {.key = "anneal_iters", .kind = integer, .min = 1, .must = ">= 1",
       .shapes_output = true, .help = "annealing moves per gate (default 256)",
       .set = [](auto& r, auto& v) {
         r.batch.opt.anneal.iterations_per_gate = as_int(v);
       },
       .get = [](auto& r) -> V {
         return I{r.batch.opt.anneal.iterations_per_gate};
       }},
      {.key = "restrict_instance", .kind = flag, .shapes_output = true,
       .help = "only same-layout-instance reorderings",
       .set = [](auto& r, auto& v) {
         r.batch.opt.restrict_to_instance = as<bool>(v);
       },
       .get = [](auto& r) -> V { return r.batch.opt.restrict_to_instance; }},
      {.key = "keep_going", .kind = flag,
       .help = "contain circuit failures (default)",
       .off_flag = "--fail-fast",
       .off_help = "abort the batch on the first failure",
       .set = [](auto& r, auto& v) { r.batch.keep_going = as<bool>(v); },
       .get = [](auto& r) -> V { return r.batch.keep_going; }},
      {.key = "deadline_ms", .kind = number, .min = 0.0,
       .must = "a finite non-negative number or null",
       .help = "cancel unfinished work after F ms",
       .set = [](auto& r, auto& v) { r.deadline_ms = or_unset(v); },
       .get = [](auto& r) { return or_null(r.deadline_ms); }},
      {.key = "priority", .kind = integer,
       .help = "daemon priority, higher first (default 0)",
       .set = [](auto& r, auto& v) { r.priority = as_int(v); },
       .get = [](auto& r) -> V { return I{r.priority}; }},
      {.key = "gate_configs", .kind = flag, .has_flag = false,
       .off_flag = "--no-gate-configs",
       .off_help = "omit the per-gate configuration arrays",
       .set = [](auto& r, auto& v) { r.gate_configs = as<bool>(v); },
       .get = [](auto& r) -> V { return r.gate_configs; }},
      {.key = "request_id", .kind = text, .min = 1,
       .must = "a non-empty string",
       .help = "idempotency key of a --connect request",
       .set = [](auto& r, auto& v) { r.request_id = as<std::string>(v); },
       .get = [](auto& r) -> V { return r.request_id; }},
  };
  return rows;
}

std::string flag_of(const RunOption& row) {
  std::string flag = "--" + std::string(row.key);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

std::int64_t choice_index(const RunOption& row, std::string_view name) {
  const auto it = std::find(row.names.begin(), row.names.end(), name);
  if (it == row.names.end()) {
    std::string allowed;
    for (std::size_t i = 0; i < row.names.size(); ++i) {
      if (i > 0) allowed += i + 1 == row.names.size() ? " or " : ", ";
      allowed += "\"" + row.names[i] + "\"";
    }
    reject(std::string(row.key) + " must be " + allowed);
  }
  return it - row.names.begin();
}

/// Validates (the row's bound, then the thread ceiling — a
/// util::ThreadPool(n) starts n - 1 OS threads) and stores one value.
void apply_value(RunRequest& request, const RunOption& row,
                 const OptionValue& value) {
  const std::string key(row.key);
  double measure = 0.0;
  if (row.kind == OptionKind::integer) {
    const std::int64_t wide = as<std::int64_t>(value);
    if (wide < std::numeric_limits<int>::min() ||
        wide > std::numeric_limits<int>::max()) {
      reject(key + " is out of range");
    }
    measure = static_cast<double>(wide);
  } else if (row.kind == OptionKind::number) {
    measure = or_unset(value).value_or(0.0);
  } else if (row.kind == OptionKind::text) {
    measure = static_cast<double>(as<std::string>(value).size());
  }
  if (row.min && measure < *row.min) {
    reject(key + " must be " + std::string(row.must));
  }
  row.set(request, value);
  const BatchOptions& batch = request.batch;
  if (std::int64_t{std::max(batch.jobs, 1)} *
          std::max(batch.threads_per_circuit, 1) >
      kMaxRunThreads) {
    reject("jobs x threads_per_circuit must be at most " +
           std::to_string(kMaxRunThreads));
  }
}

OptionValue from_json(const RunOption& row, const util::JsonValue& value) {
  const std::string key(row.key);
  switch (row.kind) {
    case OptionKind::choice: return choice_index(row, value.as_string(key));
    case OptionKind::u64: return value.as_u64(key);
    case OptionKind::integer: return value.as_i64(key);
    case OptionKind::number:
      return value.is_null() ? OptionValue() : value.as_double(key);
    case OptionKind::flag: return value.as_bool(key);
    case OptionKind::text: break;
  }
  return value.as_string(key);
}

OptionValue from_text(const RunOption& row, std::string_view flag,
                      const std::string& text) {
  switch (row.kind) {
    case OptionKind::choice: return choice_index(row, text);
    case OptionKind::u64: return parse_u64(flag, text);
    case OptionKind::integer:
      return static_cast<std::int64_t>(parse_int(flag, text));
    case OptionKind::number: return parse_double(flag, text);
    case OptionKind::flag: return true;
    case OptionKind::text: break;
  }
  return text;
}

/// Renders an OptionValue; std::monostate is null.
struct ValueWriter {
  util::JsonWriter& w;
  void operator()(std::monostate) const { w.null_value(); }
  template <typename T>
  void operator()(const T& value) const {
    w.value(value);
  }
};

}  // namespace

std::span<const RunOption> run_options() { return table(); }

bool apply_field(RunRequest& request, std::string_view key,
                 const util::JsonValue& value) {
  for (const RunOption& row : table()) {
    if (row.key != key) continue;
    apply_value(request, row, from_json(row, value));
    return true;
  }
  return false;
}

std::size_t apply_flag(RunRequest& request, std::span<const std::string> args,
                       std::size_t i) {
  const std::string& flag = args[i];
  for (const RunOption& row : table()) {
    if (!row.off_flag.empty() && flag == row.off_flag) {
      apply_value(request, row, false);
      return 1;
    }
    if (!row.has_flag || flag != flag_of(row)) continue;
    if (row.kind == OptionKind::flag) {
      apply_value(request, row, true);
      return 1;
    }
    if (i + 1 >= args.size()) {
      throw Error(flag + " needs a value", ErrorCode::invalid_argument);
    }
    apply_value(request, row, from_text(row, flag, args[i + 1]));
    return 2;
  }
  return 0;
}

void write_request_fields(util::JsonWriter& w, const RunRequest& request,
                          bool output_shaping_only) {
  w.key("circuits");
  w.begin_array();
  for (const std::string& spec : request.circuits) w.value(spec);
  w.end_array();
  for (const RunOption& row : table()) {
    if (output_shaping_only && !row.shapes_output) continue;
    const OptionValue value = row.get(request);
    // An unset request_id is absent: present, it must be non-empty.
    if (row.kind == OptionKind::text && as<std::string>(value).empty()) {
      continue;
    }
    w.key(row.key);
    if (row.kind == OptionKind::choice) {
      w.value(row.names[static_cast<std::size_t>(as<std::int64_t>(value))]);
    } else {
      std::visit(ValueWriter{w}, value);
    }
  }
}

std::string render_request(const RunRequest& request) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  write_request_fields(w, request, false);
  w.end_object();
  return out.str();
}

std::string options_help() {
  std::string help;
  const auto line = [&help](std::string usage, std::string_view text) {
    usage.resize(std::max<std::size_t>(usage.size() + 1, 35), ' ');
    help += "  " + usage + std::string(text) + "\n";
  };
  constexpr const char* kMetavars[] = {"", "N", "N", "F", "", "KEY"};
  for (const RunOption& row : table()) {
    std::string usage = flag_of(row);
    if (row.kind == OptionKind::choice) {
      usage += " " + join(row.names, "|");
    } else if (row.kind != OptionKind::flag) {
      usage += " " + std::string(kMetavars[static_cast<int>(row.kind)]);
    }
    if (row.has_flag) line(usage, row.help);
    if (!row.off_flag.empty()) line(std::string(row.off_flag), row.off_help);
  }
  return help;
}

}  // namespace tr::opt
