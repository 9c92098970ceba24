#pragma once
// The run-option schema (DESIGN.md Sec. 13.2, 15.2): the settings of one
// optimization run and the one descriptor table that parses, validates
// and renders them for the tr_opt command line, the daemon's request
// documents and the checkpoint manifest.
//
// Each row is one option. Its key is the request field; its flag is
// "--" plus the key with '-' for '_' (gate_configs has none; the aliases
// --fail-fast and --no-gate-configs set keep_going / gate_configs to
// false). A value is parsed strictly by the row's kind, from JSON or
// from flag text, and then checked by the row's one validator, so a
// flag and a request field are refused with the same "request: ..."
// message. The checkpoint manifest pins exactly the shapes_output rows.
// The options (a request adds `circuits`, an array of spec strings, and
// `suite`, whose specs are appended in document order):
//   scenario       "A" | "B"                        (default "A")
//   seed           u64 master seed                  (default 1)
//   jobs           circuit workers >= 0, 0 = hardware (default 0)
//   threads_per_circuit  gate workers >= 0, 0 = 1   (default 1); jobs x
//                  threads (a 0 counting as 1) is at most kMaxRunThreads
//   objective      "minimize" | "maximize"          (default minimize)
//   model          "extended" | "output_only"       (default extended)
//   delay_budget   F >= 0 or null: the critical path stays within
//                  (1+F)x the original, 0 = zero slack (default null)
//   engine         "catalog" | "reference" | "anneal" (default catalog)
//   anneal_seed    u64 seed of the anneal move stream (default 1)
//   anneal_iters   moves per gate >= 1              (default 256)
//   restrict_instance  same-layout-instance reorderings only (false)
//   keep_going     contain circuit failures         (default true)
//   deadline_ms    F >= 0 or null: cancel unfinished work after F ms
//   priority       int, the daemon runs higher first (default 0)
//   gate_configs   emit the per-gate configuration arrays (true)
//   request_id     non-empty idempotency key: the daemon replays the
//                  stored response of a completed ID (default absent)

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "opt/batch.hpp"
#include "util/json.hpp"

namespace tr::opt {

/// A constant, not an option: one request must not make the daemon
/// start a million threads.
inline constexpr std::int64_t kMaxRunThreads = 256;

/// The settings of one run: its circuits plus one field per option.
struct RunRequest {
  std::vector<std::string> circuits;
  char scenario = 'A';
  std::uint64_t seed = 1;
  BatchOptions batch;  ///< cancel/progress/journal wired by the caller
  std::optional<double> deadline_ms;  ///< absent = no deadline
  int priority = 0;
  bool gate_configs = true;
  std::string request_id;  ///< empty = no idempotency key
};

/// A parsed option value; std::monostate is JSON null.
using OptionValue = std::variant<std::monostate, bool, std::int64_t,
                                 std::uint64_t, double, std::string>;

enum class OptionKind {
  choice,   ///< one of `names`, held as its index (std::int64_t)
  u64,      ///< std::uint64_t
  integer,  ///< std::int64_t within int range
  number,   ///< double, or null
  flag,     ///< bool; on the command line the bare flag means true
  text,     ///< std::string
};

struct RunOption {
  std::string_view key;
  OptionKind kind;
  /// A choice's names, in the declaration order of its field's enum.
  std::vector<std::string> names = {};
  /// The validator: a number or a text length below `min` is refused
  /// with "request: <key> must be <must>".
  std::optional<double> min = {};
  std::string_view must = {};
  bool shapes_output = false;  ///< can change result bytes
  bool has_flag = true;        ///< false: no "--" + key flag
  std::string_view help = {};  ///< its --help line
  /// A flag option's alias that sets it false, and that alias's help.
  std::string_view off_flag = {};
  std::string_view off_help = {};
  void (*set)(RunRequest&, const OptionValue&);
  OptionValue (*get)(const RunRequest&);
};

/// The table, in rendering order.
std::span<const RunOption> run_options();

/// Applies one request-document field. Returns false when `key` names
/// no option; throws tr::Error on a bad value.
bool apply_field(RunRequest& request, std::string_view key,
                 const util::JsonValue& value);

/// Applies the run option that args[i] names (its flag or off_flag),
/// taking args[i + 1] as its value when its kind needs one. Returns the
/// number of arguments used: 0 when args[i] is no run option, else 1 or
/// 2. Throws tr::Error (invalid_argument) on a missing or bad value.
std::size_t apply_flag(RunRequest& request, std::span<const std::string> args,
                       std::size_t i);

/// Writes the circuits and then "key": value for every option, or for
/// the shapes_output ones only, into an open JSON object in table order
/// (an unset request_id is left out).
void write_request_fields(util::JsonWriter& w, const RunRequest& request,
                          bool output_shaping_only);

/// The canonical request document: circuits, then every option. `tr_opt
/// --connect` sends it; the daemon compares it to tell a replayed
/// request_id from a reused one.
std::string render_request(const RunRequest& request);

/// The --help lines of the command-line run options.
std::string options_help();

}  // namespace tr::opt
