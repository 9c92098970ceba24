#pragma once
// Server request schema (DESIGN.md Sec. 13.2).
//
// A request frame carries one JSON object: `circuits` (an array of spec
// strings) and `suite` (a suite name whose specs are appended, in
// document order) plus the run options of opt/run_options.hpp, the
// table that also parses tr_opt's flags. Parsing is strict: unknown
// fields are rejected (a typoed "dedline_ms" must fail loudly, not
// silently run without a deadline), and every value is type- and
// range-checked by the table's validators, the same as the CLI's. The
// daemon serves embedded/generated circuit specs only — file paths in
// a network request are refused, so a client cannot make the server
// read arbitrary local files.

#include <string>

#include "opt/run_options.hpp"

namespace tr::server {

using OptimizeRequest = opt::RunRequest;

/// Parses and validates a request document. Throws tr::Error
/// (ErrorCode::invalid_argument) with a "request: ..." message on any
/// schema violation; propagates the parser's "json: ..." errors
/// (ErrorCode::parse) for malformed JSON.
OptimizeRequest parse_request(std::string_view json_text);

/// Renders one progress frame payload:
///   {"type":"progress","index":I,"circuit":NAME,"status":STATUS}
std::string render_progress(std::size_t index,
                            const opt::BatchCircuitResult& result);

/// Renders one error frame payload:
///   {"type":"error","code":CODE,"site":SITE,"message":MESSAGE}
std::string render_error(const opt::CircuitError& error);

}  // namespace tr::server
