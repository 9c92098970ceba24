#include "server/request.hpp"

#include <sstream>

#include "opt/circuit_load.hpp"
#include "util/error.hpp"

namespace tr::server {

namespace {

[[noreturn]] void reject(const std::string& message) {
  throw Error("request: " + message, ErrorCode::invalid_argument);
}

void append_circuit(const util::JsonValue& value, OptimizeRequest& request) {
  const std::string& spec = value.as_string("circuits entry");
  // The daemon refuses request-named files: only embedded classics and
  // generated suite entries are served over the network.
  if (!opt::is_embedded_spec(spec)) {
    reject("unknown circuit '" + spec +
           "' (the server serves embedded classics and suite entries only)");
  }
  request.circuits.push_back(spec);
}

}  // namespace

OptimizeRequest parse_request(std::string_view json_text) {
  const util::JsonValue doc = util::json_parse(json_text);
  if (doc.kind != util::JsonValue::Kind::object) {
    reject("document must be a JSON object");
  }

  OptimizeRequest request;
  // Fields apply in document order, so circuits / suite interleave the
  // same way positional specs and --suite do on the command line.
  for (const auto& [key, value] : doc.object) {
    if (key == "circuits") {
      if (value.kind != util::JsonValue::Kind::array) {
        reject("circuits must be an array of circuit names");
      }
      for (const util::JsonValue& entry : value.array) {
        append_circuit(entry, request);
      }
    } else if (key == "suite") {
      for (const std::string& spec :
           opt::suite_circuit_specs(value.as_string("suite"))) {
        request.circuits.push_back(spec);
      }
    } else if (!opt::apply_field(request, key, value)) {
      reject("unknown field '" + key + "'");
    }
  }

  if (request.circuits.empty()) reject("no circuits given");
  return request;
}

std::string render_progress(std::size_t index,
                            const opt::BatchCircuitResult& result) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("type");
  w.value("progress");
  w.key("index");
  w.value(static_cast<std::int64_t>(index));
  w.key("circuit");
  w.value(result.name);
  w.key("status");
  w.value(opt::circuit_status_name(result.status));
  w.end_object();
  return out.str();
}

std::string render_error(const opt::CircuitError& error) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("type");
  w.value("error");
  w.key("code");
  w.value(error_code_name(error.code));
  w.key("retryable");
  w.value(is_retryable(error.code));
  w.key("site");
  w.value(error.site);
  w.key("message");
  w.value(error.message);
  w.end_object();
  return out.str();
}

}  // namespace tr::server
