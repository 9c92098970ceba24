#pragma once
// Blocking client for the optimization daemon (DESIGN.md Sec. 13.1):
// one connection per request, used by `tr_opt --connect`, the smoke
// suite and the determinism hammer test. The client is deliberately
// dumb — it frames the request, streams progress to a callback and
// hands back the terminal payload verbatim, so byte-level comparisons
// against serial tr_opt output see exactly what travelled the wire.

#include <functional>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace tr::server {

struct ClientResult {
  /// kFrameResponse or kFrameError.
  char type = 0;
  /// The terminal payload, byte-for-byte as received.
  std::string payload;
  /// Progress payloads in arrival order.
  std::vector<std::string> progress;
};

/// Connects to host:port; throws tr::Error on failure. Returns the fd.
int connect_tcp(const std::string& host, int port);

/// connect_tcp with a bound: a non-blocking connect that must complete
/// within timeout_ms (< 0 = blocking). Throws ErrorCode::disconnect on
/// timeout or refusal.
int connect_tcp_timeout(const std::string& host, int port, double timeout_ms);

/// One attempt: sends one request document and blocks until the
/// terminal frame; `on_progress` (optional) sees each progress payload.
/// `timeout_ms` bounds the connect and *each* frame read (< 0 = none).
/// Throws tr::Error on connect/framing failures, a timeout or a
/// premature close (ErrorCode::disconnect for transport failures).
ClientResult run_request_once(
    const std::string& host, int port, const std::string& request_json,
    double timeout_ms,
    const std::function<void(const std::string&)>& on_progress = {});

/// run_request_once without a timeout.
ClientResult run_request(
    const std::string& host, int port, const std::string& request_json,
    const std::function<void(const std::string&)>& on_progress = {});

/// Asks the daemon to drain. Returns once the shutdown is acknowledged;
/// throws on connect failure, returns false if the ack never arrived.
bool send_shutdown(const std::string& host, int port);

}  // namespace tr::server
