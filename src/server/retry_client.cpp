#include "server/retry_client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace tr::server {

namespace {

/// True when an error-frame payload says the failure is worth retrying
/// ("retryable": true, schema v4). A payload that cannot be parsed or
/// predates the field counts as non-retryable — never loop on an
/// unclassified failure.
bool error_frame_retryable(const std::string& payload) {
  try {
    const util::JsonValue doc = util::json_parse(payload);
    const util::JsonValue* retryable = doc.find("retryable");
    return retryable != nullptr && retryable->as_bool("retryable");
  } catch (...) {
    return false;
  }
}

}  // namespace

ClientResult run_request_with_retry(
    const std::string& host, int port, const std::string& request_json,
    const RetryPolicy& policy,
    const std::function<void(const std::string&)>& on_progress) {
  Rng jitter(policy.jitter_seed);

  for (int attempt = 0;; ++attempt) {
    std::string why;
    try {
      const ClientResult result =
          run_request_once(host, port, request_json, policy.timeout_ms,
                           on_progress);
      if (result.type != kFrameError || attempt >= policy.max_retries ||
          !error_frame_retryable(result.payload)) {
        return result;
      }
      // A retryable server error (queue full, injected fault, ...):
      // worth another attempt — with an idempotency key the daemon
      // replays the response if the request did complete meanwhile.
      why = "server error: " + result.payload;
    } catch (const Error& e) {
      if (attempt >= policy.max_retries || !is_retryable(e.code())) throw;
      why = e.what();
    }

    // Exponential backoff with deterministic jitter: delay_k =
    // min(base * 2^k, max) * U[0.5, 1.0).
    const double exp_delay =
        std::min(policy.base_backoff_ms * std::ldexp(1.0, attempt),
                 policy.max_backoff_ms);
    const double delay_ms = exp_delay * jitter.uniform(0.5, 1.0);
    if (policy.on_retry) policy.on_retry(attempt + 1, delay_ms, why);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
}

}  // namespace tr::server
