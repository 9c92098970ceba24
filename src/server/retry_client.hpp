#pragma once
// Resilient client for the optimization daemon (DESIGN.md Sec. 15.4).
//
// run_request_once (client.hpp) is deliberately dumb: one connection,
// one attempt. This wrapper adds the three things a client surviving
// daemon restarts needs:
//
//   * timeouts — a per-attempt bound on connect and on each read, so a
//     hung daemon surfaces as a retryable failure instead of a stuck
//     client;
//   * bounded retries with exponential backoff — transport failures
//     (ErrorCode::disconnect and friends, see is_retryable) and
//     *retryable* server error responses are re-attempted up to
//     max_retries times, with delays doubling from base_backoff_ms and
//     a deterministic seeded jitter so retry storms decorrelate yet
//     tests replay exactly;
//   * idempotency keys — callers put a request_id into the request
//     document; the daemon replays the stored response of a completed
//     ID instead of re-executing, so "retry until success" composes
//     with "execute at most once" even when the first response was
//     lost in flight.
//
// Non-retryable failures (parse errors, invalid arguments — retrying
// cannot change the outcome) are rethrown/returned immediately.

#include <cstdint>
#include <functional>
#include <string>

#include "server/client.hpp"

namespace tr::server {

struct RetryPolicy {
  /// Extra attempts after the first; 0 = single attempt (still applies
  /// the timeout).
  int max_retries = 0;
  /// Backoff before the first retry; doubles per retry.
  double base_backoff_ms = 100.0;
  /// Backoff ceiling (applied before jitter).
  double max_backoff_ms = 5000.0;
  /// Per-attempt bound on the connect and on *each* frame read; < 0 =
  /// none (the server's --deadline-ms is then the only bound). The
  /// per-read scope means a slow-but-alive daemon streaming progress is
  /// never falsely timed out, while a daemon that went silent is.
  double timeout_ms = -1.0;
  /// Seed of the jitter stream: each retry's delay is scaled by a
  /// uniform factor in [0.5, 1.0] drawn from a tr::Rng seeded with
  /// this, so a fleet of clients seeded differently decorrelates while
  /// any one client's schedule is reproducible.
  std::uint64_t jitter_seed = 1;
  /// Observability hook: called before each backoff sleep with the
  /// upcoming attempt number (1-based), the jittered delay and the
  /// failure that caused the retry.
  std::function<void(int attempt, double delay_ms, const std::string& why)>
      on_retry;
};

/// run_request_once with the policy applied. Returns the terminal result —
/// possibly an error frame, when it is non-retryable or retries are
/// exhausted. Throws tr::Error when every attempt failed at the
/// transport level (the last failure propagates).
ClientResult run_request_with_retry(
    const std::string& host, int port, const std::string& request_json,
    const RetryPolicy& policy,
    const std::function<void(const std::string&)>& on_progress = {});

}  // namespace tr::server
