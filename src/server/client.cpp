#include "server/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace tr::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Closes the fd on every exit path of the request exchange.
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

[[noreturn]] void throw_disconnect(const std::string& message) {
  throw Error("client: " + message, ErrorCode::disconnect);
}

}  // namespace

int connect_tcp(const std::string& host, int port) {
  return connect_tcp_timeout(host, port, -1.0);
}

int connect_tcp_timeout(const std::string& host, int port,
                        double timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd >= 0, "client: socket: " + std::string(std::strerror(errno)));
  FdGuard guard{fd};

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw Error("client: bad address '" + host + "'",
                ErrorCode::invalid_argument);
  }

  // A bounded connect is non-blocking plus a poll for completion.
  const bool bounded = timeout_ms >= 0.0;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  require(!bounded ||
              (flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0),
          "client: fcntl: " + std::string(std::strerror(errno)));

  const std::string endpoint = host + ":" + std::to_string(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    // A refused/unreachable daemon is a transport condition, not a bad
    // request: ErrorCode::disconnect, so retry_client classifies it as
    // retryable (the daemon may be restarting).
    if (!bounded || errno != EINPROGRESS) {
      throw_disconnect("cannot connect to " + endpoint + ": " +
                       std::strerror(errno));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(timeout_ms)));
    if (ready == 0) {
      throw_disconnect("connect to " + endpoint + " timed out after " +
                       std::to_string(static_cast<long long>(timeout_ms)) +
                       " ms");
    }
    if (ready < 0) {
      throw_disconnect("poll: " + std::string(std::strerror(errno)));
    }
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
        error != 0) {
      throw_disconnect("cannot connect to " + endpoint + ": " +
                       std::strerror(error != 0 ? error : errno));
    }
  }

  // Back to blocking: the framed reads poll with their own deadline
  // predicate and expect blocking semantics between slices.
  require(!bounded || ::fcntl(fd, F_SETFL, flags) == 0,
          "client: fcntl: " + std::string(std::strerror(errno)));
  guard.fd = -1;  // ownership passes to the caller
  return fd;
}

ClientResult run_request_once(
    const std::string& host, int port, const std::string& request_json,
    double timeout_ms,
    const std::function<void(const std::string&)>& on_progress) {
  const FdGuard guard{connect_tcp_timeout(host, port, timeout_ms)};
  if (!write_frame(guard.fd, kFrameRequest, request_json)) {
    throw_disconnect("request send failed");
  }

  ClientResult result;
  for (;;) {
    Frame frame;
    std::function<bool()> interrupted;
    if (timeout_ms >= 0.0) {
      const Clock::time_point deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 timeout_ms));
      interrupted = [deadline] { return Clock::now() >= deadline; };
    }
    const ReadResult r =
        read_frame(guard.fd, frame, kDefaultMaxFrameBytes, interrupted);
    if (r == ReadResult::interrupted) {
      throw_disconnect("no frame within " +
                       std::to_string(static_cast<long long>(timeout_ms)) +
                       " ms (daemon hung or unreachable)");
    }
    if (r != ReadResult::ok) {
      // Every mid-stream read failure — EOF before the terminal frame,
      // reset, torn header — means the daemon went away under us:
      // classify as disconnect so a retrying caller tries again.
      throw_disconnect(read_result_message(r, frame, kDefaultMaxFrameBytes));
    }
    if (frame.type == kFrameProgress) {
      if (on_progress) on_progress(frame.payload);
      result.progress.push_back(std::move(frame.payload));
      continue;
    }
    if (frame.type == kFrameResponse || frame.type == kFrameError) {
      result.type = frame.type;
      result.payload = std::move(frame.payload);
      return result;
    }
    throw Error(std::string("client: unexpected frame type '") + frame.type +
                "'");
  }
}

ClientResult run_request(
    const std::string& host, int port, const std::string& request_json,
    const std::function<void(const std::string&)>& on_progress) {
  // No client-side timeout: responses can take as long as the
  // optimization itself — the request's deadline_ms travels with it
  // and the server enforces it.
  return run_request_once(host, port, request_json, -1.0, on_progress);
}

bool send_shutdown(const std::string& host, int port) {
  const FdGuard guard{connect_tcp(host, port)};
  if (!write_frame(guard.fd, kFrameShutdown, "")) return false;
  Frame frame;
  const ReadResult r = read_frame(guard.fd, frame, kDefaultMaxFrameBytes);
  return r == ReadResult::ok && frame.type == kFrameShutdownAck;
}

}  // namespace tr::server
