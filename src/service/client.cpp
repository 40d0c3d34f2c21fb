#include "src/service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/service/wire.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"

namespace automap {

namespace {

void read_exact_or_throw(int fd, char* out, std::size_t n,
                         const char* what) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    AM_REQUIRE(r > 0, std::string("connection closed while reading ") +
                          what);
    got += static_cast<std::size_t>(r);
  }
}

}  // namespace

std::string ServiceClient::call(const std::string& request_json) const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  AM_REQUIRE(!socket_path_.empty() &&
                 socket_path_.size() < sizeof(addr.sun_path),
             "bad socket path: " + socket_path_);
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof(addr.sun_path) - 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  AM_REQUIRE(fd >= 0,
             "cannot create socket: " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw Unreachable(
        "cannot connect to " + socket_path_ + ": " + reason +
        " (is the daemon running? start with: automap_cli serve)");
  }

  try {
    const std::string frame = encode_frame(request_json);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      // MSG_NOSIGNAL: a daemon that dies mid-send becomes a clean Error
      // (EPIPE) instead of a SIGPIPE that kills the client process.
      const ssize_t w = ::send(fd, frame.data() + sent,
                               frame.size() - sent, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      AM_REQUIRE(w > 0, "connection closed while sending the request");
      sent += static_cast<std::size_t>(w);
    }

    char header[kFrameHeaderBytes];
    read_exact_or_throw(fd, header, sizeof(header), "the response header");
    const std::size_t length =
        *decode_frame_length({header, sizeof(header)});
    std::string response(length, '\0');
    read_exact_or_throw(fd, response.data(), length, "the response body");
    ::close(fd);
    return response;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

namespace {

/// True for an `{"type":"error","code":"overloaded",...}` response;
/// copies out its retry_after_ms hint. Unparseable responses are not
/// overloaded — they surface to the caller unchanged.
bool is_overloaded(const std::string& response, double* retry_after_ms) {
  // Cheap pre-filter: every daemon error starts with these exact bytes
  // (wire_error emits no whitespace), so successful responses — which
  // may carry multi-megabyte result payloads — skip the full JSON parse.
  if (response.rfind("{\"type\":\"error\"", 0) != 0) return false;
  try {
    const JsonValue value = parse_json(response);
    if (value.kind != JsonValue::Kind::kObject) return false;
    if (value.str_or("type", "") != "error") return false;
    if (value.str_or("code", "") != "overloaded") return false;
    *retry_after_ms = value.num_or("retry_after_ms", 0);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

double retry_delay_ms(const RetryPolicy& policy, int attempt,
                      std::uint64_t& rng_state) {
  double ceiling = std::max(0.0, policy.base_ms);
  for (int i = 0; i < attempt && ceiling < policy.cap_ms; ++i)
    ceiling *= 2;
  ceiling = std::min(ceiling, std::max(0.0, policy.cap_ms));
  // Full jitter: uniform in [0, ceiling). The 53-bit mantissa path keeps
  // the mapping exact and platform-independent.
  const double unit =
      static_cast<double>(splitmix64(rng_state) >> 11) / 9007199254740992.0;
  return ceiling * unit;
}

std::string ServiceClient::call_with_retry(const std::string& request_json,
                                           const RetryPolicy& policy) const {
  std::uint64_t rng_state = policy.seed;
  const int attempts = std::max(1, policy.max_attempts);
  for (int attempt = 0;; ++attempt) {
    double floor_ms = 0;
    try {
      std::string response = call(request_json);
      if (!is_overloaded(response, &floor_ms)) return response;
      // Exhausted: hand the overloaded response to the caller — it holds
      // the structured code and hint, which beats inventing an error.
      if (attempt + 1 >= attempts) return response;
    } catch (const Unreachable&) {
      if (attempt + 1 >= attempts) throw;
    }
    const double delay_ms =
        std::max(floor_ms, retry_delay_ms(policy, attempt, rng_state));
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
}

}  // namespace automap
