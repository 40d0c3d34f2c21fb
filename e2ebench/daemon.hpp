#pragma once

// The mapping daemon as a child process, and the client calls the
// benchmark makes to it.

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace e2e {

/// An `automap_cli serve` child with its own store directory. The
/// constructor returns once `ping` answers; the destructor shuts the daemon
/// down, reaps it and removes the directory with the socket inside, also
/// when a check failed or an exception is unwinding.
class Daemon {
 public:
  Daemon(const std::string& cli_path, const std::string& dir, int workers,
         int eval_threads);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }
  /// Spawn to first answered ping, in milliseconds.
  [[nodiscard]] double ready_ms() const { return ready_ms_; }
  /// The daemon's peak resident set so far.
  [[nodiscard]] double peak_rss_mb() const;
  /// Shuts down, reaps and cleans up; idempotent.
  void stop();

 private:
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
  double ready_ms_ = 0;
};

/// Makes SIGINT, SIGTERM and SIGHUP kill every live daemon before this
/// process dies of the signal, so an interrupted run leaves none behind.
void install_daemon_reaper();

/// One round trip, recorded as a `service` span named after the op.
[[nodiscard]] std::string call(const std::string& socket,
                               const std::string& request, const char* op,
                               std::uint64_t request_id);

/// Median round trip of 50 `ping` calls, in microseconds.
[[nodiscard]] double ping_rtt_us(const std::string& socket);

/// The submit request for `r` searched with `options`, as `automap_client
/// submit` would send it.
[[nodiscard]] std::string submit_json(const Request& r,
                                      const automap::SearchOptions& options);

struct Answer {
  std::string result_json;  // the `result` op's response, verbatim
  bool cached = false;      // the submit was a result-cache hit
};

/// Submits, polls `status` every 2 ms until the job is terminal, and
/// fetches the result. Throws automap::Error on an error response.
[[nodiscard]] Answer submit_and_wait(const std::string& socket,
                                     const std::string& submit,
                                     std::uint64_t request_id);

/// The daemon's own view from its `stats` op, as per-layer metrics: mean
/// submit handling time, queue wait and job duration (from the histograms'
/// exact sums, not their buckets), result-cache hit ratio, store bytes and
/// simulator runs. `cold_mean_ms` is the client's mean latency of the
/// computed requests; less the mean job duration it is the time spent
/// outside the daemon's job (wire and status polling).
void read_service_stats(const std::string& socket, double cold_mean_ms,
                        Metrics& m);

}  // namespace e2e
