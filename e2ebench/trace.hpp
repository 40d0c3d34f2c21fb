#pragma once

// In-memory span recorder for the traced run. Spans are opened by the
// benchmark's own code around each call into a library layer; nothing in
// the library is instrumented. Spans nest per thread (the innermost open
// span on a thread is the parent of the next one), carry the request id of
// the request that caused them, and are written at the end as a Chrome
// trace that Perfetto and chrome://tracing load.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::string layer;  // src/ module the call enters: sim, search, service...
  std::string name;
  int thread = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Microseconds since the tracer was created.
  [[nodiscard]] double now_us() const;

  std::uint64_t open(std::string layer, std::string name,
                     std::uint64_t request);
  void close(std::uint64_t id);

  /// Chrome trace-event JSON ("X" complete events, one tid per thread).
  void write_chrome_trace(const std::string& path) const;
  /// Per-span-name count, total and self time (duration minus the time
  /// covered by direct children), largest self time first.
  void print_self_time_table(std::ostream& os) const;

 private:
  Tracer();

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  // guards spans_ and next_id_
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t id_ = 0;
};

}  // namespace e2e
