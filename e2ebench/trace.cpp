#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <unordered_map>

#include "src/support/json.hpp"

namespace e2e {

namespace {

int this_thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Open spans of the calling thread, innermost last.
std::vector<std::uint64_t>& open_stack() {
  thread_local std::vector<std::uint64_t> stack;
  return stack;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t Tracer::open(std::string layer, std::string name,
                           std::uint64_t request) {
  std::vector<std::uint64_t>& stack = open_stack();
  SpanRecord span;
  span.parent = stack.empty() ? 0 : stack.back();
  span.request = request;
  span.layer = std::move(layer);
  span.name = std::move(name);
  span.thread = this_thread_index();
  span.start_us = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  span.id = next_id_++;
  stack.push_back(span.id);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  const double end = now_us();
  std::vector<std::uint64_t>& stack = open_stack();
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  // Ids are dense and assigned in push order, so the span sits at id - 1.
  spans_[id - 1].end_us = end;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans_) {
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  std::max(0.0, s.end_us - s.start_us));
    os << (first ? "" : ",") << "\n{\"name\":\""
       << automap::json_escape(s.name) << "\",\"cat\":\""
       << automap::json_escape(s.layer) << "\",\"ph\":\"X\",\"pid\":1,"
       << "\"tid\":" << s.thread << "," << times << ",\"args\":{\"id\":"
       << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << "}}";
    first = false;
  }
  os << "\n]}\n";
}

void Tracer::print_self_time_table(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, double> child_us;
  for (const SpanRecord& s : spans_)
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  struct Row {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  double all_self = 0.0;
  for (const SpanRecord& s : spans_) {
    Row& row = rows[s.layer + " " + s.name];
    const double dur = s.end_us - s.start_us;
    const auto it = child_us.find(s.id);
    const double self = dur - (it == child_us.end() ? 0.0 : it->second);
    ++row.count;
    row.total_us += dur;
    row.self_us += self;
    all_self += self;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  char line[160];
  std::snprintf(line, sizeof line, "%-40s %8s %12s %12s %7s\n",
                "layer span", "count", "total_ms", "self_ms", "self%");
  os << line;
  for (const auto& [key, row] : sorted) {
    std::snprintf(line, sizeof line, "%-40s %8zu %12.3f %12.3f %6.1f%%\n",
                  key.c_str(), row.count, row.total_us / 1e3,
                  row.self_us / 1e3,
                  all_self > 0 ? 100.0 * row.self_us / all_self : 0.0);
    os << line;
  }
}

Span::Span(const char* layer, const char* name, std::uint64_t request) {
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) id_ = tracer.open(layer, name, request);
}

Span::~Span() {
  if (id_ != 0) Tracer::instance().close(id_);
}

}  // namespace e2e
