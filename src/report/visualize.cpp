#include "src/report/visualize.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/json.hpp"

namespace automap {

namespace {

char memory_letter(MemKind k) {
  switch (k) {
    case MemKind::kSystem:
      return 'S';
    case MemKind::kZeroCopy:
      return 'Z';
    case MemKind::kFrameBuffer:
      return 'F';
  }
  AM_UNREACHABLE("bad MemKind");
}

const char* memory_color(MemKind k) {
  // The paper's Fig. 3 palette: red = Zero-Copy, black = Frame-Buffer,
  // yellow = System.
  switch (k) {
    case MemKind::kSystem:
      return "gold";
    case MemKind::kZeroCopy:
      return "indianred1";
    case MemKind::kFrameBuffer:
      return "gray20";
  }
  AM_UNREACHABLE("bad MemKind");
}

/// Escapes a string for a DOT label.
std::string dot_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\' || c == '{' || c == '}' || c == '|' ||
        c == '<' || c == '>')
      out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Default iostream formatting (up to 6 significant digits) — the
/// formatting the trace exporter has always used for timestamps.
std::string trace_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

void ChromeTraceBuilder::separator() {
  if (!first_) events_ += ",";
  first_ = false;
}

void ChromeTraceBuilder::lane(int tid, const std::string& name) {
  separator();
  events_ += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
             std::to_string(tid) + ",\"args\":{\"name\":\"" +
             json_escape(name) + "\"}}";
}

void ChromeTraceBuilder::complete(int tid, const std::string& name,
                                  double ts_us, double dur_us,
                                  const std::string& args_json) {
  separator();
  events_ += "{\"name\":\"" + json_escape(name) +
             "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
             ",\"ts\":" + trace_number(ts_us) +
             ",\"dur\":" + trace_number(dur_us) + ",\"args\":{" + args_json +
             "}}";
}

void ChromeTraceBuilder::instant(int tid, const std::string& name,
                                 double ts_us,
                                 const std::string& args_json) {
  separator();
  events_ += "{\"name\":\"" + json_escape(name) +
             "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" +
             std::to_string(tid) + ",\"ts\":" + trace_number(ts_us) +
             ",\"args\":{" + args_json + "}}";
}

std::string ChromeTraceBuilder::str() const {
  return "{\"traceEvents\":[" + events_ + "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string render_mapping(const TaskGraph& graph, const Mapping& mapping) {
  std::uint64_t largest = 1;
  for (const Collection& c : graph.collections())
    largest = std::max(largest, graph.collection_bytes(c.id));

  std::ostringstream os;
  os << "legend: [S]=System [Z]=ZeroCopy [F]=FrameBuffer; bar = collection "
        "size relative to the largest ("
     << format_bytes(largest) << ")\n\n";

  constexpr int kBarWidth = 24;
  for (const GroupTask& task : graph.tasks()) {
    const TaskMapping& tm = mapping.at(task.id);
    os << task.name << "  [" << to_string(tm.proc) << "]"
       << (tm.distribute ? (tm.blocked ? " blocked" : " distributed")
                         : " leader-only")
       << " x" << task.num_points << "\n";
    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const Collection& col = graph.collection(task.args[a].collection);
      const std::uint64_t bytes = graph.collection_bytes(col.id);
      const int fill = std::max(
          1, static_cast<int>(static_cast<double>(bytes) /
                              static_cast<double>(largest) * kBarWidth));
      const MemKind mem = mapping.primary_memory(task.id, a);
      os << "  [" << memory_letter(mem) << "] " << col.name << " ("
         << to_string(task.args[a].privilege) << ", " << format_bytes(bytes)
         << ")\n      |" << std::string(static_cast<std::size_t>(fill), '#')
         << std::string(static_cast<std::size_t>(kBarWidth - fill), '.')
         << "|\n";
    }
  }
  return os.str();
}

std::string render_mapping_dot(const TaskGraph& graph,
                               const Mapping& mapping) {
  std::ostringstream os;
  os << "digraph mapping {\n"
     << "  rankdir=LR;\n"
     << "  node [fontname=\"monospace\"];\n";

  for (const GroupTask& task : graph.tasks()) {
    const TaskMapping& tm = mapping.at(task.id);
    const bool gpu = tm.proc == ProcKind::kGpu;
    os << "  t" << task.id.value() << " [shape=record, style=filled, "
       << "fillcolor=" << (gpu ? "palegreen" : "lightskyblue")
       << ", label=\"{" << dot_escape(task.name) << " ["
       << to_string(tm.proc) << "]";
    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const Collection& col = graph.collection(task.args[a].collection);
      os << "|<a" << a << "> " << dot_escape(col.name) << " : "
         << memory_letter(mapping.primary_memory(task.id, a));
    }
    os << "}\"];\n";
  }

  // Collection legend nodes per memory kind actually used.
  for (const MemKind k : kAllMemKinds) {
    bool used = false;
    for (const GroupTask& task : graph.tasks())
      for (std::size_t a = 0; a < task.args.size(); ++a)
        if (mapping.primary_memory(task.id, a) == k) used = true;
    if (!used) continue;
    os << "  legend_" << memory_letter(k) << " [shape=box, style=filled, "
       << "fillcolor=" << memory_color(k) << ", label=\"" << to_string(k)
       << "\"];\n";
  }

  for (const DependenceEdge& e : graph.edges()) {
    if (!e.carries_data) continue;
    os << "  t" << e.producer.value() << " -> t" << e.consumer.value()
       << " [label=\"" << format_bytes(e.bytes) << "\""
       << (e.cross_iteration ? ", style=dashed" : "") << "];\n";
  }
  os << "}\n";
  return os.str();
}

std::string render_chrome_trace(const ExecutionReport& report) {
  return render_chrome_trace(report, {});
}

std::string render_chrome_trace(
    const ExecutionReport& report,
    const std::vector<TrajectoryPoint>& trajectory) {
  AM_REQUIRE(report.ok, "cannot render a trace of a failed run");
  // Stable row ids per resource.
  std::map<std::string, int> rows;
  for (const TraceEvent& e : report.trace)
    rows.emplace(e.resource, static_cast<int>(rows.size()) + 1);

  ChromeTraceBuilder trace;
  for (const auto& [resource, tid] : rows) trace.lane(tid, resource);
  for (const TraceEvent& e : report.trace) {
    std::string args = "\"iteration\":" + std::to_string(e.iteration) +
                       ",\"kind\":\"" +
                       (e.kind == TraceEvent::Kind::kTask   ? "task"
                        : e.kind == TraceEvent::Kind::kCopy ? "copy"
                                                            : "fault") +
                       "\"";
    if (e.kind == TraceEvent::Kind::kCopy)
      args += ",\"bytes\":" + std::to_string(e.bytes);
    trace.complete(rows.at(e.resource), e.name, e.start_s * 1e6,
                   e.duration_s * 1e6, args);
  }
  if (!trajectory.empty()) {
    // The search clock (simulated hours of candidate evaluation) and the
    // rendered run (one execution, milliseconds) live on different time
    // axes, so incumbent markers are placed proportionally: an improvement
    // at 40% of the search lands at 40% of the rendered run.
    trace.lane(0, "search");
    const double span = trajectory.back().search_time_s;
    for (const TrajectoryPoint& point : trajectory) {
      const double fraction = span > 0.0 ? point.search_time_s / span : 1.0;
      trace.instant(0, "incumbent " + format_seconds(point.best_exec_s),
                    fraction * report.total_seconds * 1e6,
                    "\"best_s\":" + trace_number(point.best_exec_s) +
                        ",\"search_time_s\":" +
                        trace_number(point.search_time_s));
    }
  }
  return trace.str();
}

}  // namespace automap
