#pragma once

// Text serialization of machine models and task graphs.
//
// This implements the paper's usage model (§3.3): AutoMap's input is "a
// file containing the search space and machine model representation",
// generated by profiling the application once. Applications export their
// lowered task graph (the search space) and machine description; the
// offline driver (tools/automap_cli) then searches without ever touching
// application code.
//
// Both formats are line-oriented key-value text designed for
// hand-inspection and diff-ability; parse errors carry line numbers.

#include <iosfwd>
#include <string>

#include "src/machine/machine.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

/// Writes a machine model in the text format.
void write_machine(std::ostream& os, const MachineModel& machine);
[[nodiscard]] std::string machine_to_string(const MachineModel& machine);

/// Parses a machine model. Throws Error with a line number on malformed
/// input; the result is validate()d before being returned.
[[nodiscard]] MachineModel machine_from_string(const std::string& text);

/// Writes a task graph (the "search space file" of §3.3): regions,
/// collections, group tasks with costs and privileges, and dependence
/// edges.
void write_task_graph(std::ostream& os, const TaskGraph& graph);
[[nodiscard]] std::string task_graph_to_string(const TaskGraph& graph);

/// Parses a task graph; validates before returning.
[[nodiscard]] TaskGraph task_graph_from_string(const std::string& text);

// File-level helpers (throw Error on I/O failure).
void save_machine(const std::string& path, const MachineModel& machine);
[[nodiscard]] MachineModel load_machine(const std::string& path);
void save_task_graph(const std::string& path, const TaskGraph& graph);
[[nodiscard]] TaskGraph load_task_graph(const std::string& path);
void save_text(const std::string& path, const std::string& text);
[[nodiscard]] std::string load_text(const std::string& path);

/// Validates that `path` can be created/appended as a file *now* — the
/// up-front check the CLI runs on every output flag (mapping, journal,
/// metrics, trace, checkpoint) before a long search starts, so a typo'd
/// directory fails in milliseconds instead of after the search. Throws
/// Error naming the path. A probe file created by the check is removed;
/// an existing file is left untouched.
void require_writable_path(const std::string& path);

}  // namespace automap
