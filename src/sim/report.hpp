#pragma once

// Execution reports produced by the simulator — the "performance profiles"
// AutoMap's dynamic analysis consumes (paper §3, Figure 4).

#include <cstdint>
#include <string>
#include <vector>

#include "src/machine/kinds.hpp"
#include "src/support/id.hpp"

namespace automap {

/// Per-group-task measurements for one run.
struct TaskReport {
  TaskId task;
  /// Processor kind the task executed on.
  ProcKind proc = ProcKind::kCpu;
  /// Busy time of the task's processor pool per iteration (seconds).
  double compute_seconds = 0.0;
  /// Time spent waiting on incoming copies per iteration (seconds).
  double copy_wait_seconds = 0.0;
  /// Share of compute_seconds that is per-wave launch overhead (seconds per
  /// iteration, before noise) — the term the profile module splits out.
  double launch_overhead_seconds = 0.0;
  /// Share of compute_seconds that is the mapping-independent per-launch
  /// runtime cost (seconds per iteration, before noise).
  double runtime_overhead_seconds = 0.0;
};

/// Memory-kind footprint actually allocated by a run.
struct MemoryFootprint {
  MemKind kind = MemKind::kSystem;
  /// Peak bytes resident in the fullest single allocation of this kind.
  std::uint64_t peak_instance_bytes = 0;
  /// Capacity of one allocation of this kind.
  std::uint64_t capacity_bytes = 0;
};

/// One scheduled activity of a run, for timeline visualization. Only
/// recorded when SimOptions::record_trace is set.
struct TraceEvent {
  /// kFault events annotate injected faults (straggler inflation, crash
  /// points, copy re-issues); their window overlaps the affected task/copy
  /// event, so consumers must not count them toward resource busy time.
  enum class Kind : std::uint8_t { kTask, kCopy, kFault };
  Kind kind = Kind::kTask;
  /// Task name, or "src->dst" channel description for copies.
  std::string name;
  /// "GPU"/"CPU" pool, intra-node channel, or the shared "network" row.
  std::string resource;
  int iteration = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  /// Bytes moved (copies only; 0 for task events).
  std::uint64_t bytes = 0;
};

/// Tally of the faults the simulator injected into one run (all zero when
/// SimOptions::faults is disabled).
struct FaultCounts {
  /// Transient task crashes (each aborts the run).
  int crashes = 0;
  /// Straggler events (task duration multiplied, run continues).
  int stragglers = 0;
  /// Transient memory-pressure windows observed (fatal only when the
  /// mapping's peak footprint exceeds the reduced capacity).
  int mem_pressure = 0;
  /// Copy legs that failed once and were re-issued.
  int copy_retries = 0;
  /// Simulated seconds consumed by fault effects: straggler inflation,
  /// partial work lost to a crash, and re-issued copy attempts.
  double lost_seconds = 0.0;

  [[nodiscard]] int total() const {
    return crashes + stragglers + mem_pressure + copy_retries;
  }
};

/// Result of simulating one execution of the application under a mapping.
struct ExecutionReport {
  /// True when every collection argument found a memory with capacity; when
  /// false the run failed with an out-of-memory error and the timing fields
  /// are meaningless (the driver skips such mappings, §5.2).
  bool ok = false;
  std::string failure;
  /// Set (with ok == false) when the failure was an injected transient
  /// fault — a retry with a different seed may succeed, unlike the
  /// deterministic placement-time OOM above. `total_seconds` then holds the
  /// simulated clock at the abort (work a retrying driver has to pay for).
  bool transient = false;

  /// True when the run was abandoned because the simulated clock provably
  /// exceeded the caller's time bound (incumbent-bounded pruning). The run
  /// still counts as ok; `total_seconds` then holds the clock value that
  /// crossed the bound — a strict lower bound on the true makespan — and
  /// every other field is partial and must not be consumed.
  bool censored = false;
  /// The bound a censored run was cut at (infinity when unbounded).
  double time_bound = 0.0;

  /// End-to-end wall time of the simulated run (seconds); for censored
  /// runs, the bound-crossing clock value (a lower bound on the true
  /// makespan).
  double total_seconds = 0.0;
  /// Main-loop iterations executed.
  int iterations = 0;
  /// Scheduling events the run processed: one per task execution (crashed
  /// and bound-crossing tasks included — their work was performed) plus one
  /// per copy leg. The true denominator of simulator throughput
  /// (events/second), reported by the BM_SimThroughput* benchmarks and the
  /// automap_sim_events_total counter.
  std::uint64_t events = 0;

  /// Bytes moved by inferred copies, per iteration.
  std::uint64_t intra_node_copy_bytes = 0;
  std::uint64_t inter_node_copy_bytes = 0;

  /// Estimated processor energy of the whole run (busy time x per-instance
  /// power, plus a fixed per-byte cost for copies) — the alternative
  /// objective of §3.3.
  double energy_joules = 0.0;

  std::vector<TaskReport> tasks;
  std::vector<MemoryFootprint> footprints;

  /// Count of collection arguments that were demoted to a lower-priority
  /// memory kind because the first choice was full (§3.1 priority lists).
  int demoted_args = 0;

  /// Injected-fault tally for this run (zeros when fault injection is off).
  FaultCounts faults;

  /// Timeline events; empty unless SimOptions::record_trace.
  std::vector<TraceEvent> trace;
};

}  // namespace automap
