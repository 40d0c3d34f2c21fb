#include "src/cli/commands.hpp"

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/automap/automap.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/report/analysis.hpp"
#include "src/report/codegen.hpp"
#include "src/report/explain.hpp"
#include "src/report/journal.hpp"
#include "src/report/profile.hpp"
#include "src/report/visualize.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/algorithms.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/line_reader.hpp"
#include "src/support/metrics.hpp"

namespace automap::cli {

namespace {

/// Reruns `mapping` noise-free with trace recording and emits the requested
/// observability outputs: the profile digest to stdout and/or Chrome-trace
/// JSON to `trace_json_path`.
void emit_observability(const MachineModel& machine, const TaskGraph& graph,
                        const Mapping& mapping, bool profile,
                        const std::string& trace_json_path,
                        const std::vector<TrajectoryPoint>& trajectory = {}) {
  if (!profile && trace_json_path.empty()) return;
  Simulator sim(machine, graph,
                {.iterations = 10, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(mapping, 1);
  AM_REQUIRE(report.ok, "mapping failed to execute: " + report.failure);
  if (profile) {
    std::cout << "\n" << render_profile(graph, compute_profile(graph, report));
  }
  if (!trace_json_path.empty()) {
    save_text(trace_json_path, render_chrome_trace(report, trajectory));
    std::cout << "\nwrote " << trace_json_path
              << " (open in a Chrome-tracing / Perfetto viewer)\n";
  }
}

int cmd_export_machine(const Args& args) {
  const int nodes = to_int<int>(args.pos(1), "nodes");
  const MachineModel machine =
      args.pos(0) == "lassen"        ? make_lassen(nodes)
      : args.pos(0) == "cpu-cluster" ? make_cpu_cluster(nodes)
                                     : make_shepard(nodes);
  save_machine(args.pos(2), machine);
  std::cout << "wrote " << args.pos(2) << "\n" << machine.describe();
  return 0;
}

int cmd_export_app(const Args& args) {
  const std::string& name = args.pos(0);
  AM_REQUIRE(is_app_name(name), "unknown application: " + name);
  const int nodes = to_int<int>(args.pos(1), "nodes");
  const int step = to_int<int>(args.pos(2), "step");
  const BenchmarkApp app = make_app_by_name(name, nodes, step);
  save_task_graph(args.pos(3), app.graph);
  std::cout << "wrote " << args.pos(3) << " (" << app.name << " " << app.input
            << ": " << app.graph.num_tasks() << " tasks, "
            << app.graph.num_collection_args() << " collection args)\n";
  return 0;
}

int cmd_describe(const Args& args) {
  const MachineModel machine = load_machine(args.pos(0));
  const TaskGraph graph = load_task_graph(args.pos(1));
  std::cout << machine.describe() << "\n" << graph.describe();
  return 0;
}

int cmd_search(const Args& args) {
  const MachineModel machine = load_machine(args.pos(0));
  const TaskGraph graph = load_task_graph(args.pos(1));

  std::string algorithm_name = "ccd";
  SearchOptions options{.seed = 42};
  FaultModel faults;
  apply_search_flags(args, algorithm_name, options, faults);
  // 0 = one evaluation lane per hardware thread. Results are bit-identical
  // for every value; only wall-clock time changes.
  options.threads = args.int_or("--threads", options.threads);
  options.checkpoint_path = args.value_or("--checkpoint");

  if (args.has("--dump-options")) {
    // The canonical configuration this invocation would run, ready to be
    // fed back via --options or a service submit request.
    std::cout << search_options_to_json(options) << "\n";
    return 0;
  }

  const std::string out_path = args.value_or("-o");
  const std::string profiles_path = args.value_or("--profiles");
  const std::string trace_json_path = args.value_or("--trace-json");
  const std::string resume_path = args.value_or("--resume");
  const std::string journal_path = args.value_or("--journal");
  const std::string metrics_path = args.value_or("--metrics-out");
  const bool telemetry = args.has("--telemetry");
  const bool profile = args.has("--profile");

  // Every output path is validated before the search starts: a typo'd
  // directory costs milliseconds and one Error line here instead of a
  // finished search whose results cannot be written.
  for (const std::string* path :
       std::initializer_list<const std::string*>{
           &out_path, &profiles_path, &trace_json_path, &journal_path,
           &metrics_path, &options.checkpoint_path}) {
    if (!path->empty()) require_writable_path(*path);
  }

  if (!resume_path.empty()) {
    // Checkpoints carry a checksum trailer; verify before resuming so a
    // torn file (crash mid-write, partial copy) fails with one clear line
    // instead of a confusing parse error deep in the search.
    DurableLoad checkpoint = load_checksummed(resume_path);
    AM_REQUIRE(checkpoint.status != DurableLoad::Status::kMissing,
               "no checkpoint at " + resume_path);
    AM_REQUIRE(checkpoint.status == DurableLoad::Status::kOk,
               "checkpoint " + resume_path +
                   " is torn or corrupt (checksum trailer mismatch)");
    options.resume_state = std::move(checkpoint.payload);
    std::cout << "resuming from checkpoint " << resume_path << "\n";
  }

  if (!profiles_path.empty()) {
    // Resume from a previous search's profiles database if present.
    try {
      options.profiles_seed = load_text(profiles_path);
      std::cout << "seeded profiles database from " << profiles_path << "\n";
    } catch (const Error&) {
      // First run: the file does not exist yet.
    }
  }

  const SearchAlgorithmInfo* algorithm =
      find_search_algorithm(algorithm_name);
  if (algorithm == nullptr) {
    std::cerr << "unknown algorithm: " << algorithm_name << " (expected "
              << search_algorithm_names() << ")\n";
    return 2;
  }

  // Serializing the profiles database costs real time on long searches;
  // only pay for it when --profiles asked to save it.
  options.export_profiles_db = !profiles_path.empty();

  // Observability backends. The journal lives on this frame; the search
  // keeps only a pointer, and null pointers disable all emission. Raw
  // simulator run counters are thread-count-dependent (speculative pool
  // tails), so they are wired only into the final --metrics-out dump,
  // never into the journal.
  std::optional<Journal> journal;
  if (!journal_path.empty()) journal.emplace(journal_path);
  MetricsRegistry metrics;
  const bool want_metrics = journal.has_value() || !metrics_path.empty();
  options.journal = journal.has_value() ? &*journal : nullptr;
  options.metrics = want_metrics ? &metrics : nullptr;

  Simulator sim(machine, graph,
                {.faults = faults,
                 .metrics = metrics_path.empty() ? nullptr : &metrics});
  const SearchResult result = algorithm->run(sim, options);
  if (result.stats.degraded)
    std::cout << "warning: search degraded — finalist protocol was "
                 "unprofilable under the fault rate; reporting the "
                 "best-known incumbent\n";
  if (!profiles_path.empty()) save_text(profiles_path, result.profiles_db);
  std::cout << render_search_summary(result) << "\n\n"
            << result.best.describe(graph);
  if (!metrics_path.empty()) save_text(metrics_path, metrics.expose());
  if (telemetry)
    std::cout << "\n"
              << render_search_telemetry(result, journal_path, metrics_path);
  if (journal.has_value())
    std::cout << "\nwrote " << journal_path
              << " (inspect with: automap_cli explain / replay)\n";
  if (!metrics_path.empty())
    std::cout << (journal.has_value() ? "" : "\n") << "wrote " << metrics_path
              << " (Prometheus text format)\n";
  emit_observability(machine, graph, result.best, profile, trace_json_path,
                     result.trajectory);
  if (!out_path.empty()) {
    save_text(out_path, result.best.serialize());
    std::cout << "\nwrote " << out_path << "\n";
  }
  return 0;
}

int cmd_evaluate(const Args& args) {
  const MachineModel machine = load_machine(args.pos(0));
  const TaskGraph graph = load_task_graph(args.pos(1));
  const Mapping mapping = Mapping::parse(load_text(args.pos(2)), graph);
  const int repeats = args.int_or("--repeats", 31);
  const bool profile = args.has("--profile");
  const std::string trace_json_path = args.value_or("--trace-json");

  Simulator sim(machine, graph, {});
  const double mean = measure_mapping(sim, mapping, repeats, 1);
  std::cout << "mean over " << repeats
            << " runs: " << format_seconds(mean) << "\n";

  DefaultMapper dm;
  const double def =
      measure_mapping(sim, dm.map_all(graph, machine), repeats, 1);
  std::cout << "default mapper: " << format_seconds(def) << " ("
            << format_speedup(def / mean) << " speedup)\n";
  emit_observability(machine, graph, mapping, profile, trace_json_path);
  return 0;
}

int cmd_explain(const Args& args) {
  const TaskGraph graph = load_task_graph(args.pos(0));
  std::cout << render_explain(graph, load_text(args.pos(1)));
  return 0;
}

int cmd_replay(const Args& args) {
  const MachineModel machine = load_machine(args.pos(0));
  const TaskGraph graph = load_task_graph(args.pos(1));
  const std::string journal_text = load_text(args.pos(2));
  const ReplayOutcome outcome = replay_journal(machine, graph, journal_text,
                                               args.int_or("--threads", 1));
  std::cout << outcome.rendering;
  return outcome.drift ? 1 : 0;
}

int cmd_visualize(const Args& args) {
  const MachineModel machine = load_machine(args.pos(0));
  const TaskGraph graph = load_task_graph(args.pos(1));
  const Mapping mapping = Mapping::parse(load_text(args.pos(2)), graph);
  const std::string dot_path = args.value_or("--dot");
  const std::string trace_path = args.value_or("--trace");

  std::cout << render_mapping(graph, mapping);
  if (!dot_path.empty()) {
    save_text(dot_path, render_mapping_dot(graph, mapping));
    std::cout << "\nwrote " << dot_path << " (render with: dot -Tsvg)\n";
  }
  if (!trace_path.empty()) {
    Simulator sim(machine, graph,
                  {.iterations = 10, .noise_sigma = 0.0, .record_trace = true});
    const ExecutionReport report = sim.run(mapping, 1);
    AM_REQUIRE(report.ok, "mapping failed to execute: " + report.failure);
    save_text(trace_path, render_chrome_trace(report));
    std::cout << "wrote " << trace_path
              << " (open in a Chrome-tracing / Perfetto viewer)\n";
  }
  return 0;
}

int cmd_codegen(const Args& args) {
  const TaskGraph graph = load_task_graph(args.pos(0));
  const Mapping mapping = Mapping::parse(load_text(args.pos(1)), graph);
  save_text(args.pos(3), generate_mapper_source(graph, mapping, args.pos(2)));
  std::cout << "wrote " << args.pos(3) << " (class " << args.pos(2) << ")\n";
  return 0;
}

int cmd_validate(const Args& args) {
  const MachineModel machine = load_machine(args.pos(0));
  const TaskGraph graph = load_task_graph(args.pos(1));
  const Mapping mapping = Mapping::parse(load_text(args.pos(2)), graph);

  const auto violations = mapping.violations(graph, machine);
  for (const auto& v : violations) std::cout << "constraint: " << v << "\n";
  if (!violations.empty()) return 1;

  // Capacity dry run: detect out-of-memory without timing anything.
  Simulator sim(machine, graph, {.iterations = 1, .noise_sigma = 0.0});
  const ExecutionReport report = sim.run(mapping, 1);
  if (!report.ok) {
    std::cout << "capacity: " << report.failure << "\n";
    return 1;
  }
  std::cout << "mapping is valid and executable; peak footprints:\n";
  for (const auto& fp : report.footprints) {
    std::cout << "  " << to_string(fp.kind) << ": "
              << format_bytes(fp.peak_instance_bytes) << " / "
              << format_bytes(fp.capacity_bytes) << " per allocation\n";
  }
  return 0;
}

}  // namespace

std::vector<FlagSpec> search_option_flags() {
  return {
      {"--algorithm", "NAME", "search algorithm (" +
                                  std::string(search_algorithm_names()) +
                                  "; default ccd)"},
      {"--options", "FILE", "canonical SearchOptions JSON to start from "
                            "(individual flags override it)"},
      {"--rotations", "N", "CCD/CD rotations (default 5)"},
      {"--repeats", "N", "runs per candidate (default 7)"},
      {"--budget", "S", "simulated search budget in seconds "
                        "(default unlimited)"},
      {"--seed", "N", "search seed (default 42)"},
      {"--no-prune", "", "disable incumbent-bounded candidate pruning "
                         "(results are bit-identical either way)"},
      {"--fallbacks", "", "enable §3.1 memory priority lists"},
      {"--retries", "N", "transient-fault retries per repeat (default 2)"},
      {"--quarantine", "K", "quarantine after K consecutive lost repeats"},
      {"--backoff", "S", "retry backoff quantum (default: machine restart "
                         "overhead)"},
      {"--aggregate", "KIND", "repeat aggregation: mean|median|trimmed"},
      {"--fault-crash", "P", "per-run crash probability"},
      {"--fault-straggler", "P", "per-run straggler probability"},
      {"--fault-straggler-factor", "X", "straggler slowdown factor"},
      {"--fault-oom", "P", "per-run memory-pressure probability"},
      {"--fault-copy", "P", "per-copy fault probability"},
  };
}

void apply_search_flags(const Args& args, std::string& algorithm_name,
                        SearchOptions& options, FaultModel& faults) {
  if (args.has("--options"))
    options = search_options_from_json(load_text(args.value_or("--options")));
  algorithm_name = args.value_or("--algorithm", algorithm_name);
  options.rotations = args.int_or("--rotations", options.rotations);
  options.repeats = args.int_or("--repeats", options.repeats);
  options.time_budget_s = args.num_or("--budget", options.time_budget_s);
  options.seed = args.u64_or("--seed", options.seed);
  if (args.has("--no-prune")) options.prune_candidates = false;
  if (args.has("--fallbacks")) options.memory_fallbacks = true;
  options.resilience.max_retries =
      args.int_or("--retries", options.resilience.max_retries);
  options.resilience.quarantine_after =
      args.int_or("--quarantine", options.resilience.quarantine_after);
  options.resilience.retry_backoff_s =
      args.num_or("--backoff", options.resilience.retry_backoff_s);
  if (args.has("--aggregate")) {
    const std::string name = args.value_or("--aggregate");
    if (name == "mean") {
      options.resilience.aggregation = Aggregation::kMean;
    } else if (name == "median") {
      options.resilience.aggregation = Aggregation::kMedian;
    } else if (name == "trimmed") {
      options.resilience.aggregation = Aggregation::kTrimmedMean;
    } else {
      throw Error("unknown aggregation: " + name +
                  " (expected mean|median|trimmed)");
    }
  }
  faults.crash_prob = args.num_or("--fault-crash", faults.crash_prob);
  faults.straggler_prob =
      args.num_or("--fault-straggler", faults.straggler_prob);
  faults.straggler_factor =
      args.num_or("--fault-straggler-factor", faults.straggler_factor);
  faults.mem_pressure_prob =
      args.num_or("--fault-oom", faults.mem_pressure_prob);
  faults.copy_fault_prob = args.num_or("--fault-copy", faults.copy_fault_prob);
}

void register_core_commands(CommandRegistry& registry) {
  registry.add({.name = "export-machine",
                .positionals = "<shepard|lassen|cpu-cluster> <nodes> <out>",
                .summary = "write a machine-model file for a paper machine",
                .min_positional = 3,
                .max_positional = 3,
                .flags = {},
                .run = cmd_export_machine});
  registry.add({.name = "export-app",
                .positionals = "<app> <nodes> <step> <out>",
                .summary = "write a benchmark application's task graph",
                .min_positional = 4,
                .max_positional = 4,
                .flags = {},
                .run = cmd_export_app});
  registry.add({.name = "describe",
                .positionals = "<machine> <graph>",
                .summary = "print machine and task-graph structure",
                .min_positional = 2,
                .max_positional = 2,
                .flags = {},
                .run = cmd_describe});

  std::vector<FlagSpec> search_flags = search_option_flags();
  search_flags.insert(
      search_flags.end(),
      {{"--threads", "N", "evaluation lanes (0 = hardware threads; results "
                          "are bit-identical for every value)"},
       {"--dump-options", "", "print the canonical SearchOptions JSON and "
                              "exit without searching"},
       {"-o", "FILE", "write the best mapping"},
       {"--profiles", "FILE", "seed from / save the profiles database"},
       {"--trace-json", "FILE", "write a Chrome trace of the best mapping"},
       {"--telemetry", "", "print search telemetry digest"},
       {"--profile", "", "print the best mapping's execution profile"},
       {"--checkpoint", "FILE", "write periodic checkpoints"},
       {"--resume", "FILE", "resume from a checkpoint"},
       {"--journal", "FILE", "write the provenance journal (JSONL)"},
       {"--metrics-out", "FILE", "write Prometheus-format metrics"}});
  registry.add({.name = "search",
                .positionals = "<machine> <graph>",
                .summary = "offline mapping search (paper §3.3)",
                .min_positional = 2,
                .max_positional = 2,
                .flags = std::move(search_flags),
                .run = cmd_search});

  registry.add({.name = "evaluate",
                .positionals = "<machine> <graph> <mapping>",
                .summary = "measure a mapping against the default mapper",
                .min_positional = 3,
                .max_positional = 3,
                .flags = {{"--repeats", "N", "runs to average (default 31)"},
                          {"--profile", "", "print the execution profile"},
                          {"--trace-json", "FILE", "write a Chrome trace"}},
                .run = cmd_evaluate});
  registry.add({.name = "explain",
                .positionals = "<graph> <journal.jsonl>",
                .summary = "render per-decision provenance from a journal",
                .min_positional = 2,
                .max_positional = 2,
                .flags = {},
                .run = cmd_explain});
  registry.add({.name = "replay",
                .positionals = "<machine> <graph> <journal.jsonl>",
                .summary = "re-run a journaled search and report drift",
                .min_positional = 3,
                .max_positional = 3,
                .flags = {{"--threads", "N", "evaluation lanes for the "
                                             "re-run (default 1)"}},
                .run = cmd_replay});
  registry.add({.name = "visualize",
                .positionals = "<machine> <graph> <mapping>",
                .summary = "render a mapping (text, DOT, Chrome trace)",
                .min_positional = 3,
                .max_positional = 3,
                .flags = {{"--dot", "FILE", "write Graphviz DOT"},
                          {"--trace", "FILE", "write a Chrome trace"}},
                .run = cmd_visualize});
  registry.add({.name = "codegen",
                .positionals = "<graph> <mapping> <ClassName> <out.cpp>",
                .summary = "generate a C++ mapper class from a mapping",
                .min_positional = 4,
                .max_positional = 4,
                .flags = {},
                .run = cmd_codegen});
  registry.add({.name = "validate",
                .positionals = "<machine> <graph> <mapping>",
                .summary = "check constraints and memory capacity",
                .min_positional = 3,
                .max_positional = 3,
                .flags = {},
                .run = cmd_validate});
}

}  // namespace automap::cli
