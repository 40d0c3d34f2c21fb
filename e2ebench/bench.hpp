#pragma once

// Shared types of the end-to-end benchmark: the workload and metric tables,
// the generated inputs, and the outcome each workload fills in.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace e2e {

struct MetricSpec {
  std::string name;
  std::string unit;
};

[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

enum class Kind { kSearch, kRobust, kDurable, kService };

/// One workload: how it searches and which tail percentiles it reports.
/// Each tail is fixed per workload so a faster program does not change
/// which percentile is compared; the run lasts until every tail has at
/// least 10 samples above it (and at least --seconds).
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kSearch;
  double cold_tail = 90;
  double cached_tail = 90;
  /// Result reads issued per computed request in the closed loop.
  int cached_per_cold = 1;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

struct Config {
  WorkloadSpec workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli_path;  // automap_cli, run as the daemon
  std::string out_dir;   // scratch files, inside the checkout
  int nproc = 1;
};

/// Threads of the benchmark's parallel searches (search_robust and the
/// pool probes): half the host's processors. At all of them, a processor
/// taken by another virtual machine on a shared host stalls every batch,
/// and the same code's figures spread past the benchmark's bounds.
[[nodiscard]] int parallel_threads(const Config& config);

using Metrics = std::map<std::string, double>;

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  Metrics metrics;
  /// Calibration kernel times taken while the program was idle, for
  /// scale_to_reference_speed (the in-process loops pair their own).
  std::vector<double> calibration_s;

  void fail(const std::string& what);
};

/// One search request: a generated app on the generated machine, parsed
/// back from text as a user loading the files would, with its Simulator.
struct Request {
  std::uint64_t id = 0;  // tags the request's spans
  std::string app;
  std::string machine_text;
  std::string graph_text;
  std::optional<automap::MachineModel> machine;  // set once parsed
  automap::TaskGraph graph;
  automap::SimOptions sim;
  std::unique_ptr<automap::Simulator> simulator;
  /// The deterministic options (seed, aggregation); runtime wiring such as
  /// threads or checkpoint paths is added by each workload.
  automap::SearchOptions options;
};
/// Requests hold Simulators that reference their own machine and graph,
/// so they are kept behind pointers that never move.
using RequestSet = std::vector<std::unique_ptr<Request>>;

struct RequestSpec {
  std::string app;
  std::uint64_t seed = 0;
};

struct SetupTimes {
  double generate_ms = 0;
  double parse_ms = 0;
  double sim_ctor_ms = 0;
};

/// Generates, renders, parses and builds every request. `aggregation`
/// goes into each request's options.
[[nodiscard]] RequestSet build_requests(
    const std::vector<RequestSpec>& specs, automap::Aggregation aggregation,
    SetupTimes& times);

/// Per-search seed derived from the workload seed, a tag and an index.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        const std::string& tag,
                                        std::uint64_t index);

/// The in-process workloads' requests: every app, with the seeds of the
/// loop's first round (each later round derives new ones).
[[nodiscard]] std::vector<RequestSpec> search_set(std::uint64_t seed);

[[nodiscard]] double now_s();
/// Seconds a fixed CPU kernel of the benchmark's own takes now, run on
/// `threads` threads at once (median of three). It calls nothing in the
/// library, so no change to the program moves it; only the host's speed
/// does. A workload calibrates with as many threads as it keeps busy: on
/// a shared virtual machine a lost virtual CPU slows a parallel workload
/// far more than a serial one.
[[nodiscard]] double calibration_sample_s(int threads);

/// Host-time figures are scaled to the host speed at which the calibration
/// kernel takes kReferenceCalibrationS, so that two runs on a host whose
/// speed drifts (other virtual machines, frequency changes) compare the
/// program rather than the moment. Simulated times and memory are not
/// scaled. The raw figures are printed beside them.
inline constexpr double kReferenceCalibrationS = 0.010;

/// Factor that scales a host time measured between two calibration
/// samples to the reference speed (rates are divided by it). The speed of
/// a shared host drifts over seconds, so each stretch of work is scaled by
/// the samples taken right before and right after it.
[[nodiscard]] double speed_factor(double before_s, double after_s);

struct SetupTiming {
  double scaled_s = 0;  // median set-up time at the reference speed
  double raw_s = 0;     // median as measured
};

/// Runs `setup`, which returns the seconds its set-up took (tearing down
/// the previous one is not counted), `groups` × `per_group` times. Each
/// group is timed between two one-thread calibration samples (set-up is
/// serial in every workload); the medians over groups of the mean set-up
/// time are returned. A single in-process set-up takes a few milliseconds
/// and falls into one of two modes about a millisecond apart, so a median
/// over single set-ups jumps between them; a group's mean does not.
[[nodiscard]] SetupTiming time_setups(int groups, int per_group,
                                      const std::function<double()>& setup);

/// Scales the host-time figures of `out.metrics` by the median of
/// `out.calibration_s` (the service, which cannot pause its daemon between
/// requests to calibrate, samples before and after its loop).
void scale_to_reference_speed(Outcome& out);

/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");

/// Prints traced minus untraced for each end-to-end figure of a loop.
void print_overhead(const Metrics& untraced, const Metrics& traced);

/// The workloads.
void run_inprocess(const Config& config, Outcome& out);
void run_service(const Config& config, Outcome& out);

/// Per-layer probes over `set`, shared by every workload's traced run:
/// sim, search, pool, checkpoint and journal metrics. `threads` and the
/// requests' aggregation are the workload's own; `durable` adds the
/// checkpoint and journal cost to the workload's own path.
void measure_search_layers(const Config& config, const RequestSet& set,
                           int threads, bool durable, Outcome& out);

/// Per-layer service metrics from a short daemon session over `set`: each
/// request submitted once and then read back from the result cache.
void measure_service_session(const Config& config, const RequestSet& set,
                             int threads, Outcome& out);

}  // namespace e2e
