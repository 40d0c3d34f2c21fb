#include "src/search/extra_algorithms.hpp"

#include <algorithm>
#include <cmath>

#include "src/search/coordinate_descent.hpp"
#include "src/support/error.hpp"

namespace automap {

namespace {

/// Uniform valid mapping: processor among the task's variants, memory among
/// the kinds addressable from that processor.
Mapping random_valid_mapping(const TaskGraph& graph,
                             const MachineModel& machine, Rng& rng) {
  Mapping mapping(graph);
  for (const GroupTask& task : graph.tasks()) {
    TaskMapping& tm = mapping.at(task.id);
    tm.distribute = rng.bernoulli(0.5);
    tm.proc = (task.cost.has_gpu_variant() &&
               machine.has_proc_kind(ProcKind::kGpu) && rng.bernoulli(0.5))
                  ? ProcKind::kGpu
                  : ProcKind::kCpu;
    const auto mems = machine.memories_addressable_by(tm.proc);
    for (auto& priority : tm.arg_memories)
      priority = {mems[rng.uniform_index(mems.size())]};
  }
  return mapping;
}

/// Mutates `count` dimensions, keeping the mapping valid (memory choices
/// follow the processor's addressability; a processor flip re-homes
/// now-unaddressable arguments).
void mutate_valid(Mapping& mapping, const TaskGraph& graph,
                  const MachineModel& machine, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const TaskId t(rng.uniform_index(graph.num_tasks()));
    const GroupTask& task = graph.task(t);
    TaskMapping& tm = mapping.at(t);
    const std::size_t dims = 2 + tm.arg_memories.size();
    const std::size_t dim = rng.uniform_index(dims);
    if (dim == 0) {
      tm.distribute = !tm.distribute;
      if (!tm.distribute) tm.blocked = false;
    } else if (dim == 1) {
      const ProcKind other =
          tm.proc == ProcKind::kCpu ? ProcKind::kGpu : ProcKind::kCpu;
      if (other == ProcKind::kGpu &&
          (!task.cost.has_gpu_variant() ||
           !machine.has_proc_kind(ProcKind::kGpu)))
        continue;
      tm.proc = other;
      for (auto& priority : tm.arg_memories) {
        if (!priority.empty() &&
            !machine.addressable(tm.proc, priority.front()))
          priority = {machine.best_memory_for(tm.proc)};
      }
    } else {
      const auto mems = machine.memories_addressable_by(tm.proc);
      tm.arg_memories[dim - 2] = {mems[rng.uniform_index(mems.size())]};
    }
  }
}

}  // namespace

SearchResult run_random_search(const Simulator& sim,
                               const SearchOptions& options) {
  Evaluator eval(sim, options);
  Rng rng(mix64(options.seed) ^ 0x2545f4914f6cdd1dULL);
  const Mapping start = search_starting_point(sim.graph(), sim.machine());
  eval.journal_search_begin("AM-Random", start);
  (void)eval.evaluate(start);
  // Random search has no natural end; without a budget, sample as many
  // candidates as a five-rotation CCD would propose.
  const std::size_t cap = std::isfinite(options.time_budget_s)
                              ? std::size_t{1} << 20
                              : 2500;
  // Proposals are independent of evaluation results, so random search is
  // the ideal batch customer: draw a block of candidates, submit it whole.
  // evaluate_batch folds with the same per-candidate budget checks the
  // serial loop made, so results are bit-identical to one-at-a-time
  // evaluation for every block size and thread count.
  constexpr std::size_t kBlock = 64;
  for (std::size_t i = 0; i < cap && !eval.budget_exhausted();) {
    const std::size_t block = std::min(kBlock, cap - i);
    std::vector<Mapping> batch;
    batch.reserve(block);
    for (std::size_t b = 0; b < block; ++b) {
      Mapping candidate =
          random_valid_mapping(sim.graph(), sim.machine(), rng);
      for (const TaskId t : options.frozen_tasks)
        candidate.at(t) = start.at(t);
      batch.push_back(std::move(candidate));
    }
    // Random search never compares candidates against each other — only
    // the finalist list matters — so the interest bound is zero and the
    // evaluator censors at the k-th finalist mean.
    const std::size_t folded =
        eval.evaluate_batch(batch, /*interest_bound_s=*/0.0).size();
    if (folded < batch.size()) break;  // budget ran out mid-block
    i += folded;
  }
  return eval.finalize("AM-Random");
}

SearchResult run_simulated_annealing(const Simulator& sim,
                                     const SearchOptions& options,
                                     const AnnealingConfig& config) {
  AM_REQUIRE(config.initial_temperature > 0.0, "temperature must be > 0");
  AM_REQUIRE(config.cooling > 0.0 && config.cooling < 1.0,
             "cooling must be in (0, 1)");
  Evaluator eval(sim, options);
  Rng rng(mix64(options.seed) ^ 0x94d049bb133111ebULL);

  Mapping current = search_starting_point(sim.graph(), sim.machine());
  eval.journal_search_begin("AM-Anneal", current);
  double current_cost = eval.evaluate(current);
  AM_CHECK(std::isfinite(current_cost), "starting point failed to execute");

  double temperature = config.initial_temperature * current_cost;
  const std::size_t cap = std::isfinite(options.time_budget_s)
                              ? std::size_t{1} << 20
                              : 2500;
  for (std::size_t i = 0; i < cap && !eval.budget_exhausted(); ++i) {
    Mapping candidate = current;
    mutate_valid(candidate, sim.graph(), sim.machine(), rng,
                 config.mutations);
    for (const TaskId t : options.frozen_tasks)
      candidate.at(t) = current.at(t);
    const double cost = eval.evaluate(candidate);
    const bool accept =
        cost < current_cost ||
        (std::isfinite(cost) &&
         rng.uniform() < std::exp((current_cost - cost) / temperature));
    if (accept) {
      current = std::move(candidate);
      current_cost = cost;
    }
    temperature *= config.cooling;
  }
  return eval.finalize("AM-Anneal");
}

SearchResult run_heft_static(const Simulator& sim,
                             const SearchOptions& options) {
  Evaluator eval(sim, options);
  const TaskGraph& graph = sim.graph();
  const MachineModel& machine = sim.machine();

  Mapping mapping = search_starting_point(graph, machine);
  const FrozenTaskSet frozen(options.frozen_tasks, graph.num_tasks());
  for (const GroupTask& task : graph.tasks()) {
    if (frozen.contains(task.id)) continue;
    TaskMapping& tm = mapping.at(task.id);
    tm.distribute = true;

    // Static per-kind estimate: wave-compute plus memory traffic from the
    // kind's single (best) memory — precisely the "one memory per
    // processor" model of HEFT-era schedulers (§6).
    double best_estimate = std::numeric_limits<double>::infinity();
    for (const ProcKind k : machine.proc_kinds()) {
      if (k == ProcKind::kGpu && !task.cost.has_gpu_variant()) continue;
      const ProcGroup& pg = machine.proc_group(k);
      const double per_point = k == ProcKind::kGpu
                                   ? task.cost.gpu_seconds_per_point
                                   : task.cost.cpu_seconds_per_point;
      const double waves = std::ceil(static_cast<double>(task.num_points) /
                                     pg.count_per_node);
      double estimate =
          waves * (pg.launch_overhead_s + per_point / pg.speed);
      const MemKind mem = machine.best_memory_for(k);
      for (const CollectionUse& use : task.args) {
        estimate += static_cast<double>(graph.collection_bytes(
                        use.collection)) *
                    use.access_fraction /
                    machine.affinity(k, mem).bandwidth_bytes_per_s;
      }
      if (estimate < best_estimate) {
        best_estimate = estimate;
        tm.proc = k;
      }
    }
    tm.arg_memories.assign(task.args.size(),
                           {machine.best_memory_for(tm.proc)});
  }

  eval.journal_search_begin("HEFT-static", mapping);
  (void)eval.evaluate(mapping);
  return eval.finalize("HEFT-static");
}

SearchResult run_ccd_multistart(const Simulator& sim,
                                const SearchOptions& options,
                                int extra_starts) {
  AM_REQUIRE(extra_starts >= 0, "negative extra start count");
  Rng rng(mix64(options.seed) ^ 0xd6e8feb86659fd93ULL);

  // First pass from the §4.1 starting point; each further pass begins from
  // a random valid mapping and inherits the accumulated profiles database,
  // so re-proposed candidates are free and the finalist pool spans every
  // pass. The passes always export their database (that is the chaining
  // mechanism), whatever the caller asked for the final result.
  SearchOptions chained = options;
  chained.export_profiles_db = true;
  SearchResult result = run_ccd(sim, chained);
  SearchStats combined = result.stats;

  for (int s = 0; s < extra_starts; ++s) {
    if (std::isfinite(options.time_budget_s) &&
        combined.search_time_s >= options.time_budget_s)
      break;
    SearchOptions next = chained;
    next.seed = rng.next();
    next.profiles_seed = result.profiles_db;
    if (std::isfinite(options.time_budget_s))
      next.time_budget_s = options.time_budget_s - combined.search_time_s;
    const Mapping start =
        random_valid_mapping(sim.graph(), sim.machine(), rng);
    result = run_ccd_from(sim, next, start);
    for (const SearchCounter& c : kSearchCounters)
      combined.*c.field += result.stats.*c.field;
    combined.degraded = combined.degraded || result.stats.degraded;
    combined.search_time_s += result.stats.search_time_s;
    combined.evaluation_time_s += result.stats.evaluation_time_s;
  }

  result.algorithm = "AM-CCD-multistart";
  result.stats = combined;
  if (!options.export_profiles_db) result.profiles_db.clear();
  return result;
}

}  // namespace automap
