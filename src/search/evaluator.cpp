#include "src/search/evaluator.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "src/report/journal.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/line_reader.hpp"
#include "src/support/metrics.hpp"
#include "src/support/rng.hpp"

namespace automap {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kMaxInt = std::numeric_limits<int>::max();
// Domain-separation salts: search-time evaluation runs and finalist-protocol
// reruns of the same mapping must see independent noise streams.
constexpr std::uint64_t kEvalSalt = 0x5bf03635f0a5a1edULL;
constexpr std::uint64_t kFinalSalt = 0xa0761d6478bd642fULL;
// Help text of the candidate metric automap_candidates_<name>_total for
// each kSearchCounters entry; null where the counter is no candidate metric.
constexpr const char* kCandidateMetricHelp[] = {
    "Candidate mappings proposed",
    "Candidate mappings executed",
    "Candidates rejected as invalid",
    "Candidates that ran out of memory",
    "Candidates censored at the batch threshold",
    "Candidates answered from the profiles database",
    nullptr,
    nullptr,
    "Candidates quarantined by the resilience policy"};
static_assert(std::size(kCandidateMetricHelp) == std::size(kSearchCounters));

/// Appends `value` in its shortest exact form ("inf" when infinite).
void append_number(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}
}  // namespace

Evaluator::Evaluator(const Simulator& sim, const SearchOptions& options)
    : sim_(sim), options_(options), best_seconds_(kInf),
      wall_start_(std::chrono::steady_clock::now()) {
  AM_REQUIRE(options_.repeats > 0, "repeats must be positive");
  AM_REQUIRE(options_.rotations > 0, "rotations must be positive");
  AM_REQUIRE(options_.top_k > 0, "top_k must be positive");
  AM_REQUIRE(options_.final_repeats >= 1, "final_repeats must be positive");
  AM_REQUIRE(options_.threads >= 0, "threads must be >= 0");
  AM_REQUIRE(options_.resilience.max_retries >= 0,
             "max_retries must be >= 0");
  AM_REQUIRE(options_.resilience.quarantine_after >= 0,
             "quarantine_after must be >= 0");
  if (options_.shared_pool != nullptr) {
    // Service mode: batches ride an externally owned pool shared with
    // other concurrent searches; `threads` is ignored for pool sizing.
    if (options_.shared_pool->thread_count() > 1)
      pool_ = options_.shared_pool;
  } else {
    const int threads = options_.threads == 0
                            ? ThreadPool::hardware_threads()
                            : options_.threads;
    if (threads > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(threads);
      pool_ = owned_pool_.get();
    }
  }
  // One reusable simulation arena per pool lane (lane 0 doubles as the
  // serial path's arena), so steady-state evaluation allocates nothing.
  scratches_.resize(
      pool_ ? static_cast<std::size_t>(pool_->thread_count()) : 1);
  if (!options_.profiles_seed.empty())
    import_profiles(options_.profiles_seed);

  // Observability handles. All instruments below are updated exclusively
  // on the serial fold side, so they are deterministic (thread-count
  // invariant) and eligible for journal snapshots.
  journal_ = options_.journal;
  metrics_ = options_.metrics;
  if (metrics_) {
    // Registered in kSearchCounters order, which fixes the key order of the
    // journal's metrics snapshots.
    for (std::size_t i = 0; i < std::size(kSearchCounters); ++i)
      if (kCandidateMetricHelp[i] != nullptr)
        m_counters_[i] = metrics_->counter(
            std::string("automap_candidates_") + kSearchCounters[i].name +
                "_total",
            kCandidateMetricHelp[i]);
    m_search_clock_ = metrics_->gauge("automap_search_clock_seconds",
                                      "Simulated search clock");
    m_best_seconds_ = metrics_->gauge("automap_best_seconds",
                                      "Incumbent objective value");
    m_candidate_mean_ = metrics_->histogram(
        "automap_candidate_mean_seconds",
        "Recorded candidate objective values (seconds)",
        {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
         300.0, 1000.0});
  }
}

std::uint64_t Evaluator::run_seed(std::uint64_t mapping_hash, int repeat,
                                  int attempt, std::uint64_t salt) const {
  // Order-independent derivation: a run's noise depends only on the search
  // seed, the candidate's structural hash, the repeat index and the retry
  // attempt — never on how many candidates were evaluated before it or on
  // which thread it ran. Attempt 0 reproduces the historical derivation
  // exactly, so fault-free searches are bit-identical to builds that
  // predate the retry machinery.
  std::uint64_t s = mix64(options_.seed ^ salt);
  s = mix64(s ^ mapping_hash);
  if (attempt > 0)
    s = mix64(s ^
              (0x94d049bb133111ebULL * static_cast<std::uint64_t>(attempt)));
  return mix64(s +
               0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(repeat + 1));
}

double Evaluator::retry_backoff(int attempt) const {
  // Budget-aware backoff: each re-attempt charges the restart quantum,
  // doubled per attempt — a real fault-tolerant driver pays process respawn
  // and runtime re-initialization before every relaunch.
  const double quantum = options_.resilience.retry_backoff_s >= 0.0
                             ? options_.resilience.retry_backoff_s
                             : sim_.machine().restart_overhead();
  return quantum * static_cast<double>(1ULL << std::min(attempt, 62));
}

double Evaluator::aggregate_objective(double sum, int survivors,
                                     std::vector<double> values) const {
  AM_CHECK(survivors > 0, "aggregating a candidate with no survivors");
  const double n = static_cast<double>(survivors);
  switch (options_.resilience.aggregation) {
    case Aggregation::kMean:
      return sum / n;
    case Aggregation::kMedian: {
      std::sort(values.begin(), values.end());
      const std::size_t m = values.size() / 2;
      return values.size() % 2 == 1 ? values[m]
                                    : 0.5 * (values[m - 1] + values[m]);
    }
    case Aggregation::kTrimmedMean: {
      // Drop the single min and max; degenerates to the mean below three
      // survivors (nothing left to trim).
      if (survivors < 3) return sum / n;
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      return (sum - *lo - *hi) / (n - 2.0);
    }
  }
  AM_CHECK(false, "unknown aggregation");
  return kInf;
}

const ExecutionReport* Evaluator::run_repeat(const Mapping& candidate,
                                             std::uint64_t key, int repeat,
                                             std::uint64_t salt,
                                             double bound_s,
                                             SimScratch& scratch,
                                             Charge& charge) const {
  for (int attempt = 0;; ++attempt) {
    const ExecutionReport& report = sim_.run_prepared(
        candidate, run_seed(key, repeat, attempt, salt), scratch, bound_s);
    if (report.ok) return &report;
    // Deterministic failures (OOM) surface in begin_runs; a prepared run
    // fails only by an injected transient fault. The clock paid for the
    // partial run and the abort observation.
    AM_CHECK(report.transient, "a prepared run failed deterministically");
    ++charge.transient_failures;
    charge.seconds += report.total_seconds + failure_observation_cost();
    if (attempt >= options_.resilience.max_retries) return nullptr;
    ++charge.retries;
    charge.seconds += retry_backoff(attempt);
  }
}

Evaluator::CandOutcome Evaluator::run_candidate(const Mapping& candidate,
                                                std::uint64_t key,
                                                double threshold_s,
                                                bool bound_runs,
                                                SimScratch& scratch) const {
  // Racing schedule against the censor threshold T: after k completed runs
  // the candidate is censored when its running sum exceeds
  //
  //   B_k = min(k*T*(1 + 3*sigma/sqrt(k)),  repeats*T)
  //
  // The first term is a confidence line — a candidate whose true mean is
  // at most T crosses it with probability ~Phi(-3) per prefix under the
  // simulator's log-normal per-run noise, so real improvements survive
  // while a candidate 2x worse than the incumbent is cut after a single
  // run instead of burning its full repeat budget. The second term is the
  // exactness cap: sum > repeats*T alone already proves mean > T, and
  // because B_repeats equals the cap, an *uncensored* candidate always has
  // a provably exact mean <= T (no false accepts at the last run). With
  // sigma = 0 the line collapses to k*T and the race is exact.
  //
  // Run r executes under a simulated-time bound of B_{r+1} - sum, so with
  // pruning on the simulator abandons the run the moment the verdict is
  // determined and the trailing repeats are skipped. With pruning off the
  // runs execute unbounded but the same verdict and charge are computed
  // from their totals (a post-censor run charges and contributes nothing),
  // so both modes produce the same CandOutcome bit for bit.
  CandOutcome out;
  // One validation + memory resolution serves every repeat: placement is
  // noise-independent, so begin_runs hoists it out of the repeat loop. A
  // failure here is an OOM (constraint-1 validity was already checked at
  // plan time). An OOM surfaces before the event loop, so censoring never
  // masks it; it still costs the machine-derived observation cost.
  if (!sim_.begin_runs(candidate, scratch)) {
    out.verdict = Verdict::kOom;
    out.charge.seconds = failure_observation_cost();
    return out;
  }
  const ResiliencePolicy& policy = options_.resilience;
  const bool inject = sim_.options().faults.enabled();
  const bool robust = policy.aggregation != Aggregation::kMean;
  // The censoring race bounds the running *sum*, which only the mean can
  // interpret; the robust aggregations need every survivor's value, so
  // censoring is disabled for them (every repeat runs to completion).
  const double race_threshold_s = robust ? kInf : threshold_s;
  const double repeats_d = static_cast<double>(options_.repeats);
  const double slack = 3.0 * sim_.options().noise_sigma;
  double sum = 0.0;
  int consecutive_lost = 0;
  for (int r = 0; r < options_.repeats; ++r) {
    double allowance = kInf;  // what this run may add before censoring
    if (std::isfinite(race_threshold_s)) {
      const double k = static_cast<double>(r + 1);
      const double line =
          std::min(k * race_threshold_s * (1.0 + slack / std::sqrt(k)),
                   repeats_d * race_threshold_s);
      allowance = line - sum;  // >= 0: the schedule is nondecreasing
    }
    // Under fault injection every run executes unbounded: a bounded abort
    // at the censor line would mask a crash draw the fault stream
    // scheduled past it, making prune on/off observably different. The
    // censor verdict is still computed from the totals below.
    const ExecutionReport* report =
        run_repeat(candidate, key, r, kEvalSalt,
                   (bound_runs && !inject) ? allowance : kInf, scratch,
                   out.charge);
    if (report == nullptr) {
      ++consecutive_lost;
      if (policy.quarantine_after > 0 &&
          consecutive_lost >= policy.quarantine_after) {
        // Quarantine: the candidate keeps failing under its whole retry
        // budget; stop wasting repeats and cache it as failed.
        out.verdict = Verdict::kQuarantined;
        return out;
      }
      continue;
    }
    consecutive_lost = 0;
    if (report->censored || report->total_seconds > allowance) {
      // Censor verdict: charge what the line allowed and stop. Every
      // remaining repeat would see a zero allowance and contribute
      // nothing, so the historical post-censor loop folds away.
      out.charge.seconds += allowance;
      out.verdict = Verdict::kCensored;
      return out;
    }
    const double objective = options_.objective == Objective::kEnergy
                                 ? report->energy_joules
                                 : report->total_seconds;
    out.objective_sum += objective;
    out.charge.seconds += report->total_seconds;
    sum += report->total_seconds;
    ++out.survivors;
    if (robust) out.objectives.push_back(objective);
  }
  // Every repeat lost: cache the candidate as quarantined whether or not
  // the consecutive-loss cutoff fired. Fault draws come from a derived
  // stream, so re-executing under the same policy would lose the same way.
  if (out.survivors == 0) out.verdict = Verdict::kQuarantined;
  return out;
}

template <typename Out, typename Run>
std::vector<Out> Evaluator::pre_execute(std::size_t n, const Run& run) {
  std::vector<Out> out;
  if (pool_ == nullptr || n <= 1) return out;
  out.resize(n);
  pool_->parallel_for(
      n,
      [&](std::size_t lane, std::size_t i) {
        out[i] = run(i, scratches_[lane]);
      },
      options_.pool_priority, options_.pool_stream);
  return out;
}

void Evaluator::add_charge(const Charge& charge) {
  stats_.search_time_s += charge.seconds;
  stats_.evaluation_time_s += charge.seconds;
  stats_.transient_failures +=
      static_cast<std::size_t>(charge.transient_failures);
  stats_.retries += static_cast<std::size_t>(charge.retries);
}

std::string Evaluator::export_profiles() const {
  // Canonical order (sorted by structural hash): unordered_map iteration
  // varies between runs and library versions, and checkpoint/resume
  // bit-identity needs the exported bytes to be a pure function of the
  // database contents.
  std::vector<std::pair<std::uint64_t, const Entry*>> order;
  order.reserve(profiles_.size());
  // The text goes into one buffer that never grows: the header and each
  // entry line are under 48 bytes.
  std::size_t bound = 48;
  for (const auto& [hash, entry] : profiles_) {
    order.emplace_back(hash, &entry);
    bound += 48 + entry.mapping.serialized_size_bound();
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  out.reserve(bound);
  out += "profiles " + std::to_string(profiles_.size()) + "\n";
  for (const auto& [hash, entry] : order) {
    // The mean as printf's %.17g writes it ("inf" when infinite).
    char mean[32];
    out += "entry ";
    out.append(mean, std::to_chars(mean, mean + sizeof(mean),
                                   entry->mean_seconds,
                                   std::chars_format::general, 17)
                         .ptr);
    if (entry->state == EntryState::kCensored) out += " censored";
    if (entry->state == EntryState::kQuarantined) out += " quarantined";
    out += '\n';
    entry->mapping.serialize_to(out);
  }
  return out;
}

void Evaluator::import_profiles(const std::string& text) {
  LineReader reader(text);
  reader.at_line([&] {
    reader.next_line("profiles <count>");
    const std::size_t count = to_int<std::size_t>(reader[1], "profiles");
    const TaskGraph& graph = sim_.graph();
    // Each entry takes at least one 8-byte line ("entry 0\n"), so the text
    // bounds what a garbled header can make the map reserve.
    profiles_.reserve(profiles_.size() + std::min(count, text.size() / 8));
    for (std::size_t i = 0; i < count; ++i) {
      // After the mean the line may carry an optional marker: "censored"
      // (the stored value is a bound the true mean exceeds) or "quarantined"
      // (the candidate failed its whole retry budget and is cached as
      // permanently failed).
      reader.next_line("entry <mean>", /*more=*/true);
      EntryState state = EntryState::kExact;
      if (reader.size() == 3 && reader[2] == "censored") {
        state = EntryState::kCensored;
      } else if (reader.size() == 3 && reader[2] == "quarantined") {
        state = EntryState::kQuarantined;
      } else if (reader.size() != 2) {
        throw Error("expected: entry <mean> [censored|quarantined]");
      }
      const double mean = to_double_or_inf(reader[1], "mean");
      Mapping mapping = Mapping::read(reader, graph);
      const std::uint64_t key = mapping.hash();
      if (mean < kInf && state == EntryState::kExact) {
        // insert_top dedupes by hash, so importing the same database twice
        // (or re-importing after a search) does not stack duplicate
        // finalists. Censored entries stay out of the finalist list and the
        // incumbent — their stored value is a bound, not a mean.
        insert_top(key, mapping, mean);
        best_seconds_ = std::min(best_seconds_, mean);
      }
      profiles_.insert_or_assign(key,
                                 Entry{key, std::move(mapping), mean, state});
    }
    if (reader.next())
      throw Error("more entries than the 'profiles' header promises");
  });
}

void Evaluator::insert_top(std::uint64_t key, const Mapping& mapping,
                           double mean) {
  for (const Entry& e : top_)
    if (e.key == key && e.mapping == mapping) return;
  const auto pos = std::lower_bound(
      top_.begin(), top_.end(), mean,
      [](const Entry& e, double v) { return e.mean_seconds < v; });
  top_.insert(pos, Entry{key, mapping, mean});
  if (top_.size() > static_cast<std::size_t>(options_.top_k))
    top_.pop_back();
}

Mapping Evaluator::with_fallbacks(const Mapping& mapping) const {
  if (!options_.memory_fallbacks) return mapping;
  Mapping out = mapping;
  const MachineModel& machine = sim_.machine();
  for (const GroupTask& task : sim_.graph().tasks()) {
    TaskMapping& tm = out.at(task.id);
    // Addressable kinds from this task's processor, best bandwidth first;
    // a machine has one memory group per kind, so the lists built below
    // name each kind once, as MemPriority requires.
    SmallVector<MemKind, kNumMemKinds> order =
        machine.memories_addressable_by(tm.proc);
    std::sort(order.begin(), order.end(), [&](MemKind a, MemKind b) {
      return machine.affinity(tm.proc, a).bandwidth_bytes_per_s >
             machine.affinity(tm.proc, b).bandwidth_bytes_per_s;
    });
    for (auto& priority : tm.arg_memories) {
      if (priority.empty()) continue;
      const MemKind primary = priority.front();
      priority.assign(1, primary);
      for (const MemKind k : order)
        if (k != primary) priority.push_back(k);
    }
  }
  return out;
}

double Evaluator::evaluate(const Mapping& mapping, double interest_bound_s) {
  double mean = kInf;
  (void)evaluate_batch(
      std::span<const Mapping>(&mapping, 1),
      [&](std::size_t, double value) {
        mean = value;
        return true;
      },
      interest_bound_s);
  return mean;
}

std::vector<double> Evaluator::evaluate_batch(
    std::span<const Mapping> mappings, double interest_bound_s) {
  std::vector<double> means;
  means.reserve(mappings.size());
  (void)evaluate_batch(
      mappings,
      [&](std::size_t, double value) {
        means.push_back(value);
        return true;
      },
      interest_bound_s);
  return means;
}

std::size_t Evaluator::evaluate_batch(
    std::span<const Mapping> mappings,
    const std::function<bool(std::size_t, double)>& consume,
    double interest_bound_s) {
  if (replayed_ < replay_.size()) return replay_batch(mappings, consume);
  // Censor threshold, fixed once at submission so it cannot depend on fold
  // order or thread count: a candidate is only worth resolving exactly if
  // its mean could still beat the caller's interest bound *or* displace the
  // k-th finalist (run_ccd_multistart re-imports the database across
  // passes, so finalist-grade means must stay exact even when the caller's
  // incumbent is tighter). The threshold — not the prune flag — drives the
  // censoring arithmetic; prune only decides whether the simulator actually
  // stops at the budget.
  double threshold = kInf;
  if (options_.objective == Objective::kExecutionTime) {
    const double top_guard =
        top_.size() >= static_cast<std::size_t>(options_.top_k)
            ? top_.back().mean_seconds
            : kInf;
    threshold = std::max(interest_bound_s, top_guard);
  }
  const bool bound_runs =
      options_.prune_candidates && std::isfinite(threshold);

  // Per-candidate plan. Exactly one of three shapes:
  //  * kCached: a usable profiles entry (or an earlier batch member equal
  //    to this mapping, which will have inserted its entry by the time this
  //    one folds) already answers it;
  //  * kInvalid: fails constraint 1, folds to infinity without execution;
  //  * kEvaluated: one budgeted run sequence with derived seeds, whose
  //    outcome decides the verdict.
  struct Plan {
    std::uint64_t key = 0;
    Verdict shape = Verdict::kCached;
    /// Candidate to execute: points at the submitted mapping, or at
    /// `storage` when memory fallbacks extended it. Stable because `plans`
    /// is sized once up front.
    const Mapping* cand = nullptr;
    Mapping storage;          // owns the fallback-extended copy, when any
    std::size_t outcome = 0;  // index into exec_plans/outcomes, kEvaluated
  };

  std::vector<Plan> plans(mappings.size());
  std::vector<std::size_t> exec_plans;  // batch indices of execute plans
  // key -> batch member that will own the profiles entry for that hash at
  // fold time (serial insertion order: the latest scheduled one wins).
  std::unordered_map<std::uint64_t, std::size_t> planned;

  for (std::size_t j = 0; j < mappings.size(); ++j) {
    const Mapping& mapping = mappings[j];
    Plan& plan = plans[j];
    plan.key = mapping.hash();

    if (const auto pit = planned.find(plan.key);
        pit != planned.end() && mappings[pit->second] == mapping) {
      continue;  // deferred: an earlier batch member folds this entry
    }
    // A cached entry answers the query unless it is censored at a bound
    // tighter than this batch's threshold — then the caller needs the mean
    // resolved further and the candidate re-executes (overwriting the
    // entry at fold time).
    if (const auto it = profiles_.find(plan.key);
        planned.find(plan.key) == planned.end() && it != profiles_.end() &&
        it->second.mapping == mapping &&
        (it->second.state != EntryState::kCensored ||
         it->second.mean_seconds >= threshold)) {
      continue;  // deferred: usable profiles-database hit
    }

    planned[plan.key] = j;
    const Mapping* candidate = &mapping;
    if (options_.memory_fallbacks) {
      plan.storage = with_fallbacks(mapping);
      candidate = &plan.storage;
    }
    if (!candidate->valid(sim_.graph(), sim_.machine())) {
      plan.shape = Verdict::kInvalid;
      continue;
    }
    plan.shape = Verdict::kEvaluated;
    plan.cand = candidate;
    plan.outcome = exec_plans.size();
    exec_plans.push_back(j);
  }

  // Pre-execute every scheduled candidate across the pool; without one the
  // fold below runs them lazily instead.
  const auto run = [&](std::size_t i, SimScratch& scratch) {
    const Plan& plan = plans[exec_plans[i]];
    return run_candidate(*plan.cand, plan.key, threshold, bound_runs,
                         scratch);
  };
  std::vector<CandOutcome> outcomes =
      pre_execute<CandOutcome>(exec_plans.size(), run);

  // Fold serially in submission order; this is the exact serial evaluate()
  // logic with run_candidate replaced by the pre-executed outcomes, so
  // every statistic, cache entry and trajectory point lands in the same
  // order with the same values regardless of thread count. Dispatch on the
  // plan's shape, not on a fresh cache probe: an execute plan may exist
  // precisely because the cached entry was censored too tightly, and must
  // overwrite it rather than read it back.
  const bool transcribe = !options_.checkpoint_path.empty();
  std::size_t folded = 0;
  for (std::size_t j = 0; j < mappings.size(); ++j) {
    if (j > 0 && budget_exhausted()) break;
    const Mapping& mapping = mappings[j];
    const Plan& plan = plans[j];

    double mean = kInf;
    Verdict verdict = plan.shape;
    Charge charge;
    if (verdict == Verdict::kEvaluated) {
      CandOutcome out = outcomes.empty()
                            ? run(plan.outcome, scratches_[0])
                            : std::move(outcomes[plan.outcome]);
      // The fold-side charge is shared by the serial and batched paths,
      // preserving thread-count invariance.
      charge = out.charge;
      add_charge(charge);
      verdict = out.verdict;
      if (verdict == Verdict::kCensored) {
        // Fold to exactly the threshold (not budget/repeats, whose
        // rounding could land one ulp below it and leak past a caller's
        // `mean < bound` acceptance test).
        mean = threshold;
      } else if (verdict == Verdict::kEvaluated) {
        mean = aggregate_objective(out.objective_sum, out.survivors,
                                   std::move(out.objectives));
      }
    } else if (verdict == Verdict::kCached) {
      // Deferred: answered by the profiles database — an import, an earlier
      // search, or an earlier batch member that folded before us.
      const auto it = profiles_.find(plan.key);
      AM_CHECK(it != profiles_.end() && it->second.mapping == mapping,
               "deferred batch member lost its profiles entry");
      mean = it->second.mean_seconds;
    }
    if (transcribe) append_fold({plan.key, verdict, mean, charge});
    record(verdict, plan.key, mapping, mean);
    ++folded;
    if (!consume(j, mean)) break;
  }
  return folded;
}

std::size_t Evaluator::replay_batch(
    std::span<const Mapping> mappings,
    const std::function<bool(std::size_t, double)>& consume) {
  std::size_t folded = 0;
  for (std::size_t j = 0; j < mappings.size(); ++j) {
    if (j > 0 && budget_exhausted()) break;
    if (replayed_ == replay_.size())
      throw Error("checkpoint ends inside a batch after fold " +
                  std::to_string(replayed_) +
                  "; checkpoints are written only between batches");
    const Fold& fold = replay_[replayed_++];
    const std::uint64_t key = mappings[j].hash();
    if (fold.key != key)
      throw Error("checkpoint fold " + std::to_string(replayed_) +
                  " records candidate " + hex_u64(fold.key) +
                  ", but the resumed search proposed " + hex_u64(key));
    add_charge(fold.charge);
    record(fold.verdict, key, mappings[j], fold.mean);
    ++folded;
    if (!consume(j, fold.mean)) break;
  }
  return folded;
}

void Evaluator::append_fold(const Fold& fold) {
  const VerdictRow& row = kVerdictRows[static_cast<std::size_t>(fold.verdict)];
  transcript_ += "fold ";
  transcript_ += hex_u64(fold.key);
  transcript_ += ' ';
  transcript_ += row.status;
  transcript_ += ' ';
  append_number(transcript_, fold.mean);
  if (row.executed) {
    transcript_ += ' ';
    append_number(transcript_, fold.charge.seconds);
    transcript_ += ' ' + std::to_string(fold.charge.transient_failures) + ' ' +
                   std::to_string(fold.charge.retries);
  }
  transcript_ += '\n';
}

void Evaluator::record(Verdict verdict, std::uint64_t key,
                       const Mapping& mapping, double mean) {
  const VerdictRow& row = kVerdictRows[static_cast<std::size_t>(verdict)];
  for (std::size_t i = 0; i < std::size(kSearchCounters); ++i) {
    const auto field = kSearchCounters[i].field;
    if (field == &SearchStats::suggested || field == row.counter ||
        (row.executed && field == &SearchStats::evaluated)) {
      ++(stats_.*field);
      if (m_counters_[i] != nullptr) m_counters_[i]->inc();
    }
  }

  if (verdict != Verdict::kCached)
    profiles_.insert_or_assign(key, Entry{key, mapping, mean, row.state});
  // Censored candidates never update the incumbent, trajectory or
  // finalist list: their value is a bound, not a mean.
  if (verdict == Verdict::kEvaluated) {
    if (mean < best_seconds_) {
      best_seconds_ = mean;
      trajectory_.push_back({stats_.search_time_s, mean});
      if (journal_) {
        // 1:1 with trajectory points — the replay drift check and the
        // Chrome-trace search row both reconstruct the Fig. 9 curve from
        // these.
        journal_->event("incumbent")
            .num("clock", stats_.search_time_s)
            .num("best", mean)
            .integer("seq", static_cast<long long>(stats_.suggested));
      }
    }
    // Maintain the top-k list for the finalist protocol.
    if (mean < kInf) insert_top(key, mapping, mean);
  }

  if (metrics_) {
    m_search_clock_->set(stats_.search_time_s);
    if (std::isfinite(best_seconds_)) m_best_seconds_->set(best_seconds_);
    if (std::isfinite(mean)) m_candidate_mean_->observe(mean);
  }
  if (journal_) {
    journal_->event("candidate")
        .integer("seq", static_cast<long long>(stats_.suggested))
        .str("status", row.status)
        .num("mean", mean)
        .num("clock", stats_.search_time_s)
        .str("hash", hex_u64(key));
    journal_metrics_snapshot(/*force=*/false);
  }
}

void Evaluator::journal_metrics_snapshot(bool force) {
  if (!journal_ || !metrics_) return;
  if (!force) {
    if (options_.journal_snapshot_every <= 0) return;
    if (++folds_since_snapshot_ < options_.journal_snapshot_every) return;
  }
  folds_since_snapshot_ = 0;
  // Only deterministic instruments appear in the snapshot — raw simulator
  // run counts include speculative pool work and would break the journal's
  // thread-count byte-identity.
  journal_->event("metrics")
      .num("clock", stats_.search_time_s)
      .raw("values", metrics_->snapshot_json());
}

void Evaluator::begin_search(std::string_view label, const Mapping& start,
                             bool custom_start) {
  const bool resuming = !options_.resume_state.empty();
  if (resuming || !options_.checkpoint_path.empty()) {
    // The budget only decides where the fold sequence stops, pruning only
    // how much simulation a verdict costs, and a profiles seed only adds
    // cache entries, so none of them is part of the identity.
    SearchOptions o = options_;
    o.time_budget_s = kInf;
    o.prune_candidates = true;
    identity_ = fnv1a64(std::string(label) + "\n" +
                        search_options_to_json(o) + "\n" +
                        sim_options_to_json(sim_.options()) + "\n" +
                        start.serialize());
  }
  if (resuming) {
    LineReader reader(options_.resume_state);
    reader.at_line([&] {
      reader.next_line("automap-checkpoint <version>");
      if (reader[1] != "2")
        throw Error("checkpoint format " + std::string(reader[1]) +
                    " is not supported (this build reads format 2)");
      reader.next_line("search <identity>");
      if (reader[1] != hex_u64(identity_))
        throw Error("checkpoint was written by a different search (" +
                    std::string(reader[1]) + ", this search is " +
                    hex_u64(identity_) + ")");
      read_folds(reader);
    });
  }
  if (!journal_) return;
  // Everything that determines the deterministic outcome is recorded via
  // the canonical codec — the same encoding the CLI's --options file and
  // the service wire protocol speak — except the thread count, which by
  // contract changes nothing (and would break journal byte-identity
  // across --threads values).
  journal_->event("search_begin")
      .str("algorithm", label)
      .raw("options", search_options_to_json(options_))
      .raw("sim", sim_options_to_json(sim_.options()))
      .str("start", start.serialize())
      .boolean("custom_start", custom_start)
      .boolean("resumed", !options_.resume_state.empty())
      .boolean("seeded_profiles", !options_.profiles_seed.empty());
}

bool Evaluator::checkpoint(int rotation, std::size_t position) {
  if (options_.checkpoint_path.empty() || budget_exhausted()) return false;
  // A point still being replayed was written by the interrupted run, and
  // a point with no fold since this evaluator's last write would rewrite
  // the same bytes.
  const bool write =
      replayed_ == replay_.size() && transcript_.size() != written_size_;
  if (write) {
    save_checksummed(options_.checkpoint_path,
                     "automap-checkpoint 2\nsearch " + hex_u64(identity_) +
                         "\n" + transcript_,
                     "checkpoint");
    written_size_ = transcript_.size();
  }
  if (journal_) {
    journal_->event("checkpoint")
        .integer("at_rotation", rotation)
        .integer("at_position", static_cast<long long>(position));
  }
  if (write && options_.on_checkpoint)
    options_.on_checkpoint(rotation, static_cast<int>(position));
  return true;
}

void Evaluator::charge_overhead(double seconds) {
  AM_REQUIRE(seconds >= 0.0, "negative overhead");
  stats_.search_time_s += seconds;
}

double Evaluator::failure_observation_cost() const {
  // The runtime walks every task's dependence analysis and instance
  // allocation before the OOM aborts the run — one runtime-overhead
  // quantum per task, independent of how far the allocation pass got.
  return sim_.machine().runtime_overhead() *
         static_cast<double>(sim_.graph().num_tasks());
}

void Evaluator::note_rotation(int rotation, double best_before_s) {
  stats_.rotations.push_back({.rotation = rotation,
                              .best_before_s = best_before_s,
                              .best_after_s = best_seconds_,
                              .evaluated = stats_.evaluated,
                              .search_time_s = stats_.search_time_s});
  if (journal_) {
    journal_->event("rotation_end")
        .num("before", best_before_s)
        .num("after", best_seconds_)
        .integer("evaluated", static_cast<long long>(stats_.evaluated))
        .num("clock", stats_.search_time_s);
    journal_metrics_snapshot(/*force=*/true);
  }
}

bool Evaluator::budget_exhausted() const {
  return cancelled() || stats_.search_time_s >= options_.time_budget_s;
}

bool Evaluator::cancelled() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

void Evaluator::mark_degraded() {
  stats_.degraded = true;
  if (journal_) journal_->event("degraded");
}

void Evaluator::restore_state(const std::string& text) {
  LineReader reader(text);
  reader.at_line([&] { read_folds(reader); });
}

void Evaluator::read_folds(LineReader& reader) {
  while (reader.next()) {
    reader.expect_line("fold <hash> <status> <mean>", /*more=*/true);
    const auto row = std::find_if(
        std::begin(kVerdictRows), std::end(kVerdictRows),
        [&](const VerdictRow& r) { return reader[2] == r.status; });
    if (row == std::end(kVerdictRows))
      throw Error("unknown fold status '" + std::string(reader[2]) + "'");
    if (row->executed) {
      reader.expect_line(
          "fold <hash> <status> <mean> <charge_s> <transient_failures> "
          "<retries>");
    } else {
      reader.expect_line("fold <hash> <status> <mean>");
    }
    const std::optional<std::uint64_t> key = parse_int<std::uint64_t>(
        reader[1], 0, std::numeric_limits<std::uint64_t>::max(), 16);
    if (!key)
      throw Error("hash: expected a hexadecimal integer, got '" +
                  std::string(reader[1]) + "'");
    Fold fold{.key = *key,
              .verdict = static_cast<Verdict>(row - std::begin(kVerdictRows)),
              .mean = to_double_or_inf(reader[3], "mean")};
    if (row->executed) {
      fold.charge = {
          .seconds = to_double(reader[4], "charge_s"),
          .transient_failures = to_int(reader[5], 0, kMaxInt,
                                       "transient_failures"),
          .retries = to_int(reader[6], 0, kMaxInt, "retries")};
      if (fold.charge.seconds < 0.0)
        throw Error("charge_s: expected a number >= 0, got '" +
                    std::string(reader[4]) + "'");
    }
    replay_.push_back(fold);
    append_fold(fold);
  }
}

const Mapping& EvaluatorView::best() const {
  AM_REQUIRE(!eval_->top_.empty(), "no successful evaluation yet");
  return eval_->top_.front().mapping;
}

SearchResult Evaluator::finalize(std::string algorithm_name) {
  SearchResult result;
  result.algorithm = std::move(algorithm_name);
  // The finalist protocol runs outside any rotation/coordinate scope.
  if (journal_) journal_->clear_cursor();

  // Cancellation cuts the finalist protocol too: the caller is about to
  // discard the result, so rerunning top-k x final_repeats would only
  // delay the cancel landing. The incumbent (when any) comes back as a
  // partial result with no finalize journal record. Budget exhaustion
  // alone does NOT take this path — a budget-cut search still verifies
  // its finalists exactly as before, preserving byte-identity.
  if (cancelled()) {
    if (!top_.empty()) {
      result.best = top_.front().mapping;
      result.best_seconds = top_.front().mean_seconds;
    }
    stats_.wall_time_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - wall_start_)
                             .count();
    result.stats = stats_;
    result.trajectory = trajectory_;
    if (journal_) journal_->flush();
    return result;
  }
  if (replayed_ < replay_.size())
    throw Error("checkpoint holds " +
                std::to_string(replay_.size() - replayed_) +
                " folds the resumed search never reached");

  // All (finalist, repeat) reruns are independent under derived seeds, so
  // they fan out across the pool as one batch and fold back in top-k order.
  // Finalist reruns are never bounded: the protocol's whole point is an
  // exact mean over the top-k, and top-k entries are never censored.
  const int repeats = options_.final_repeats;
  const std::size_t runs_per = static_cast<std::size_t>(repeats);
  std::vector<Mapping> candidates;
  candidates.reserve(top_.size());
  for (const Entry& entry : top_)
    candidates.push_back(with_fallbacks(entry.mapping));

  // The finalist whose plan each lane's arena holds: a lane builds a plan
  // once for all the repeats of one finalist it runs in a row, so the
  // serial path builds exactly one per finalist. A failed begin_runs
  // leaves no plan, so every rerun of an OOM finalist fails and is
  // charged the observation cost.
  constexpr std::size_t kNoPlan = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> lane_plan(scratches_.size(), kNoPlan);
  const auto rerun = [&](std::size_t i, SimScratch& scratch) {
    const std::size_t e = i / runs_per;
    std::size_t& held =
        lane_plan[static_cast<std::size_t>(&scratch - scratches_.data())];
    RunOutcome out;
    if (held != e) {
      held = sim_.begin_runs(candidates[e], scratch) ? e : kNoPlan;
      if (held == kNoPlan) {
        // Deterministic failure (OOM): one observation cost, same as the
        // search loop charges.
        out.excluded = true;
        out.charge.seconds = failure_observation_cost();
        return out;
      }
    }
    if (const ExecutionReport* report =
            run_repeat(candidates[e], top_[e].key,
                       static_cast<int>(i % runs_per), kFinalSalt, kInf,
                       scratch, out.charge)) {
      out.ok = true;
      out.objective = options_.objective == Objective::kEnergy
                          ? report->energy_joules
                          : report->total_seconds;
      out.total_seconds = report->total_seconds;
    }
    return out;
  };
  const std::vector<RunOutcome> outcomes =
      pre_execute<RunOutcome>(candidates.size() * runs_per, rerun);

  const bool robust = options_.resilience.aggregation != Aggregation::kMean;
  double best_final = kInf;
  for (std::size_t e = 0; e < candidates.size(); ++e) {
    double sum = 0.0;
    int ok_runs = 0;
    bool excluded = false;
    std::vector<double> values;  // per-survivor, robust aggregations only
    for (std::size_t i = e * runs_per; i < (e + 1) * runs_per; ++i) {
      const RunOutcome out =
          outcomes.empty() ? rerun(i, scratches_[0]) : outcomes[i];
      add_charge(out.charge);
      if (out.excluded) {
        // The finalist can never complete, so stop rerunning it — the
        // historical exclusion rule.
        excluded = true;
        break;
      }
      if (!out.ok) continue;  // transient-exhausted repeat: lost
      sum += out.objective;
      stats_.search_time_s += out.total_seconds;
      stats_.evaluation_time_s += out.total_seconds;
      ++ok_runs;
      if (robust) values.push_back(out.objective);
    }
    // A finalist scores when a strict majority of its repeats survived —
    // fault-free that is all of them, reproducing the historical
    // ok_runs == repeats rule bit for bit.
    double final_mean = kInf;
    if (!excluded && ok_runs * 2 > repeats) {
      final_mean = aggregate_objective(sum, ok_runs, std::move(values));
      if (final_mean < best_final) {
        best_final = final_mean;
        result.best = top_[e].mapping;
      }
    }
    if (journal_) {
      journal_->event("finalist")
          .integer("rank", static_cast<long long>(e))
          .str("hash", hex_u64(top_[e].key))
          .boolean("excluded", excluded)
          .integer("ok_runs", ok_runs)
          .num("mean", final_mean)
          .num("clock", stats_.search_time_s);
    }
  }
  if (best_final < kInf) {
    result.best_seconds = best_final;
  } else {
    // Graceful degradation: the fault rate left every finalist
    // unprofilable. Return the best-known incumbent with the degraded flag
    // instead of throwing away the whole search.
    AM_CHECK(!top_.empty(),
             "finalist protocol found no executable mapping");
    stats_.degraded = true;
    result.best = top_.front().mapping;
    result.best_seconds = top_.front().mean_seconds;
  }
  stats_.wall_time_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start_)
                           .count();
  result.stats = stats_;
  result.trajectory = trajectory_;
  if (options_.export_profiles_db) result.profiles_db = export_profiles();
  if (metrics_) {
    m_search_clock_->set(stats_.search_time_s);
    if (std::isfinite(result.best_seconds))
      m_best_seconds_->set(result.best_seconds);
  }
  if (journal_) {
    journal_metrics_snapshot(/*force=*/true);
    journal_->event("finalize")
        .str("algorithm", result.algorithm)
        .num("best", result.best_seconds)
        .boolean("degraded", stats_.degraded)
        .integer("suggested", static_cast<long long>(stats_.suggested))
        .integer("evaluated", static_cast<long long>(stats_.evaluated))
        .integer("censored", static_cast<long long>(stats_.censored))
        .num("clock", stats_.search_time_s)
        .str("winner", result.best.serialize());
    journal_->flush();
  }
  return result;
}

}  // namespace automap
