#pragma once

// Candidate-mapping evaluator with a profiles database and a batch
// evaluation engine.
//
// This is AutoMap's driver-side measurement machinery (§3, Figure 4): every
// candidate is executed `repeats` times and the mean is recorded; results
// are cached in the profiles database so re-suggested mappings cost nothing
// (the gap between "suggested" and "evaluated" counts in §5.3). Search time
// is accounted in *simulated* seconds — the sum of the candidate runs'
// execution times plus any per-suggestion algorithm overhead — so that the
// Fig. 9 time axis reflects what a real deployment would pay.
//
// Candidate execution dominates search cost (§5.3: 99 % for CCD/CD), and
// Simulator::run is const and seed-parameterized, so the candidates of a
// batch are embarrassingly parallel. evaluate_batch fans them out across a
// thread pool (SearchOptions::threads) and folds results back serially in
// submission order. Every run's noise seed is *derived* from (search seed,
// mapping hash, repeat index) instead of drawn from a shared sequential
// generator, so a run's result does not depend on which thread executed it
// or how many candidates preceded it — the folded statistics, trajectory,
// top-k list and profiles database are bit-identical for every thread
// count, including the serial path.
//
// Incumbent-bounded pruning (SearchOptions::prune_candidates): most
// candidates a hill-climbing search proposes are worse than the incumbent,
// and simulating them to completion only confirms that. evaluate_batch
// fixes a censor threshold T at batch submission — the larger of the
// caller's interest bound and the current k-th best finalist mean — and
// races every executed candidate against it: after k runs the candidate is
// *censored* once its running sum crosses a noise-aware confidence line
// (capped at repeats x T, at which point mean > T is proven outright), and
// each run simulates under a time bound of whatever the line leaves. A
// censored candidate folds to exactly T, is recorded in the profiles
// database with a censored flag (re-executed only if a later batch needs
// it resolved under a looser threshold), and never enters the trajectory
// or the top-k list; an uncensored candidate's mean is exact and provably
// at most T. The censoring arithmetic runs in both modes; the prune flag
// only decides whether the simulator aborts at the line or burns real time
// past it — so results stay bit-identical with pruning on or off, at any
// thread count. The search clock is charged the simulated seconds actually
// consumed up to the line (the cost a real bounded deployment would pay).
//
// Checkpoints (SearchOptions::checkpoint_path) are a fold transcript: one
// line per folded proposal with its hash, verdict, mean and clock charge.
// Given those, a search is deterministic, so resume (resume_state) reruns
// the algorithm from its start and each replayed batch takes its folds
// from the transcript instead of executing; after the last line the
// search continues live. Replay goes through record(), so the resumed
// statistics, profiles database and journal are those of an uninterrupted
// run.

#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/mapping/mapping.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/thread_pool.hpp"

namespace automap {

class Counter;
class EvaluatorView;
class LineReader;
class Gauge;
class Histogram;
class Journal;
class MetricsRegistry;

class Evaluator {
 public:
  Evaluator(const Simulator& sim, const SearchOptions& options);

  /// Proposes a mapping for evaluation. Returns its mean execution time in
  /// seconds; infinity when the mapping is invalid (constraint 1) or runs
  /// out of memory. Cached mappings return instantly without re-execution.
  /// Equivalent to a one-element evaluate_batch.
  ///
  /// `interest_bound_s` declares how slow a candidate may be and still be
  /// useful to the caller (typically the caller's incumbent mean): a
  /// candidate whose mean provably exceeds both the bound and the k-th
  /// finalist mean is censored and returns the censor threshold instead of
  /// an exact mean. Pass infinity (the default) when the exact value
  /// matters — e.g. to seed an incumbent, or for simulated annealing's
  /// acceptance probabilities.
  double evaluate(const Mapping& mapping,
                  double interest_bound_s =
                      std::numeric_limits<double>::infinity());

  /// Batch entry point: pre-executes every not-yet-cached candidate across
  /// the thread pool (one budgeted run sequence per candidate), then folds
  /// results back in submission order, replicating evaluate() exactly — a
  /// candidate sees cache entries created by earlier batch members, and
  /// folding stops once the simulated budget is exhausted (a serial loop
  /// would not have proposed the remaining candidates). The censor
  /// threshold derived from `interest_bound_s` is fixed once at submission,
  /// before any run executes, so it cannot depend on fold order or thread
  /// count. After each fold, `consume(index, mean)` is invoked; returning
  /// false stops the batch and discards the unfolded tail entirely (no
  /// statistics, cache or clock effects), which lets greedy-sequential
  /// searches speculate over candidates whose construction depends on
  /// earlier outcomes. Returns the number of candidates folded. While
  /// folds read by restore_state remain, the batch replays them instead
  /// (replay_batch).
  std::size_t evaluate_batch(
      std::span<const Mapping> mappings,
      const std::function<bool(std::size_t, double)>& consume,
      double interest_bound_s = std::numeric_limits<double>::infinity());

  /// Convenience overload folding the whole batch (budget permitting):
  /// returns the means of the folded prefix; the result is shorter than
  /// `mappings` iff the budget ran out mid-batch.
  std::vector<double> evaluate_batch(
      std::span<const Mapping> mappings,
      double interest_bound_s = std::numeric_limits<double>::infinity());

  /// Charges algorithm-side overhead (e.g. the ensemble tuner's proposal
  /// machinery) to the search clock without touching evaluation counters.
  void charge_overhead(double seconds);

  /// Records one completed CCD/CD rotation in the telemetry: the best mean
  /// before the rotation vs now, plus the cumulative counters. Deterministic
  /// given the folded statistics, so thread-count invariance is preserved.
  void note_rotation(int rotation, double best_before_s);

  /// True once the simulated search clock passed the configured budget —
  /// or the SearchOptions::cancel token fired (cancellation is delivered
  /// as a budget cut, so every algorithm's existing budget checks double
  /// as cancellation points).
  [[nodiscard]] bool budget_exhausted() const;

  /// True iff the SearchOptions::cancel token is set and fired. Callers
  /// that must distinguish a cancel from a genuine budget cut (e.g. the
  /// service discarding a cancelled job's result) ask this directly.
  [[nodiscard]] bool cancelled() const;

  /// The finalist protocol (§5): re-runs the top-k mappings
  /// `final_repeats` times each (fanned across the pool) and returns the
  /// fastest, charging the reruns to the search clock. Throws Error when
  /// folds read by restore_state were never replayed (a cancelled search
  /// returns its partial result instead).
  [[nodiscard]] SearchResult finalize(std::string algorithm_name);

  /// Read-only accessors (best/stats/trajectory/profiles export) live on
  /// EvaluatorView; pass a view to code that only observes the search
  /// instead of the mutating evaluator.
  [[nodiscard]] EvaluatorView view() const;

  /// If memory_fallbacks is on, returns a copy of `mapping` whose argument
  /// priority lists are extended with the remaining addressable memory
  /// kinds in decreasing bandwidth order (§3.1). Otherwise returns the
  /// mapping unchanged.
  [[nodiscard]] Mapping with_fallbacks(const Mapping& mapping) const;

  /// Seeds the database from a previous export. Entries must match the
  /// simulator's graph shape; throws Error on malformed text. Imported
  /// entries do not count as suggested/evaluated.
  void import_profiles(const std::string& text);

  /// Marks the search result degraded (SearchStats::degraded): the caller
  /// determined the fault rate makes further progress unprofilable and is
  /// returning the best-known incumbent instead of throwing.
  void mark_degraded();

  /// Starts the search; algorithms call this once before their first
  /// proposal. Derives the search identity a checkpoint records from the
  /// label, the options, the simulator options and the starting mapping.
  /// When resuming, checks the checkpoint against that identity (throws
  /// Error for a checkpoint of another search or format) and arms its
  /// transcript for replay. Emits the journal's `search_begin` record: the
  /// label, the full (options, simulator) configuration that determines
  /// the deterministic outcome — everything except the thread count, which
  /// by contract changes nothing — and the serialized starting mapping.
  void begin_search(std::string_view label, const Mapping& start,
                    bool custom_start = false);

  /// A checkpoint point of the algorithm, between two batches: with a
  /// checkpoint_path and budget left, durably writes the transcript so far
  /// (unless the point is still being replayed, when the file already holds
  /// it, or no fold came since this evaluator last wrote it), journals a
  /// `checkpoint` event and calls on_checkpoint after a write. Returns
  /// whether the point counted, i.e. whether the journal event was
  /// emitted.
  bool checkpoint(int rotation, std::size_t position);

  /// The journal configured in SearchOptions (null when disabled) — the
  /// algorithms emit their own structural events (moves, constraint edges,
  /// rotations) through this.
  [[nodiscard]] Journal* journal() const { return journal_; }

  /// The fold transcript so far, one `fold` line per folded proposal (the
  /// checkpoint without its header; docs/file_formats.md). Recorded only
  /// with a checkpoint_path, and it includes lines read by restore_state.
  [[nodiscard]] std::string serialize_state() const { return transcript_; }
  /// Reads `fold` lines (serialize_state's output) for the following
  /// batches to replay; call before the first proposal. Throws Error on
  /// malformed text.
  void restore_state(const std::string& text);

 private:
  friend class EvaluatorView;

  /// How a profiles entry's stored value was obtained.
  enum class EntryState : std::uint8_t {
    kExact,
    /// A censored observation: the candidate's true mean provably exceeds
    /// the stored value (the censor threshold in force when it was
    /// recorded) but was never resolved exactly. It answers any query whose
    /// threshold is at most the stored value; a looser query re-executes
    /// and overwrites it.
    kCensored,
    /// Quarantined by the resilience policy: every repeat was lost to
    /// transient faults, so the entry is cached as failed (mean infinity)
    /// and never re-run under this search.
    kQuarantined,
  };
  struct Entry {
    /// mapping.hash(), the profiles-database key, computed once.
    std::uint64_t key;
    Mapping mapping;
    double mean_seconds;
    EntryState state = EntryState::kExact;
  };
  /// Where one proposal's fold ends: its status, the counters it bumps and
  /// the profiles entry it leaves (see kVerdictRows).
  enum class Verdict {
    kEvaluated, kCached, kInvalid, kOom, kCensored, kQuarantined
  };
  /// Simulated seconds and fault counts a run sequence accumulates beyond
  /// its successful runs: lost attempts, failure observation costs and
  /// retry backoff, added in the order they happen.
  struct Charge {
    double seconds = 0.0;
    int transient_failures = 0;
    int retries = 0;
  };
  /// Per verdict: its journal and transcript status, whether it executed
  /// (bumping `evaluated` and charging the clock), the counter it bumps
  /// besides those two and `suggested`, and the state of the profiles
  /// entry it stores.
  static constexpr struct VerdictRow {
    const char* status;
    bool executed;
    std::size_t SearchStats::*counter;
    EntryState state;
  } kVerdictRows[] = {
      {"evaluated", true, nullptr, EntryState::kExact},
      {"cached", false, &SearchStats::cache_hits, EntryState::kExact},
      {"invalid", false, &SearchStats::invalid, EntryState::kExact},
      {"oom", true, &SearchStats::oom, EntryState::kExact},
      {"censored", true, &SearchStats::censored, EntryState::kCensored},
      {"quarantined", true, &SearchStats::quarantined,
       EntryState::kQuarantined},
  };
  /// One folded proposal, as a checkpoint transcript line records it.
  struct Fold {
    std::uint64_t key;
    Verdict verdict;
    double mean;
    Charge charge;  // zero unless the verdict executed
  };
  /// Result of one candidate's budgeted run sequence.
  struct CandOutcome {
    /// kEvaluated, kOom, kCensored (the candidate exhausted its simulated-
    /// seconds budget: its true mean provably exceeds the batch's censor
    /// threshold) or kQuarantined (every repeat was lost to transient
    /// faults, or quarantine_after consecutive ones were).
    Verdict verdict = Verdict::kEvaluated;
    /// Sum of the objective over the completed (uncensored) runs.
    double objective_sum = 0.0;
    /// Simulated seconds to charge to the search clock: the full run
    /// totals, clipped at the budget, plus fault losses and retry backoff
    /// (the failure observation cost for an OOM). Independent of
    /// prune_candidates by construction.
    Charge charge;
    /// Repeats that produced a valid observation (== repeats fault-free).
    int survivors = 0;
    /// Per-survivor objective values, recorded only under the robust
    /// aggregations (the mean needs just the sum).
    std::vector<double> objectives;
  };
  /// Result of one finalist rerun.
  struct RunOutcome {
    /// The rerun survived; objective and total_seconds are its values.
    bool ok = false;
    /// begin_runs failed (OOM): the finalist can never complete.
    bool excluded = false;
    double objective = 0.0;
    double total_seconds = 0.0;
    Charge charge;
  };

  /// Deterministic per-(candidate, repeat, attempt) noise seed — the scheme
  /// that makes parallel evaluation order-independent. Attempt 0 is the
  /// original derivation; retries (attempt > 0) mix in the attempt index so
  /// each re-execution sees fresh noise and fresh fault draws.
  [[nodiscard]] std::uint64_t run_seed(std::uint64_t mapping_hash,
                                       int repeat, int attempt,
                                       std::uint64_t salt) const;
  /// Retry backoff charged for attempt `attempt` (0-based): the policy's
  /// quantum (or the machine's restart_overhead) doubled per attempt.
  [[nodiscard]] double retry_backoff(int attempt) const;
  /// Folds a candidate's surviving repeats into one recorded value per the
  /// configured Aggregation: `sum` of the objective over `survivors`
  /// repeats, whose values are `values` under the robust aggregations. For
  /// kMean this is sum / survivors — bit-identical to the historical
  /// sum / repeats when nothing was lost.
  [[nodiscard]] double aggregate_objective(double sum, int survivors,
                                           std::vector<double> values) const;
  /// Runs repeat `repeat` of the plan begin_runs prepared in `scratch`,
  /// under a simulated-time bound of `bound_s`, retrying transient faults
  /// under the resilience policy. Each lost attempt's partial run and
  /// failure observation cost, and each retry's backoff, is added into
  /// `charge` as it happens. Returns the surviving (possibly censored)
  /// run's report, or null when the retry budget ran out and the repeat is
  /// lost.
  const ExecutionReport* run_repeat(const Mapping& candidate,
                                    std::uint64_t key, int repeat,
                                    std::uint64_t salt, double bound_s,
                                    SimScratch& scratch,
                                    Charge& charge) const;
  /// Executes one candidate's `repeats` runs as a race against the censor
  /// threshold: after k runs the candidate is censored once its running sum
  /// crosses a noise-aware confidence line (capped at repeats x threshold,
  /// the exactness bound), and run k executes under a simulated-time bound
  /// of whatever the line leaves. The censoring decision, charge and
  /// objective sum are pure functions of the unbounded run totals and the
  /// threshold, so prune (`bound_runs`) on and off produce identical
  /// outcomes — pruning only skips the simulation work past the line.
  [[nodiscard]] CandOutcome run_candidate(const Mapping& candidate,
                                          std::uint64_t key,
                                          double threshold_s,
                                          bool bound_runs,
                                          SimScratch& scratch) const;
  /// Runs `run(i, scratch)` for every i < n across the pool, one lane-owned
  /// scratch arena per lane, and returns the results in index order.
  /// Without a pool, or for a single item, returns nothing: the caller's
  /// fold then runs each item lazily on lane 0's arena (no speculative work
  /// past an early stop).
  template <typename Out, typename Run>
  std::vector<Out> pre_execute(std::size_t n, const Run& run);
  /// Adds a run sequence's charge to the search clock, the evaluation
  /// clock and the fault counters.
  void add_charge(const Charge& charge);
  /// Simulated cost of observing a failed (OOM) evaluation: the runtime
  /// still performs dependence analysis and instance allocation for every
  /// task before aborting, so each failure charges one runtime-overhead
  /// quantum per task to the search clock.
  [[nodiscard]] double failure_observation_cost() const;
  /// Inserts into the top-k finalist list unless an entry with the same
  /// structural hash and mapping is already present (dedupe on import).
  void insert_top(std::uint64_t key, const Mapping& mapping, double mean);
  /// Folds a batch from the armed transcript instead of executing it:
  /// each member takes its verdict, mean and charge from the next fold
  /// line, whose hash must match. Throws Error when the transcript ends
  /// inside the batch (checkpoints fall only between batches).
  std::size_t replay_batch(
      std::span<const Mapping> mappings,
      const std::function<bool(std::size_t, double)>& consume);
  /// Appends `fold`'s transcript line.
  void append_fold(const Fold& fold);
  /// Reads the rest of `reader` as fold lines into the replay list and the
  /// transcript.
  void read_folds(LineReader& reader);
  /// Serializes the profiles database (every measured mapping with its
  /// mean) for reuse via SearchOptions::profiles_seed.
  [[nodiscard]] std::string export_profiles() const;

  /// Records one folded proposal: bumps its SearchStats counters and
  /// metrics, stores its profiles entry (all but kCached), updates the
  /// incumbent, trajectory and finalist list (kEvaluated), and emits its
  /// `candidate` journal event. Serial fold side only.
  void record(Verdict verdict, std::uint64_t key, const Mapping& mapping,
              double mean);
  /// Appends a deterministic metrics snapshot to the journal when the
  /// snapshot cadence is due (or `force` is set).
  void journal_metrics_snapshot(bool force);

  const Simulator& sim_;
  SearchOptions options_;
  /// Pool owned by this evaluator (null when options_.threads == 1 or a
  /// shared pool was injected); `pool_` is the one actually used — the
  /// owned pool, the injected SearchOptions::shared_pool, or null for the
  /// zero-synchronization serial path.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  /// One simulation arena per pool lane (index 0 doubles as the serial
  /// path's arena); lanes are exclusive within a parallel_for, so each
  /// arena is touched by one run at a time.
  std::vector<SimScratch> scratches_;
  std::unordered_map<std::uint64_t, Entry> profiles_;
  std::vector<Entry> top_;  // sorted ascending by mean, at most top_k
  double best_seconds_;
  SearchStats stats_;
  std::vector<TrajectoryPoint> trajectory_;
  /// Wall-clock anchor for SearchStats::wall_time_s (simulated vs real).
  std::chrono::steady_clock::time_point wall_start_;

  // Observability handles, cached at construction from SearchOptions
  // (all null when the corresponding facility is disabled). Every update
  // happens on the serial fold side, preserving thread-count invariance.
  Journal* journal_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  /// Candidate counters, indexed like kSearchCounters (null for the
  /// counters that are not candidate metrics).
  Counter* m_counters_[std::size(kSearchCounters)] = {};
  Gauge* m_search_clock_ = nullptr;
  Gauge* m_best_seconds_ = nullptr;
  Histogram* m_candidate_mean_ = nullptr;
  /// Folds since the last journal metrics snapshot (cadence counter).
  int folds_since_snapshot_ = 0;

  /// Checkpoint identity of this search, set by begin_search.
  std::uint64_t identity_ = 0;
  /// Fold lines for the checkpoint file (see serialize_state).
  std::string transcript_;
  /// transcript_.size() at this evaluator's last checkpoint write (npos:
  /// none yet); folds only append, so an equal size means nothing new.
  std::size_t written_size_ = std::string::npos;
  /// Folds read back by restore_state, and how many of them were replayed.
  std::vector<Fold> replay_;
  std::size_t replayed_ = 0;
};

/// Read-only window onto an Evaluator for code that only observes the
/// search: the best mapping so far, counters, the Fig. 9 trajectory and
/// the profiles database export — none of the propose/charge/finalize
/// machinery. Cheap to copy; valid as long as the evaluator it views.
class EvaluatorView {
 public:
  explicit EvaluatorView(const Evaluator& eval) : eval_(&eval) {}

  /// Best mapping so far and its (search-time) mean.
  [[nodiscard]] const Mapping& best() const;
  [[nodiscard]] double best_seconds() const { return eval_->best_seconds_; }
  [[nodiscard]] bool has_best() const { return !eval_->top_.empty(); }

  [[nodiscard]] const SearchStats& stats() const { return eval_->stats_; }
  [[nodiscard]] const std::vector<TrajectoryPoint>& trajectory() const {
    return eval_->trajectory_;
  }

  /// Serialized profiles database for SearchOptions::profiles_seed.
  [[nodiscard]] std::string export_profiles() const {
    return eval_->export_profiles();
  }

 private:
  const Evaluator* eval_;
};

inline EvaluatorView Evaluator::view() const { return EvaluatorView(*this); }

}  // namespace automap
