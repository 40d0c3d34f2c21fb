#pragma once

// MappingService — the daemon's transport-independent core.
//
// The service owns the job table, the one shared evaluation thread pool,
// and the two cross-job caches; the socket server (server.hpp) only moves
// frames. `handle()` maps one request JSON to one response JSON, so every
// protocol behavior — including size limits and structured errors — is
// testable without sockets.
//
// Scheduling: each accepted job runs as one search on a job worker; all
// workers' candidate batches land on the single shared ThreadPool, where
// SearchOptions::pool_priority (from the request's `priority`) decides
// which job's batch drains first when they compete — and within one
// priority class the pool takes one task per job id in turn
// (SearchOptions::pool_stream), so a huge submission cannot starve later
// equal-priority ones. Queued jobs start in priority order (FIFO within a
// class).
//
// Job lifecycle: a request is parsed once, when it arrives (submit) or is
// read back from the store (recovery), and the job keeps that parse.
// enqueue_locked is the one way into `queued` — new, revived and
// recovered jobs alike — and finish_job the one way out into done,
// failed or cancelled, whether the job was queued or running.
//
// Cancellation: a queued job cancels immediately (its store dir is
// tombstoned and purged). A *running* job cancels cooperatively — the
// worker's search observes the job's cancel token as a budget cut at the
// next task boundary, leaves the last task-boundary checkpoint on disk,
// and the job lands in `cancelled` without touching the result cache or
// the profiles-db buckets. Re-submitting the identical request re-enqueues
// the cancelled job, which resumes from that checkpoint to the
// byte-identical result.
//
// Caches, layered on the profiles-db format:
//  - Result cache: request fingerprint (machine, graph, algorithm,
//    canonical options/sim JSON, journal + reuse flags) → completed job.
//    A repeat submission is answered instantly from the finished job —
//    zero new simulator runs — and bumps
//    `automap_service_result_cache_hits_total`.
//  - Evaluation cache: per (machine fp, graph fp, sim, measurement
//    options) bucket holding a profiles database; the per-mapping-hash,
//    per-seed run reuse happens inside the evaluator exactly as with the
//    CLI's --profiles flag. Opt-in per request (`reuse_measurements`),
//    because seeding measurements changes a search's cache-hit statistics
//    versus a cold run — the default path stays byte-identical to the
//    one-shot CLI.
//
// Persistence: every job writes store/jobs/<id>/{request.json, checkpoint,
// journal.jsonl, result.json}; cache buckets live in store/cache/. On
// construction the service rescans the store — completed jobs re-enter the
// result cache, interrupted jobs re-enqueue and resume from their PR 4
// checkpoint — so a daemon restart loses nothing.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/service/flight_recorder.hpp"
#include "src/service/wire.hpp"
#include "src/support/deadline_wheel.hpp"
#include "src/support/metrics.hpp"
#include "src/support/thread_pool.hpp"

namespace automap {

struct JsonValue;
struct SubmitSpec;

struct ServiceConfig {
  /// Job-store/cache directory (created if missing; probed with
  /// require_writable_path before the service accepts anything).
  std::string store_dir;
  /// Lanes in the shared evaluation pool (0 = hardware threads). Results
  /// are bit-identical for every value.
  int eval_threads = 0;
  /// Concurrent job workers. 0 = no worker threads: jobs run only via
  /// drain(), which tests use for deterministic scheduling.
  int job_workers = 2;
  /// Maximum accepted request payload; larger requests get a structured
  /// `too_large` error.
  std::size_t max_request_bytes = kDefaultMaxFrameBytes;
  /// Byte budget for the job store (the jobs/ tree). When the total
  /// exceeds it, finished (done/failed/cancelled) job dirs are evicted
  /// least-recently-served first; queued and running jobs are never
  /// evicted, so a budget smaller than the active working set is exceeded
  /// until those jobs finish. 0 = unbounded.
  std::size_t max_store_bytes = 0;
  /// Entry budget for the result cache (completed jobs answerable by
  /// fingerprint). Evicting an entry deletes the whole job — a later
  /// identical submission simply recomputes. 0 = unbounded.
  std::size_t max_result_cache = 0;
  /// Entry budget for the cross-job evaluation cache (profiles-db buckets
  /// under cache/), least-recently-served eviction. 0 = unbounded.
  std::size_t max_eval_cache = 0;
  /// Admission control: maximum jobs waiting in `queued`. A submit that
  /// would exceed it is answered with a structured
  /// `{"type":"error","code":"overloaded","retry_after_ms":N}` instead of
  /// silently growing the queue. 0 = unbounded.
  std::size_t max_queued_jobs = 0;
  /// Admission control: maximum queued + running jobs. Same `overloaded`
  /// answer when exceeded. 0 = unbounded.
  std::size_t max_inflight = 0;
  /// Clock for the flight recorder and the latency histograms,
  /// milliseconds on an arbitrary steady epoch. Empty =
  /// std::chrono::steady_clock; tests inject a fake for deterministic
  /// span and quantile assertions.
  std::function<double()> clock_ms;
};

class MappingService {
 public:
  explicit MappingService(const ServiceConfig& config);
  ~MappingService();

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// Handles one request JSON and returns the response JSON. Thread-safe;
  /// never throws — every failure becomes a `{"type":"error",...}`
  /// response. Long-running work (the searches themselves) happens on job
  /// workers, not here; `handle` only enqueues and reads state.
  [[nodiscard]] std::string handle(const std::string& request_json);

  /// Runs queued jobs on the calling thread until the queue is empty.
  /// The job_workers == 0 test mode; safe alongside workers too.
  void drain();

  /// True once a `shutdown` request was accepted; the socket server polls
  /// this to exit its accept loop.
  [[nodiscard]] bool shutdown_requested() const;

  /// Service-level metrics (result-cache hits, jobs by outcome, aggregated
  /// simulator runs). Exposed over the `stats` op.
  [[nodiscard]] std::string expose_metrics();

  /// Latency quantiles ({"name":{"p50":...},...}) for every non-empty
  /// histogram — the `stats` response's "quantiles" member.
  [[nodiscard]] std::string latency_quantiles();

  /// Chrome tracing JSON of everything the flight recorder holds (job
  /// lanes per worker, a queue lane, service-event instants). Written to
  /// `--service-trace` when the daemon exits.
  [[nodiscard]] std::string render_service_trace() const;

  // Transport-side incident counters, bumped by the socket server so
  // slow-client defenses show up in `stats`.
  void note_io_timeout();
  void note_idle_reaped();

 private:
  enum class JobStatus { kQueued, kRunning, kDone, kFailed, kCancelled };

  struct Job {
    std::uint64_t id = 0;
    JobStatus status = JobStatus::kQueued;
    /// The submit request as parsed when it arrived (at submit, revival
    /// or store recovery). Shared so run_job reads it outside mutex_.
    std::shared_ptr<const SubmitSpec> spec;
    /// Completed response payload (op=result body) or failure message.
    std::string result_json;
    std::string error;
    /// Cooperative cancel token, shared with the search running the job
    /// (SearchOptions::cancel). Fresh per enqueue — a revived cancelled
    /// job gets a new one.
    std::shared_ptr<std::atomic<bool>> cancel;
    /// Why the job was (or is being) cancelled: "client" for an explicit
    /// cancel op, "deadline" for an expired per-submit deadline_ms.
    /// Reported in the `status` response's "reason" field.
    std::string cancel_reason;
    /// Last tick this job's result was served (completion, result-cache
    /// hit, or result fetch) — the LRU key for eviction.
    std::uint64_t last_served = 0;
    /// Bytes this job's store dir currently holds (request, checkpoint,
    /// journal, result). Re-measured when the job finishes.
    std::size_t store_bytes = 0;
  };

  /// Where a job entering `queued` came from.
  enum class Origin { kSubmitted, kRevived, kRecovered };

  /// How a job ended, as handed to finish_job.
  struct Outcome {
    JobStatus status;
    std::string error;                 // kFailed: the failure message
    std::string result_json;           // kDone: the op=result payload
    std::uint64_t bucket_written = 0;  // eval-cache bucket this job wrote
    std::uint64_t sim_runs = 0;
  };

  [[nodiscard]] static const char* status_name(JobStatus status);
  [[nodiscard]] std::string job_dir(std::uint64_t id) const;

  /// handle() minus the timing wrapper: dispatches one request and
  /// reports which op label it ran as (a member of the fixed label set,
  /// "other" for anything unrecognized) for the per-op latency histogram
  /// and error counter.
  [[nodiscard]] std::string dispatch(const std::string& request_json,
                                     std::string& op_label);

  // Request handlers (mutex_ held by caller where noted).
  [[nodiscard]] std::string handle_submit(const JsonValue& request,
                                          const std::string& request_json);
  [[nodiscard]] std::string handle_status(const JsonValue& request);
  [[nodiscard]] std::string handle_result(const JsonValue& request);
  [[nodiscard]] std::string handle_journal(const JsonValue& request);
  [[nodiscard]] std::string handle_cancel(const JsonValue& request);
  [[nodiscard]] std::string handle_trace(const JsonValue& request);
  [[nodiscard]] std::string handle_jobs();

  /// Runs one job to completion (no service mutex held during the search)
  /// and hands its outcome to finish_job. `worker` tags the job's running
  /// span with its lane in the flight recorder.
  void run_job(std::uint64_t id, int worker);
  /// The one way into `queued`: stores `spec` on job `id` (creating the
  /// entry for a new job), hands it a fresh cancel token, persists
  /// `request_json` as request.json unless the job was recovered from it,
  /// records the `queued` span and arms the deadline. mutex_ held.
  void enqueue_locked(std::uint64_t id, std::shared_ptr<const SubmitSpec> spec,
                      Origin origin, const std::string& request_json);
  /// The one way out of `queued` or `running`: lands the status, writes
  /// the tombstone of a cancel ("purge" for a queued client cancel, "keep"
  /// otherwise), seals the timeline and persists it, re-measures the job
  /// dir, bumps the outcome metrics, indexes a result and enforces the
  /// budgets. Called with `lock` held on mutex_; for a running job the
  /// lock is released around the disk I/O.
  void finish_job(std::unique_lock<std::mutex>& lock, std::uint64_t id,
                  Outcome outcome);
  /// Sets `job`'s share of the store-bytes total to `bytes`. mutex_ held.
  void set_store_bytes_locked(Job& job, std::size_t bytes);
  /// Jobs in `queued`. mutex_ held.
  [[nodiscard]] std::size_t queued_count_locked() const;
  /// Picks the highest-priority queued job (FIFO within a class) and
  /// marks it running; 0 when none. mutex_ held by caller.
  [[nodiscard]] std::uint64_t claim_next_locked();
  void worker_loop(int worker);

  /// Rescans the store directory: completed jobs re-enter the result
  /// cache, interrupted ones re-enqueue (resuming from their checkpoint),
  /// tombstoned dirs are cleaned up or recovered as cancelled. Torn or
  /// corrupt artifacts (bad checksum trailer) are quarantined — renamed
  /// to `*.corrupt`, counted — never a startup failure. mutex_ held by
  /// caller (the deadline-wheel thread is already live during recovery).
  void recover_store_locked();

  /// Admission control: when the queued/inflight caps are exceeded,
  /// returns the structured `overloaded` response; empty string when the
  /// submit may proceed. mutex_ held by caller.
  [[nodiscard]] std::string admission_error_locked();

  /// Deadline-wheel expiry callback: flips the job's cancel token (running)
  /// or lands it in `cancelled` with reason "deadline" (queued),
  /// checkpoint and store dir kept for a byte-identical resume.
  void on_deadline(std::uint64_t id);

  /// Renames a torn/corrupt file or dir to a fresh `*.corrupt[.N]` path
  /// and counts it. Returns false when the rename itself failed.
  bool quarantine_path(const std::string& path);

  /// Bumps a job's LRU clock. mutex_ held by caller.
  void touch_locked(Job& job);
  /// Deletes one finished job entirely — tombstone, dir, maps, byte
  /// accounting. mutex_ held by caller.
  void evict_job_locked(std::uint64_t id);
  /// Records that the eval-cache bucket `bucket` was just read or written
  /// and evicts over-budget buckets. mutex_ held by caller.
  void touch_bucket_locked(std::uint64_t bucket);
  /// Enforces max_result_cache and max_store_bytes by evicting
  /// least-recently-served finished jobs. mutex_ held by caller.
  void enforce_budgets_locked();
  /// Refreshes the entries gauges after any cache mutation. mutex_ held.
  void update_cache_gauges_locked();

  [[nodiscard]] std::string bucket_path(std::uint64_t bucket) const;

  ServiceConfig config_;
  ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::map<std::uint64_t, Job> jobs_;  // ordered: `jobs` lists by id
  std::uint64_t next_id_ = 1;
  /// fingerprint → completed job id (the result cache index).
  std::map<std::uint64_t, std::uint64_t> by_fingerprint_;
  /// Monotone LRU clock for jobs and eval-cache buckets.
  std::uint64_t serve_tick_ = 0;
  /// Total bytes under jobs/ per the jobs_ accounting.
  std::size_t store_bytes_total_ = 0;
  /// eval-cache bucket key → last-served tick (files under cache/).
  std::map<std::uint64_t, std::uint64_t> eval_buckets_;
  bool shutdown_ = false;
  bool stopping_ = false;

  MetricsRegistry metrics_;
  Counter* m_submitted_ = nullptr;
  Counter* m_completed_ = nullptr;
  Counter* m_failed_ = nullptr;
  Counter* m_cancelled_ = nullptr;
  Counter* m_result_cache_hits_ = nullptr;
  Counter* m_result_cache_misses_ = nullptr;
  Counter* m_result_cache_evictions_ = nullptr;
  Counter* m_eval_cache_seeded_ = nullptr;
  Counter* m_eval_cache_misses_ = nullptr;
  Counter* m_eval_cache_evictions_ = nullptr;
  Gauge* m_result_cache_entries_ = nullptr;
  Gauge* m_eval_cache_entries_ = nullptr;
  Gauge* m_store_bytes_ = nullptr;
  Counter* m_sim_runs_ = nullptr;
  Counter* m_overloaded_ = nullptr;
  Counter* m_deadline_expired_ = nullptr;
  Counter* m_quarantined_ = nullptr;
  Counter* m_io_timeouts_ = nullptr;
  Counter* m_idle_reaped_ = nullptr;
  Gauge* m_uptime_ = nullptr;
  /// Queue-wait (submit → running) and end-to-end (submit → terminal)
  /// job latencies, observed under mutex_ (Histogram is not thread-safe).
  Histogram* m_queue_wait_ = nullptr;
  Histogram* m_job_duration_ = nullptr;
  /// Per-op handle latency histogram and error counter, one pair per
  /// member of the fixed op label set (plus "other" for unknown ops —
  /// labels never come from client-controlled strings).
  std::map<std::string, std::pair<Histogram*, Counter*>> op_metrics_;

  /// Per-job lifecycle span timelines + service-event ring. Has its own
  /// mutex and never calls back into the service, so both locked and
  /// unlocked paths record directly.
  FlightRecorder recorder_;
  /// Milliseconds clock shared with the recorder (config_.clock_ms or
  /// steady_clock); start_ms_ anchors the uptime gauge.
  std::function<double()> clock_ms_;
  double start_ms_ = 0;

  /// Arms per-job deadline_ms; expiry calls on_deadline. Constructed
  /// before recover_store_locked (recovered queued jobs re-arm) and torn
  /// down after the workers join.
  std::unique_ptr<DeadlineWheel> wheel_;

  std::vector<std::thread> workers_;
};

}  // namespace automap
