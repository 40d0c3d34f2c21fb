#pragma once

// Fixed-size worker pool for batch candidate evaluation.
//
// The search layer's unit of parallelism is one simulated run of one
// candidate mapping — Simulator::run is const and seed-parameterized, so
// runs are embarrassingly parallel. The pool exposes exactly the primitive
// the Evaluator needs: parallel_for over an index space, with the calling
// thread participating so a pool of size N uses N lanes, not N+1, and a
// pool of size 1 degenerates to an inline loop with zero synchronization.
//
// Scheduling: tasks queue per (priority class, stream). Priority classes
// are strict — the highest class always drains first. *Within* a class the
// pool round-robins across streams, one task per stream per turn, so two
// jobs submitting batches at equal priority interleave their work instead of the earlier, larger submission
// occupying every worker until it finishes. A stream is any caller-chosen
// id — the mapping service uses the job id — and stream 0 is the default
// for callers that never compete.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <condition_variable>
#include <deque>
#include <list>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace automap {

class ThreadPool {
 public:
  /// A pool with `threads` total lanes (including the caller of
  /// parallel_for); spawns `threads - 1` workers. threads < 1 is clamped
  /// to 1 (inline execution, no workers).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes, including the calling thread.
  [[nodiscard]] int thread_count() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs body(0) .. body(n-1), each exactly once, across the pool plus
  /// the calling thread. Indices are claimed dynamically, so per-index
  /// runtimes may vary freely. Blocks until every index completed. The
  /// first exception thrown by any body is rethrown on the caller (the
  /// remaining indices still run to completion). Not reentrant: bodies
  /// must not call parallel_for on the same pool. Concurrent calls from
  /// *different* threads are safe and share the workers; `priority` picks
  /// which call's helpers drain first when they compete (higher first,
  /// round robin across `stream` ids within a class). The caller
  /// always participates regardless of priority, so a low-priority call
  /// makes progress even under a steady stream of high-priority work.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    int priority = 0, std::uint64_t stream = 0);

  /// Lane-indexed variant: body(lane, index) where `lane` identifies the
  /// execution lane running the index — 0 for the calling thread, 1..k for
  /// the helpers of this call. Lanes are exclusive within one parallel_for
  /// (two indices with the same lane never run concurrently) and lane ids
  /// stay below thread_count(), so callers can hand each lane its own
  /// mutable scratch state without synchronization.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t lane,
                                             std::size_t index)>& body,
                    int priority = 0, std::uint64_t stream = 0);

  /// Fire-and-forget: enqueues one task into (priority, stream) for the
  /// workers to run. No completion signal — callers that need one build it
  /// into the task. Pending tasks still run during destruction (workers
  /// drain the queue before joining). With no workers the task runs
  /// inline.
  void post(std::function<void()> task, int priority = 0,
            std::uint64_t stream = 0);

  /// The machine's hardware concurrency, with a floor of 1.
  [[nodiscard]] static int hardware_threads();

 private:
  /// One stream's backlog within a priority class.
  struct StreamQueue {
    std::uint64_t stream = 0;
    std::deque<std::function<void()>> tasks;
  };
  /// One priority class: its streams in round-robin rotation order. New
  /// streams join at the back of the rotation; an emptied stream leaves it.
  struct ClassQueue {
    std::list<StreamQueue> rotation;
  };

  void post_locked(std::function<void()>&& task, int priority,
                   std::uint64_t stream);
  /// Pops the next task per policy: highest priority class, then round
  /// robin across that class's streams. Queue must be
  /// non-empty; mutex held by caller.
  [[nodiscard]] std::function<void()> pop_locked();
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  /// Priority classes, highest first; round robin across streams within a
  /// class.
  /// Emptied classes are erased so the common single-class case stays one
  /// rotation list.
  std::map<int, ClassQueue, std::greater<int>> queue_;
  bool stop_ = false;
};

}  // namespace automap
