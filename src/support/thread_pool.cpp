#include "src/support/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace automap {

namespace {

/// Shared state of one parallel_for call. Helpers and the caller claim
/// indices from `next`; `remaining_helpers` gates the caller's exit.
struct ForState {
  std::size_t n = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t remaining_helpers = 0;
  std::exception_ptr error;
  /// Item index whose exception is stored in `error`. Keeping the *lowest*
  /// index (not whichever throw won the lock race) makes the rethrown
  /// exception deterministic at any thread count: it is always the one a
  /// serial loop would have hit first.
  std::size_t error_index = 0;

  /// `lane` is fixed per drainer (0 = caller, 1..k = helper closures), so
  /// two indices with the same lane never run concurrently even if one
  /// worker thread happens to execute several helper closures.
  void drain(std::size_t lane) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        (*body)(lane, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::post_locked(std::function<void()>&& task, int priority,
                             std::uint64_t stream) {
  ClassQueue& cls = queue_[priority];
  for (StreamQueue& sq : cls.rotation) {
    if (sq.stream == stream) {
      sq.tasks.push_back(std::move(task));
      return;
    }
  }
  StreamQueue sq;
  sq.stream = stream;
  sq.tasks.push_back(std::move(task));
  cls.rotation.push_back(std::move(sq));
}

std::function<void()> ThreadPool::pop_locked() {
  // Round robin within the highest priority class: each pop serves one
  // task from the front stream and moves that stream to the back, so
  // concurrent equal-priority streams alternate instead of draining in
  // arrival order. An emptied stream leaves the rotation.
  const auto bucket = queue_.begin();  // highest priority class
  ClassQueue& cls = bucket->second;
  StreamQueue& sq = cls.rotation.front();
  std::function<void()> task = std::move(sq.tasks.front());
  sq.tasks.pop_front();
  if (sq.tasks.empty())
    cls.rotation.pop_front();
  else if (cls.rotation.size() > 1)
    cls.rotation.splice(cls.rotation.end(), cls.rotation,
                        cls.rotation.begin());
  if (cls.rotation.empty()) queue_.erase(bucket);
  return task;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = pop_locked();
    }
    job();
  }
}

void ThreadPool::post(std::function<void()> task, int priority,
                      std::uint64_t stream) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    post_locked(std::move(task), priority, stream);
  }
  work_cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              int priority, std::uint64_t stream) {
  parallel_for(n, [&body](std::size_t, std::size_t index) { body(index); },
               priority, stream);
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body,
    int priority, std::uint64_t stream) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->body = &body;
  // No more helpers than indices: a helper with nothing to claim would
  // only add wake-up latency.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  state->remaining_helpers = helpers;

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      post_locked(
          [state, lane = h + 1] {
            state->drain(lane);
            {
              const std::lock_guard<std::mutex> state_lock(state->mutex);
              --state->remaining_helpers;
            }
            state->done_cv.notify_one();
          },
          priority, stream);
    }
  }
  work_cv_.notify_all();

  state->drain(0);
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock,
                        [&] { return state->remaining_helpers == 0; });
    if (state->error) std::rethrow_exception(state->error);
  }
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace automap
