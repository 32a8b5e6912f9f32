#pragma once

// Minimal deterministic data-parallel layer.
//
// Design goals (in order): reproducibility, simplicity, throughput.
//
// The pool is a shared task queue drained by a fixed set of workers.  Work
// is submitted in bulk through a TaskGroup (a wait-group): submit any
// number of tasks, then wait() for all of them.  Exceptions thrown inside
// tasks are captured and rethrown from wait() — never swallowed, never
// std::terminate.  Multiple threads may submit to the same pool
// concurrently; each TaskGroup tracks only its own tasks.
//
// Determinism: parallel_reduce gives each *chunk* its own accumulator and
// merges the partials **in chunk order**, so floating-point results are
// bit-stable for a fixed pool size, and all our statistics accumulators
// are additionally order-insensitive so results are stable across thread
// counts too.  Which OS thread runs a chunk never affects the result.
//
// Nesting: a task running on a worker of pool P that calls parallel_for /
// parallel_reduce / run_on_all on P executes the loop inline and
// sequentially (the outer parallelism level owns the workers).  TaskGroup
// submission from a worker is allowed — wait() helps drain its own group's
// queued tasks, so nested waits cannot deadlock.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace_span.hpp"

namespace ssdfail::parallel {

/// Number of worker threads to use by default: hardware concurrency,
/// overridable with the SSDFAIL_THREADS environment variable or
/// programmatically with set_default_thread_count() (e.g. a --threads CLI
/// flag).  The programmatic override wins over the environment.
[[nodiscard]] unsigned default_thread_count();

/// Override default_thread_count() for this process (0 clears the
/// override).  Must be called before the first use of ThreadPool::global()
/// to affect the shared pool, which is sized exactly once.
void set_default_thread_count(unsigned threads);

class TaskGroup;

/// A fixed pool of workers draining a shared task queue.  The pool is
/// intended for coarse-grained fold/tree/fleet-level parallelism; tasks
/// should be >> 1us each.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads = default_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Run fn(chunk_index) for every chunk_index in [0, size()) and block
  /// until all return.  Re-entrant calls from a worker of this pool
  /// (nested parallelism) degrade gracefully to sequential execution on
  /// the calling thread.  The first exception thrown by any chunk is
  /// rethrown here after all chunks finish.
  void run_on_all(const std::function<void(unsigned)>& fn);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

  /// The pool "context" of the calling thread: the pool this thread is a
  /// worker of, else the global pool.  Default for the parallel loops, so
  /// code launched as a pool task stays inside its pool's thread budget
  /// instead of fanning out on the global pool.
  static ThreadPool& current();

  /// True iff the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    /// Submitter's span context, adopted by whichever thread runs the
    /// task (worker or helper) so spans opened inside attribute to the
    /// submitting call-site — same inheritance rule as the pool context.
    obs::SpanContext span_ctx;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void worker_loop();
  void enqueue(Task task);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
};

/// Wait-group over a ThreadPool: bulk-submit independent tasks, then
/// wait() for all of them.  wait() rethrows the first exception any task
/// threw, and *helps* — it runs this group's still-queued tasks inline —
/// so waiting from a worker thread of the same pool makes progress even
/// when every worker is busy.
///
/// A TaskGroup is owned by one submitting thread; submit() and wait() are
/// not themselves thread-safe against each other (tasks, of course, run
/// concurrently).  The destructor waits for stragglers (discarding any
/// unretrieved exception) so tasks never outlive captured state.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::current()) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue one task.  May be called from any thread, including a worker
  /// of the pool (nested submission).
  void submit(std::function<void()> fn);

  /// Block until every submitted task has finished, running queued tasks
  /// of this group inline while waiting.  Rethrows the first captured
  /// task exception.  After wait() returns the group is reusable.
  void wait();

 private:
  friend class ThreadPool;

  /// Execute one task body on behalf of this group (worker or helper).
  void run_task(const std::function<void()>& fn) noexcept;
  void on_dequeued() noexcept;

  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::size_t pending_ = 0;  ///< submitted, not yet finished
  std::size_t queued_ = 0;   ///< submitted, not yet picked up
  std::exception_ptr error_;
};

/// Parallel loop over [0, n): static contiguous partitioning, one chunk
/// per worker slot.  body(i) must be safe to run concurrently for
/// distinct i.  Exceptions from body propagate to the caller.
template <typename Body>
void parallel_for(std::size_t n, const Body& body, ThreadPool& pool = ThreadPool::current()) {
  const unsigned workers = pool.size();
  if (n == 0) return;
  if (workers <= 1 || n == 1 || pool.on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::function<void(unsigned)> task = [&](unsigned w) {
    const std::size_t chunk = (n + workers - 1) / workers;
    const std::size_t begin = std::min<std::size_t>(static_cast<std::size_t>(w) * chunk, n);
    const std::size_t end = std::min(begin + chunk, n);
    for (std::size_t i = begin; i < end; ++i) body(i);
  };
  pool.run_on_all(task);
}

/// Dynamic loop over [0, n): up to pool.size() tasks each build one state
/// with make_state() and call body(i, state) for indices claimed from a
/// shared counter until none are left.  Indices are claimed in increasing
/// order across all tasks, so every index below a claimed one is already
/// held by a running task.  Like parallel_for, it runs inline (one state,
/// i in order) when the pool has one worker, n <= 1, or the caller is a
/// worker of `pool`.  Exceptions from body propagate to the caller.
template <typename MakeState, typename Body>
void parallel_drain(std::size_t n, const MakeState& make_state, const Body& body,
                    ThreadPool& pool = ThreadPool::current()) {
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    auto state = make_state();
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) body(i, state);
  };
  if (pool.size() <= 1 || n <= 1 || pool.on_worker_thread()) {
    drain();
    return;
  }
  TaskGroup group(pool);
  for (std::size_t w = 0; w < std::min<std::size_t>(pool.size(), n); ++w) group.submit(drain);
  group.wait();
}

/// Parallel reduction over [0, n).
///  - make():             produce a fresh accumulator (per chunk)
///  - accumulate(acc, i): fold element i into acc
///  - merge(dst, src):    combine partials; called in chunk order
/// Returns the final accumulator.
template <typename Make, typename Accumulate, typename Merge>
auto parallel_reduce(std::size_t n, const Make& make, const Accumulate& accumulate,
                     const Merge& merge, ThreadPool& pool = ThreadPool::current()) {
  using Acc = decltype(make());
  const unsigned workers = pool.size();
  if (workers <= 1 || n <= 1 || pool.on_worker_thread()) {
    Acc acc = make();
    for (std::size_t i = 0; i < n; ++i) accumulate(acc, i);
    return acc;
  }
  std::vector<Acc> partials;
  partials.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) partials.push_back(make());

  std::function<void(unsigned)> task = [&](unsigned w) {
    const std::size_t chunk = (n + workers - 1) / workers;
    const std::size_t begin = std::min<std::size_t>(static_cast<std::size_t>(w) * chunk, n);
    const std::size_t end = std::min(begin + chunk, n);
    for (std::size_t i = begin; i < end; ++i) accumulate(partials[w], i);
  };
  pool.run_on_all(task);

  Acc result = std::move(partials[0]);
  for (unsigned w = 1; w < workers; ++w) merge(result, partials[w]);
  return result;
}

}  // namespace ssdfail::parallel
