// Concurrency substrate for the localization pipeline.
//
// A fixed-size thread pool with index-based fan-out: parallel_for(n, fn)
// invokes fn(0..n-1) across the workers plus the calling thread, and
// parallel_map collects per-index results in index order. The design
// goals, in priority order:
//
//  1. Determinism — callers slot results by index, never by completion
//     order, so a pipeline run with 1 thread and with N threads produces
//     byte-identical output (the per-task Rng streams are forked by the
//     caller before dispatch; see SpotFiServer::try_localize).
//  2. Exception transparency — a task that throws is captured and the
//     exception of the *lowest failing index* is rethrown on the calling
//     thread after the batch drains, matching the serial loop's "first
//     failure wins" surface.
//  3. Nested-submit safety — a parallel_for issued from inside a worker
//     (per-packet fan-out inside a per-AP task) runs inline on that
//     worker, so the pool can never deadlock on its own tasks and the
//     outermost fan-out keeps the coarsest (most efficient) granularity.
//
// Thread-count resolution is shared with every knob that configures the
// pipeline: 0 means hardware concurrency, 1 means strictly serial (no
// worker threads are ever created, calls run inline on the caller), and
// the SPOTFI_THREADS environment variable overrides the configured value
// wholesale — the ops-friendly way to flip a deployed binary between
// serial and parallel without a rebuild.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/workspace.hpp"

namespace spotfi {

class ThreadPool {
 public:
  /// Creates a pool of exactly `n_threads` lanes of concurrency (the
  /// calling thread participates, so `n_threads - 1` workers are
  /// spawned). 0 is resolved to hardware concurrency; 1 creates no
  /// workers and makes every parallel_for a plain serial loop. The
  /// constructor applies no environment override — resolve the user's
  /// request with resolve_threads() first when SPOTFI_THREADS should
  /// apply.
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stops and joins the worker threads. Idempotent; the destructor
  /// calls it. After shutdown the pool is still usable: size() is 1 and
  /// every parallel_for runs as the plain inline serial loop, so
  /// submit-after-shutdown is well-defined (correct, just serial)
  /// rather than UB.
  ///
  /// Shutdown concurrent with an in-flight parallel_for is safe: a
  /// worker that observes the stop flag exits without claiming further
  /// indices, and the dispatching caller — which always participates in
  /// its own batch — finishes the remaining indices inline. The batch
  /// completes, its exceptions propagate as usual, and no index is ever
  /// lost or run twice. What shutdown does NOT do is interrupt a task
  /// already running: a task that blocks forever blocks shutdown
  /// forever (tasks are not cancellable).
  void shutdown();

  /// Total lanes of concurrency, including the calling thread (>= 1).
  [[nodiscard]] std::size_t size() const;

  /// Invokes fn(i) for every i in [0, n). Blocks until every index has
  /// run. The calling thread participates. Exceptions are captured per
  /// index; after the batch completes, the exception thrown by the
  /// lowest failing index is rethrown here (remaining indices still
  /// run). Reentrant calls from worker threads run inline.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// parallel_for that collects fn(i) into a vector in index order.
  /// The result type must be default-constructible and movable.
  template <typename Fn>
  [[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    std::vector<decltype(fn(std::size_t{}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Resolves a configured thread count to an actual one: SPOTFI_THREADS
  /// (when set) replaces `requested`, then 0 maps to
  /// std::thread::hardware_concurrency() (minimum 1).
  ///
  /// SPOTFI_THREADS is parsed strictly: it must be a plain base-10
  /// non-negative integer no larger than kMaxEnvThreads. Anything else —
  /// empty, signs, whitespace, trailing junk, or an overflowing value —
  /// throws ContractViolation naming the offending value, instead of
  /// being silently ignored or wrapped: an operator who typo'd the knob
  /// should find out at startup, not after a day of serial throughput.
  [[nodiscard]] static std::size_t resolve_threads(std::size_t requested);

  /// Upper bound accepted from SPOTFI_THREADS. Far above any plausible
  /// machine; a value past it is a typo, not a request.
  static constexpr std::size_t kMaxEnvThreads = 4096;

  /// True when the calling thread is one of this process's pool workers
  /// (any pool). Used for the nested-submit inline fallback and tests.
  [[nodiscard]] static bool on_worker_thread();

  /// The calling thread's scratch arena for work dispatched through this
  /// pool. A worker of *this* pool gets the arena of its lane (owned by
  /// the pool, created at construction); any other thread — the caller
  /// participating in its own batch, a serial pipeline, or a worker of a
  /// different pool running a nested-inline task — gets its process-wide
  /// thread_workspace(). Either way the arena is exclusive to the
  /// calling thread, so checkouts need no synchronization.
  [[nodiscard]] Workspace& workspace() const;

  /// Scratch-arena accounting summed across this pool's worker lanes
  /// (the caller's thread_workspace() is not included). Telemetry only.
  [[nodiscard]] std::vector<WorkspaceStats> worker_workspace_stats() const;

 private:
  struct Batch;
  struct Impl;

  void worker_loop(std::size_t slot);
  void run_batch(Batch& batch);

  Impl* impl_;
};

}  // namespace spotfi
