// Shared-memory work-stealing thread pool — the wall-clock execution layer.
//
// Focus has two parallelism layers (see DESIGN.md, "Execution model"):
// the mpr runtime simulates *cluster* ranks in deterministic virtual time,
// while this pool provides real *host* parallelism. It has one consumer in
// the library: stage 2's index builds and query blocks under the rank
// driver, run on align::stage2_pool, the only place that constructs a pool.
//
// Design:
//  * One task deque per participant (the calling thread occupies slot 0,
//    spawned workers slots 1..threads-1). parallel_for() splits an index
//    range into chunks and scatters them round-robin; each participant pops
//    its own deque LIFO and steals FIFO from the others when it runs dry,
//    so imbalanced chunks (e.g. repeat-rich read subsets) migrate to idle
//    threads automatically.
//  * The calling thread is a full participant: it executes and steals tasks
//    while it waits, so nothing blocks on a pool smaller than the work.
//  * threads == 1 is an explicit serial fallback: no worker threads are
//    spawned and parallel_for() runs inline, chunk by chunk, in index order.
//  * Determinism: callers write results into per-index slots and merge them
//    in index order, so output never depends on the execution interleaving.
//    Every user of the pool in this codebase is byte-identical for any
//    thread count (enforced by tests/threads_test.cpp).
//
// Thread-count resolution: an explicit positive count wins; 0 means "auto" —
// the FOCUS_THREADS environment variable if set (strictly validated via
// EnvSnapshot: 0 = auto, 1..256 = width, anything else throws), else
// hardware concurrency.
//
// Multi-pool safety: several pools may coexist in one process (stage 2 keeps
// one per width for the life of the process; tests build their own).
// The worker-slot thread_local is keyed by pool identity, so a thread
// entering a pool it does not work for participates as an external caller
// (slot 0) instead of indexing a foreign deque array.
//
// Several external callers on one pool are supported: stage 2 shares one
// pool among all rank threads of a call, and each calls parallel_for at
// will. Every call tracks its own batch (a pending-chunk count and the
// first exception), so it returns once its own chunks have run, and an
// exception reaches only the caller whose chunk threw. A waiting caller may
// run other callers' chunks; each chunk writes only its own caller's
// results, so that changes who computes them, never what they are.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace focus {

struct EnvSnapshot;

/// Pool width used when a config asks for "auto" (threads == 0):
/// FOCUS_THREADS if set to a positive integer, else hardware concurrency.
/// A set-but-malformed FOCUS_THREADS (garbage, trailing junk, negative,
/// overflow, > 256) throws focus::Error naming the offending value.
unsigned default_thread_count();

/// Same, resolved against an already-captured environment snapshot.
unsigned default_thread_count(const EnvSnapshot& env);

/// Resolves a configured thread count: positive values pass through,
/// 0 resolves via default_thread_count(). Always returns >= 1.
unsigned resolve_thread_count(unsigned requested);

class ThreadPool {
 public:
  /// `threads` is resolved with resolve_thread_count(); the pool spawns
  /// threads-1 workers (the caller participates as the remaining one).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return threads_; }

  /// Runs fn(begin, end) over a partition of [0, n) into chunks of at most
  /// `grain` indices. Blocks until every chunk has finished; the calling
  /// thread executes and steals chunks while waiting. The first exception
  /// thrown by any chunk is rethrown here (remaining chunks still run).
  /// The chunk decomposition depends only on (n, grain) — never on the
  /// thread count — so per-chunk accumulators merge identically everywhere.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Maps fn over [0, n) into a vector: out[i] = fn(i). Results land in
  /// index order regardless of which thread computed them. T must be
  /// default-constructible and movable.
  template <typename T, typename Fn>
  std::vector<T> parallel_transform(std::size_t n, std::size_t grain,
                                    Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
    });
    return out;
  }

 private:
  struct Deque {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_main(unsigned self);
  bool try_acquire(unsigned self, std::function<void()>& task);

  unsigned threads_;
  std::vector<std::unique_ptr<Deque>> deques_;  // slot 0 = caller
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> unclaimed_{0};  // tasks sitting in deques
  bool stop_ = false;
};

}  // namespace focus
