#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "common/error.hpp"

namespace focus {

namespace {

/// Pool-affine slot of the current thread: workers record (their pool, their
/// slot id); every external caller — and any thread entering a *different*
/// pool than the one it works for — resolves to slot 0 of the entered pool.
/// A nested parallel_for issued from inside a task of the same pool then
/// drains from the worker's own deque first (LIFO). Keying the slot
/// by pool identity is what makes several ThreadPools safe in one process
/// (two concurrent assemblies each run their own pools): a worker of pool A
/// that enters pool B must not index B's deques with A's slot id, which can
/// exceed B's width.
struct SlotContext {
  const void* pool = nullptr;
  unsigned slot = 0;
};
thread_local SlotContext t_ctx;

}  // namespace

unsigned default_thread_count() {
  return default_thread_count(EnvSnapshot::capture());
}

unsigned default_thread_count(const EnvSnapshot& env) {
  if (const auto width = env.thread_count()) return *width;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

unsigned resolve_thread_count(unsigned requested) {
  return requested >= 1 ? requested : default_thread_count();
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(resolve_thread_count(threads)) {
  deques_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    deques_.push_back(std::make_unique<Deque>());
  }
  workers_.reserve(threads_ - 1);
  for (unsigned w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::try_acquire(unsigned self, std::function<void()>& task) {
  // Own deque first (LIFO: the freshest chunk is the one whose pages are
  // warm), then round-robin steals from the victims' FIFO end.
  for (unsigned k = 0; k < threads_; ++k) {
    const unsigned victim = (self + k) % threads_;
    Deque& d = *deques_[victim];
    std::lock_guard<std::mutex> lk(d.mu);
    if (d.tasks.empty()) continue;
    if (victim == self) {
      task = std::move(d.tasks.back());
      d.tasks.pop_back();
    } else {
      task = std::move(d.tasks.front());
      d.tasks.pop_front();
    }
    unclaimed_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::worker_main(unsigned self) {
  t_ctx = {this, self};
  std::function<void()> task;
  while (true) {
    if (try_acquire(self, task)) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_cv_.wait(lk, [this] {
      return stop_ || unclaimed_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_) return;
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);

  if (threads_ == 1) {
    // Serial fallback: same chunk decomposition, executed in index order.
    for (std::size_t begin = 0; begin < n; begin += grain) {
      fn(begin, std::min(n, begin + grain));
    }
    return;
  }

  struct Batch {
    std::atomic<std::size_t> remaining;
    std::mutex eptr_mu;
    std::exception_ptr eptr;
  } batch;
  const std::size_t chunks = (n + grain - 1) / grain;
  batch.remaining.store(chunks, std::memory_order_relaxed);

  std::size_t chunk_idx = 0;
  for (std::size_t begin = 0; begin < n; begin += grain, ++chunk_idx) {
    const std::size_t end = std::min(n, begin + grain);
    auto chunk = [&batch, &fn, begin, end] {
      try {
        fn(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lk(batch.eptr_mu);
        if (!batch.eptr) batch.eptr = std::current_exception();
      }
      batch.remaining.fetch_sub(1, std::memory_order_release);
    };
    Deque& d = *deques_[chunk_idx % threads_];
    std::lock_guard<std::mutex> lk(d.mu);
    d.tasks.push_back(std::move(chunk));
  }
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    unclaimed_.fetch_add(chunks, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();

  // The caller is a full participant: execute and steal until the batch
  // drains (starting from its own deque when called from inside a task of
  // *this* pool; threads foreign to this pool scan from slot 0).
  const unsigned self = t_ctx.pool == this ? t_ctx.slot : 0;
  std::function<void()> task;
  while (batch.remaining.load(std::memory_order_acquire) > 0) {
    if (try_acquire(self, task)) {
      task();
      task = nullptr;
    } else {
      std::this_thread::yield();
    }
  }
  if (batch.eptr) std::rethrow_exception(batch.eptr);
}

}  // namespace focus
