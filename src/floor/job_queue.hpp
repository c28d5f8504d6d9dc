/// \file job_queue.hpp
/// The test floor's work queue: a multi-producer / multi-consumer FIFO of
/// JobSpecs with close semantics and bounded-capacity backpressure.
///
/// ## Structure
/// One deque: every worker pops the oldest waiting job, so a long-tailed
/// mix (one worker stuck behind a 10x hierarchical/maintenance job) never
/// idles the rest of the pool. No routing is needed for cache locality
/// because the floor's ProgramCache is shared by all workers. Each pushed
/// job is delivered to exactly one popper, tagged with its arrival slot
/// (0-based push order), which is what lets workers deposit results in
/// input order regardless of completion order.
///
/// ## Backpressure
/// A capacity bound (0 = unbounded) limits jobs *waiting* in the queue:
/// push() blocks the producer while the queue is full, try_push() returns
/// false instead. This is the streaming floor's flow control — a producer
/// submitting faster than the workers simulate is throttled at the bound
/// instead of growing the queue without limit.
///
/// ## Close semantics
/// close() declares the end of input. Blocked and future pop() calls
/// return std::nullopt once the remaining jobs are drained; blocked and
/// future push()/try_push() calls return false — a graceful rejection, not
/// a crash, because a streaming session may race producers against
/// close(). Idempotent.
///
/// Concurrency contract: every member is safe to call from any thread.

#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "floor/job.hpp"

namespace casbus::floor {

/// A job paired with its arrival slot (0-based push order). The slot is
/// what lets workers deposit results in input order — the first half of
/// the floor's order-independent aggregation rule.
struct SlottedJob {
  std::size_t slot = 0;
  JobSpec spec;
};

/// Consistent snapshot of the queue's observability counters, taken under
/// the queue mutex (JobQueue::stats()) — the race-free way to observe
/// depth the registry and FloorStats rely on. Counters are monotonic
/// except depth.
struct QueueStats {
  std::size_t depth = 0;        ///< jobs waiting right now
  std::size_t capacity = 0;     ///< configured bound (0 = unbounded)
  std::size_t high_water = 0;   ///< max depth ever reached
  std::size_t pushed = 0;       ///< jobs accepted so far
  std::size_t popped = 0;       ///< jobs handed to workers so far
  /// Producers that found the queue at capacity and had to block (one
  /// count per blocking push(), however long it waited).
  std::size_t backpressure_engages = 0;
  /// Blocked producers that were subsequently released by space (not by
  /// close()); engages - releases is the number currently blocked plus
  /// those that exited via close().
  std::size_t backpressure_releases = 0;
};

class JobQueue {
 public:
  /// \p capacity bounds the jobs waiting in the queue; 0 means unbounded.
  explicit JobQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Enqueues one job, assigning it the next arrival slot; blocks while
  /// the queue is at capacity. Returns false (dropping the job) when the
  /// queue is or becomes closed — never throws, so racing producers
  /// against close() is safe.
  [[nodiscard]] bool push(JobSpec job) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      const bool blocked = !closed_ && !has_space();
      if (blocked) ++bp_engages_;
      space_cv_.wait(lock, [this] { return closed_ || has_space(); });
      if (closed_) return false;
      if (blocked) ++bp_releases_;
      enqueue(std::move(job));
    }
    jobs_cv_.notify_one();
    return true;
  }

  /// Non-blocking push: false when the queue is closed or at capacity.
  [[nodiscard]] bool try_push(JobSpec job) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || !has_space()) return false;
      enqueue(std::move(job));
    }
    jobs_cv_.notify_one();
    return true;
  }

  /// Declares the end of input: blocked and future pop() calls return
  /// std::nullopt once the remaining jobs are drained, blocked and future
  /// pushes return false. Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    jobs_cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Takes the oldest waiting job, blocking while the queue is open but
  /// empty. Returns std::nullopt when the queue is closed and fully
  /// drained.
  [[nodiscard]] std::optional<SlottedJob> pop() {
    SlottedJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      jobs_cv_.wait(lock, [this] { return closed_ || !jobs_.empty(); });
      if (jobs_.empty()) return std::nullopt;
      job = std::move(jobs_.front());
      jobs_.pop_front();
      ++popped_;
    }
    space_cv_.notify_one();
    return job;
  }

  /// Jobs currently waiting (snapshot — racy by nature under concurrency).
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return jobs_.size();
  }

  /// Jobs accepted so far (== the next arrival slot).
  [[nodiscard]] std::size_t pushed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return next_slot_;
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Every observability counter in one mutex-consistent snapshot — depth
  /// and high-water cohere with pushed/popped, unlike separate size()
  /// calls racing each other.
  [[nodiscard]] QueueStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    QueueStats s;
    s.depth = jobs_.size();
    s.capacity = capacity_;
    s.high_water = high_water_;
    s.pushed = next_slot_;
    s.popped = popped_;
    s.backpressure_engages = bp_engages_;
    s.backpressure_releases = bp_releases_;
    return s;
  }

 private:
  [[nodiscard]] bool has_space() const {
    return capacity_ == 0 || jobs_.size() < capacity_;
  }

  void enqueue(JobSpec job) {  // caller holds mu_
    jobs_.push_back(SlottedJob{next_slot_++, std::move(job)});
    high_water_ = std::max(high_water_, jobs_.size());
  }

  mutable std::mutex mu_;
  std::condition_variable jobs_cv_;   ///< wakes poppers
  std::condition_variable space_cv_;  ///< wakes producers at the bound
  std::size_t capacity_;
  std::deque<SlottedJob> jobs_;  ///< front = oldest
  std::size_t next_slot_ = 0;
  bool closed_ = false;
  // Observability counters (all guarded by mu_; see stats()).
  std::size_t high_water_ = 0;
  std::size_t popped_ = 0;
  std::size_t bp_engages_ = 0;
  std::size_t bp_releases_ = 0;
};

}  // namespace casbus::floor
