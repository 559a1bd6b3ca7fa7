// BoundedQueue<T>: a mutex-based bounded MPMC queue with batch draining.
//
// Built for the serving layer's micro-batching scheduler (serve/shard.h):
// many client threads TryPush requests (non-blocking, turned away when full
// so the server can exert backpressure — PushResult distinguishes a full
// queue from a closed one so the caller can report shutdown correctly),
// one or more collector threads drain with PopBatch, which blocks for the
// first element, takes whatever else is queued (up to `max_n`) at once, and
// only then, if the caller asked for a straggler window, waits that long
// for more. A zero window is work-conserving: the batch is what was queued
// when the consumer got there.
//
// Close() stops producers but lets consumers drain what is already queued —
// PopBatch keeps returning elements until the queue is empty, then reports
// closed. That is exactly the graceful-shutdown semantics a server wants.
//
// T only needs to be movable (the serving layer queues types holding
// std::promise).

#ifndef RPT_UTIL_BOUNDED_QUEUE_H_
#define RPT_UTIL_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace rpt {

/// Outcome of a TryPush. kFull and kClosed both mean "not enqueued", but
/// callers must not conflate them: full is backpressure, closed is
/// shutdown, and the serving layer reports them differently.
enum class PushResult { kOk, kFull, kClosed };

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push; reports whether the element was enqueued, and if
  /// not, whether the queue was full or already closed.
  PushResult TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks until at least one element is available (or the queue is closed
  /// and empty), then takes what is queued, up to `max_n` elements. With a
  /// positive `max_wait` it keeps gathering until `max_n` elements are in
  /// hand or `max_wait` has passed since the first was taken; with zero it
  /// returns at once. Appends to `*out` and returns true, or returns false
  /// when closed and drained.
  bool PopBatch(std::vector<T>* out, size_t max_n,
                std::chrono::microseconds max_wait) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and fully drained
    const auto deadline = std::chrono::steady_clock::now() + max_wait;
    for (;;) {
      while (!items_.empty() && out->size() < max_n) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
      }
      if (out->size() >= max_n || closed_ || max_wait.count() <= 0) break;
      const bool woke = not_empty_.wait_until(
          lock, deadline, [this] { return closed_ || !items_.empty(); });
      if (!woke) break;  // deadline hit with a partial batch
    }
    return true;
  }

  /// Stops further pushes; waiting consumers wake and drain the remainder.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace rpt

#endif  // RPT_UTIL_BOUNDED_QUEUE_H_
