// Adaptive micro-batching: a per-shard controller that retunes the
// collector's effective straggler window (`max_batch_delay`) online from
// the observed arrival process, instead of taxing every regime with one
// fixed config value.
//
// Why adapt at all: a fixed delay is wrong at both ends of the load curve.
// At low load nobody else is coming, so the first request of every batch
// pays the full window for company that never arrives; at high load the
// queue could fill a batch in a fraction of the window, so a long window
// only adds latency while a short one under-batches bursty arrivals.
//
// The control law (one decision per batch, on the collector thread, at the
// moment the first request of the next batch has been popped):
//
//     rows_to_fill = max_batch_size - pending          (0 when already full)
//     fill_time    = rows_to_fill / arrival_rate       (feedforward)
//     delay        = min(fill_time, max_delay,         (first-in-batch pays
//                        queue_wait_budget)             the whole delay as
//                                                       queue wait)
//     if expected interarrival >= max_delay: delay = min_delay
//                                                      (a straggler cannot
//                                                       arrive in time; do
//                                                       not tax the lone
//                                                       request)
//     if recent high queue wait > budget:              (feedback: backlog
//         delay *= budget / recent_high_wait            the feedforward
//                                                       term cannot see)
//     delay        = clamp(delay, min_delay, max_delay) (last: min_delay is
//                                                       a hard floor)
//
// So: low rate converges to min_delay, saturation runs full batches at
// min_delay, and the mid-band picks the window that just fills a batch —
// all while the p95-ish queue wait is held inside `target_queue_wait_ms`,
// unless that budget is below min_delay. With min_delay == max_delay every
// decision is max_delay: a fixed window is the empty adaptive range.
//
// The arrival rate is an EWMA over instantaneous rates, *decayed on read*:
// after a burst goes quiet the EWMA alone would report the burst rate
// forever (nothing arrives to update it), so RateAt caps the estimate by
// 1/elapsed-since-last-arrival — the maximum-likelihood bound given that
// zero requests arrived in the gap. The same decayed value feeds the
// `rpt_serve_arrival_rate_rps` gauge. The write side applies the matching
// bound: an arrival after a gap 10x past the expected interarrival resets
// the EWMA to the instant rate (regime change), while ordinary jitter
// keeps full smoothing.
//
// Decisions are taken on the collector thread through the `Clock`
// interface, so tests drive the whole loop deterministically with a fake
// clock (tests/adaptive_test.cc); production uses the steady-clock
// SystemClock. OnArrival is called from concurrent Submit threads and uses
// the same last-writer-wins atomic smudge as the obs gauges — races blur
// the smoothing, never the counters.

#ifndef RPT_SERVE_ADAPTIVE_H_
#define RPT_SERVE_ADAPTIVE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace rpt {

/// Time source for batching decisions. Virtual so tests can substitute a
/// fake; production code uses SystemClock() (steady_clock).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::chrono::steady_clock::time_point Now() const = 0;
};

/// The process steady-clock. Never deleted; safe to hold for any lifetime.
const Clock* SystemClock();

/// EWMA request-arrival-rate estimator whose read side decays with idle
/// time. OnArrival is thread-safe (relaxed atomics; concurrent writers can
/// only smudge the smoothing); RateAt is safe from any thread.
class ArrivalRateEstimator {
 public:
  /// Records one arrival and returns the interval since the previous one
  /// in milliseconds (0 on the first arrival or a clock tie).
  double OnArrival(std::chrono::steady_clock::time_point now);

  /// Smoothed arrivals/sec, capped by 1/elapsed-since-last-arrival so the
  /// estimate decays toward zero while the shard is idle instead of
  /// reporting the last burst's rate forever.
  double RateAt(std::chrono::steady_clock::time_point now) const;

 private:
  std::atomic<int64_t> last_ns_{0};
  std::atomic<uint64_t> rate_bits_{0};  // bit-cast double, EWMA rps
};

/// Tuning bounds for one shard's controller. Mirrored from ServerConfig by
/// ServeShard; standalone so the controller is testable without a server.
struct AdaptiveConfig {
  size_t max_batch_size = 8;
  /// Effective-delay bounds, min_delay <= max_delay: the controller never
  /// waits less than `min_delay` (lets a same-instant burst coalesce) nor
  /// more than `max_delay` (the longest straggler window).
  std::chrono::microseconds min_delay{100};
  std::chrono::microseconds max_delay{2000};
  /// Queue-wait budget: the chosen delay never exceeds it (unless that would
  /// go below `min_delay`), and observed high waits above it shrink the
  /// delay multiplicatively.
  double target_queue_wait_ms = 5.0;
};

/// One shard's closed-loop delay controller. DecideDelay/OnBatchComplete
/// are called only from that shard's collector thread; the accessors are
/// safe from any thread (stats snapshots, tests).
class AdaptiveBatchController {
 public:
  /// `arrivals` must outlive the controller (the shard owns both).
  AdaptiveBatchController(const AdaptiveConfig& config, const Clock* clock,
                          const ArrivalRateEstimator* arrivals);

  /// Picks the straggler window for the batch now forming. `pending` is
  /// the number of requests already available (popped + still queued).
  std::chrono::microseconds DecideDelay(size_t pending);

  /// Feeds back one completed batch: the largest queue wait it contained
  /// (the p95-proxy signal the budget clamp reacts to).
  void OnBatchComplete(double max_queue_wait_ms);

  /// Last decision (starts at max_delay).
  std::chrono::microseconds effective_delay() const {
    return std::chrono::microseconds(
        effective_delay_us_.load(std::memory_order_relaxed));
  }

  /// Decisions that changed the effective delay.
  uint64_t adjustments() const {
    return adjustments_.load(std::memory_order_relaxed);
  }

  const AdaptiveConfig& config() const { return config_; }

 private:
  const AdaptiveConfig config_;
  const Clock* const clock_;
  const ArrivalRateEstimator* const arrivals_;
  // Collector-thread-only state, exported through atomics for snapshots.
  double high_wait_ms_ = 0;  // EWMA of per-batch max queue wait
  std::atomic<int64_t> effective_delay_us_;
  std::atomic<uint64_t> adjustments_{0};
};

}  // namespace rpt

#endif  // RPT_SERVE_ADAPTIVE_H_
