#include "serve/adaptive.h"

#include <algorithm>
#include <bit>

namespace rpt {

namespace {

// Smoothing of the arrival-rate EWMA and of the recent-high-queue-wait EWMA
// (the controller's p95 proxy).
constexpr double kRateAlpha = 0.1;
constexpr double kWaitAlpha = 0.25;

class SteadyClock : public Clock {
 public:
  std::chrono::steady_clock::time_point Now() const override {
    return std::chrono::steady_clock::now();
  }
};

int64_t ToNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

const Clock* SystemClock() {
  static const SteadyClock clock;
  return &clock;
}

double ArrivalRateEstimator::OnArrival(
    std::chrono::steady_clock::time_point now) {
  const int64_t now_ns = ToNs(now);
  const int64_t prev_ns = last_ns_.exchange(now_ns, std::memory_order_relaxed);
  if (prev_ns == 0 || now_ns <= prev_ns) return 0;
  const double interval_ms = static_cast<double>(now_ns - prev_ns) / 1e6;
  const double instant_rps = 1000.0 / std::max(interval_ms, 1e-3);
  double prev_rate =
      std::bit_cast<double>(rate_bits_.load(std::memory_order_relaxed));
  // A gap an order of magnitude past the EWMA's expected interarrival
  // means the regime changed, not that one request jittered: reset to the
  // instant rate (the maximum-likelihood bound RateAt applies on reads,
  // which is void at the instant of an arrival since elapsed is zero).
  // Without this, a burst followed by a quiet spell leaves the next lone
  // request facing a window sized for the long-gone burst. Ordinary
  // jitter stays well under the 10x threshold and keeps full smoothing.
  if (prev_rate > 0 && instant_rps * 10.0 < prev_rate) {
    prev_rate = instant_rps;
  }
  const double next_rate =
      prev_rate == 0 ? instant_rps
                     : (1 - kRateAlpha) * prev_rate + kRateAlpha * instant_rps;
  rate_bits_.store(std::bit_cast<uint64_t>(next_rate),
                   std::memory_order_relaxed);
  return interval_ms;
}

double ArrivalRateEstimator::RateAt(
    std::chrono::steady_clock::time_point now) const {
  const double rate =
      std::bit_cast<double>(rate_bits_.load(std::memory_order_relaxed));
  const int64_t last_ns = last_ns_.load(std::memory_order_relaxed);
  if (rate <= 0 || last_ns == 0) return 0;
  const double elapsed_s =
      static_cast<double>(ToNs(now) - last_ns) / 1e9;
  if (elapsed_s <= 0) return rate;
  // Zero arrivals in `elapsed_s` bounds the current rate by 1/elapsed —
  // this is what makes a post-burst idle shard read as quiet instead of
  // holding the burst rate until the next request happens to arrive.
  return std::min(rate, 1.0 / elapsed_s);
}

AdaptiveBatchController::AdaptiveBatchController(
    const AdaptiveConfig& config, const Clock* clock,
    const ArrivalRateEstimator* arrivals)
    : config_(config),
      clock_(clock),
      arrivals_(arrivals),
      effective_delay_us_(config.max_delay.count()) {}

std::chrono::microseconds AdaptiveBatchController::DecideDelay(
    size_t pending) {
  const double min_us = static_cast<double>(config_.min_delay.count());
  const double max_us = static_cast<double>(config_.max_delay.count());
  const double budget_us = config_.target_queue_wait_ms * 1000.0;
  double delay_us;
  if (pending >= config_.max_batch_size) {
    // Saturated: the batch is already full, waiting buys nothing.
    delay_us = min_us;
  } else {
    const double rate = arrivals_->RateAt(clock_->Now());
    if (rate <= 0) {
      delay_us = min_us;
    } else {
      const double interarrival_us = 1e6 / rate;
      if (interarrival_us >= max_us) {
        // Even one straggler is not expected inside the largest allowed
        // window — serve the lone request instead of taxing it.
        delay_us = min_us;
      } else {
        const double rows_to_fill =
            static_cast<double>(config_.max_batch_size - pending);
        delay_us = std::min(rows_to_fill * interarrival_us, max_us);
      }
    }
  }
  // Budget clamp: the first request of the batch waits the whole window,
  // so the window itself must fit the queue-wait budget; and when the
  // observed high wait overshoots anyway (backlog the feedforward term
  // cannot see), shrink proportionally. The [min, max] clamp comes last, so
  // min_delay stays a floor whatever the budget or the feedback.
  delay_us = std::min(delay_us, budget_us);
  if (high_wait_ms_ > config_.target_queue_wait_ms && high_wait_ms_ > 0) {
    delay_us *= config_.target_queue_wait_ms / high_wait_ms_;
  }
  delay_us = std::clamp(delay_us, min_us, max_us);
  const int64_t decided = static_cast<int64_t>(delay_us);
  if (decided != effective_delay_us_.load(std::memory_order_relaxed)) {
    adjustments_.fetch_add(1, std::memory_order_relaxed);
    effective_delay_us_.store(decided, std::memory_order_relaxed);
  }
  return std::chrono::microseconds(decided);
}

void AdaptiveBatchController::OnBatchComplete(double max_queue_wait_ms) {
  if (high_wait_ms_ == 0) {
    high_wait_ms_ = max_queue_wait_ms;
  } else {
    high_wait_ms_ =
        (1 - kWaitAlpha) * high_wait_ms_ + kWaitAlpha * max_queue_wait_ms;
  }
}

}  // namespace rpt
