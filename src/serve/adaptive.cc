#include "serve/adaptive.h"

#include <algorithm>
#include <bit>

namespace rpt {

namespace {

// Smoothing of the arrival-rate EWMA.
constexpr double kRateAlpha = 0.1;

int64_t ToNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

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
  // Without this, the first arrivals after a quiet spell would keep
  // reporting the long-gone burst's rate. Ordinary jitter stays well under
  // the 10x threshold and keeps full smoothing.
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

}  // namespace rpt
