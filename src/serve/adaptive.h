// The request-arrival estimator of one shard. This header holds that one
// class and nothing else: it feeds the `rpt_serve_arrival_rate_rps` gauge
// and the `rpt_serve_arrival_interval_ms` histogram, and no scheduling
// decision reads it — each shard's collector is work-conserving
// (serve/shard.h).
//
// The arrival rate is an EWMA over instantaneous rates, *decayed on read*:
// after a burst goes quiet the EWMA alone would report the burst rate
// forever (nothing arrives to update it), so RateAt caps the estimate by
// 1/elapsed-since-last-arrival — the maximum-likelihood bound given that
// zero requests arrived in the gap. The write side applies the matching
// bound: an arrival after a gap 10x past the expected interarrival resets
// the EWMA to the instant rate (regime change), while ordinary jitter
// keeps full smoothing.
//
// OnArrival is called from concurrent Submit threads and uses the same
// last-writer-wins atomic smudge as the obs gauges — races blur the
// smoothing, never the counters. Both methods take the time as an
// argument, so tests drive the estimator with hand-built time points.

#ifndef RPT_SERVE_ADAPTIVE_H_
#define RPT_SERVE_ADAPTIVE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace rpt {

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

}  // namespace rpt

#endif  // RPT_SERVE_ADAPTIVE_H_
