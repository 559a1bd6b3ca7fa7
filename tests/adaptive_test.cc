// Tests for the adaptive micro-batching controller (serve/adaptive.h):
// the decayed arrival-rate estimator, the delay control law on a fake
// clock (low rate -> min delay, saturation -> min delay + full batches,
// mid-band -> fill-time window, budget clamps, min delay as a hard floor,
// min == max as a fixed window), and the ServeShard integration
// (fixed-vs-adaptive bit-identity, the fixed default window, bounded
// latency reservoir, shutdown-race accounting).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/adaptive.h"
#include "serve/reservoir.h"
#include "serve/sessions.h"
#include "serve/shard.h"

namespace rpt {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// A manually-advanced Clock; atomic so estimator tests can read it from
/// any thread.
class FakeClock : public Clock {
 public:
  steady_clock::time_point Now() const override {
    return steady_clock::time_point(
        std::chrono::nanoseconds(now_ns_.load(std::memory_order_relaxed)));
  }

  void Advance(microseconds by) {
    now_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(by).count(),
        std::memory_order_relaxed);
  }

 private:
  // Starts well past zero so "no arrival yet" (ns == 0) stays unambiguous.
  std::atomic<int64_t> now_ns_{1'000'000'000};
};

/// Feeds `n` arrivals spaced `gap` apart, ending with the clock at the
/// last arrival.
void DriveArrivals(ArrivalRateEstimator* estimator, FakeClock* clock, int n,
                   microseconds gap) {
  for (int i = 0; i < n; ++i) {
    if (i > 0) clock->Advance(gap);
    estimator->OnArrival(clock->Now());
  }
}

// ---- ArrivalRateEstimator ---------------------------------------------------

TEST(ArrivalRateEstimatorTest, ConvergesToSteadyRate) {
  FakeClock clock;
  ArrivalRateEstimator estimator;
  DriveArrivals(&estimator, &clock, 20, microseconds(1000));  // 1000 rps
  EXPECT_NEAR(estimator.RateAt(clock.Now()), 1000.0, 1.0);
}

TEST(ArrivalRateEstimatorTest, ReturnsIntervalMilliseconds) {
  FakeClock clock;
  ArrivalRateEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.OnArrival(clock.Now()), 0.0);  // first arrival
  clock.Advance(microseconds(2500));
  EXPECT_DOUBLE_EQ(estimator.OnArrival(clock.Now()), 2.5);
}

TEST(ArrivalRateEstimatorTest, RateDecaysWhileIdle) {
  // The stale-EWMA bug: after a burst the gauge reported the burst rate
  // forever because nothing arrived to update it. The estimator's read
  // side must decay with idle time instead.
  FakeClock clock;
  ArrivalRateEstimator estimator;
  DriveArrivals(&estimator, &clock, 20, microseconds(500));  // 2000 rps burst
  const double at_burst = estimator.RateAt(clock.Now());
  EXPECT_NEAR(at_burst, 2000.0, 1.0);

  clock.Advance(milliseconds(100));
  const double after_100ms = estimator.RateAt(clock.Now());
  clock.Advance(milliseconds(900));  // 1 s total idle
  const double after_1s = estimator.RateAt(clock.Now());
  clock.Advance(std::chrono::seconds(9));  // 10 s total idle
  const double after_10s = estimator.RateAt(clock.Now());

  EXPECT_LT(after_100ms, at_burst);
  EXPECT_LT(after_1s, after_100ms);
  EXPECT_LT(after_10s, after_1s);
  // Zero arrivals in 1 s bounds the rate at ~1 rps.
  EXPECT_LE(after_1s, 1.0 + 1e-9);
  EXPECT_LE(after_10s, 0.1 + 1e-9);
}

TEST(ArrivalRateEstimatorTest, NoArrivalsReadsZero) {
  FakeClock clock;
  ArrivalRateEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.RateAt(clock.Now()), 0.0);
}

// ---- AdaptiveBatchController ------------------------------------------------

AdaptiveConfig TestConfig() {
  AdaptiveConfig config;
  config.max_batch_size = 16;
  config.min_delay = microseconds(100);
  config.max_delay = microseconds(2000);
  config.target_queue_wait_ms = 5.0;
  return config;
}

TEST(AdaptiveControllerTest, StartsAtMaxDelayWithNoAdjustments) {
  FakeClock clock;
  ArrivalRateEstimator arrivals;
  AdaptiveBatchController controller(TestConfig(), &clock, &arrivals);
  EXPECT_EQ(controller.effective_delay(), microseconds(2000));
  EXPECT_EQ(controller.adjustments(), 0u);
}

TEST(AdaptiveControllerTest, LowRateConvergesToMinDelay) {
  // Arrivals every 5 ms: the expected straggler is 5000 us away, beyond
  // any allowed window, so waiting only taxes the lone request.
  FakeClock clock;
  ArrivalRateEstimator arrivals;
  AdaptiveBatchController controller(TestConfig(), &clock, &arrivals);
  DriveArrivals(&arrivals, &clock, 10, microseconds(5000));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(controller.DecideDelay(/*pending=*/1), microseconds(100));
  }
  EXPECT_EQ(controller.adjustments(), 1u);  // 2000 -> 100, then stable
  EXPECT_EQ(controller.effective_delay(), microseconds(100));
}

TEST(AdaptiveControllerTest, SaturatedQueueSkipsTheWait) {
  // A full batch is already pending; any wait is pure latency.
  FakeClock clock;
  ArrivalRateEstimator arrivals;
  AdaptiveBatchController controller(TestConfig(), &clock, &arrivals);
  DriveArrivals(&arrivals, &clock, 50, microseconds(10));  // saturating rate
  EXPECT_EQ(controller.DecideDelay(/*pending=*/16), microseconds(100));
  EXPECT_EQ(controller.DecideDelay(/*pending=*/40), microseconds(100));
}

TEST(AdaptiveControllerTest, MidRatePicksFillTimeWindow) {
  // Arrivals every 100 us, 4 of 16 rows pending: filling the batch should
  // take ~12 * 100 us, inside [min, max] and the 5 ms budget.
  FakeClock clock;
  ArrivalRateEstimator arrivals;
  AdaptiveBatchController controller(TestConfig(), &clock, &arrivals);
  DriveArrivals(&arrivals, &clock, 50, microseconds(100));
  const microseconds delay = controller.DecideDelay(/*pending=*/4);
  EXPECT_NEAR(static_cast<double>(delay.count()), 1200.0, 10.0);
  // More pending rows -> a shorter window suffices.
  const microseconds fuller = controller.DecideDelay(/*pending=*/12);
  EXPECT_LT(fuller, delay);
  EXPECT_GE(fuller, microseconds(100));
}

TEST(AdaptiveControllerTest, BudgetCapsTheWindow) {
  // 64-row batches at 10k rps would take 6.4 ms to fill — but the first
  // request of the batch pays the whole window as queue wait, so a 2 ms
  // budget must cap it.
  AdaptiveConfig config = TestConfig();
  config.max_batch_size = 64;
  config.max_delay = microseconds(10000);
  config.target_queue_wait_ms = 2.0;
  FakeClock clock;
  ArrivalRateEstimator arrivals;
  AdaptiveBatchController controller(config, &clock, &arrivals);
  DriveArrivals(&arrivals, &clock, 50, microseconds(100));
  EXPECT_EQ(controller.DecideDelay(/*pending=*/0), microseconds(2000));
}

TEST(AdaptiveControllerTest, ObservedOverBudgetWaitShrinksTheWindow) {
  FakeClock clock;
  ArrivalRateEstimator arrivals;
  AdaptiveBatchController controller(TestConfig(), &clock, &arrivals);
  DriveArrivals(&arrivals, &clock, 50, microseconds(100));
  const microseconds before = controller.DecideDelay(/*pending=*/4);
  // Queue waits 4x over budget: the feedback clamp must shrink the window
  // even though the feedforward fill-time term is unchanged.
  for (int i = 0; i < 10; ++i) controller.OnBatchComplete(20.0);
  const microseconds after = controller.DecideDelay(/*pending=*/4);
  EXPECT_LT(after, before);
  EXPECT_GE(after, microseconds(100));
  // The wait EWMA recovers once observed waits return inside the budget.
  for (int i = 0; i < 50; ++i) controller.OnBatchComplete(0.5);
  EXPECT_EQ(controller.DecideDelay(/*pending=*/4), before);
}

TEST(AdaptiveControllerTest, IdleBurstDecayReopensShortWindows) {
  // After a burst trains the EWMA high, a long idle gap must not leave the
  // controller choosing burst-sized windows: the decayed read drops the
  // rate, so the next lone request gets min_delay.
  FakeClock clock;
  ArrivalRateEstimator arrivals;
  AdaptiveBatchController controller(TestConfig(), &clock, &arrivals);
  DriveArrivals(&arrivals, &clock, 50, microseconds(100));  // 10k rps burst
  const microseconds during_burst = controller.DecideDelay(/*pending=*/4);
  EXPECT_GT(during_burst, microseconds(1000));
  clock.Advance(std::chrono::seconds(2));  // quiet shard
  arrivals.OnArrival(clock.Now());         // one lone request
  EXPECT_EQ(controller.DecideDelay(/*pending=*/1), microseconds(100));
}

TEST(AdaptiveControllerTest, BudgetBelowMinDelayStillWaitsMinDelay) {
  // min_delay is a floor: a queue-wait budget shorter than it must not
  // pull the window under it.
  AdaptiveConfig config = TestConfig();
  config.min_delay = microseconds(500);
  config.target_queue_wait_ms = 0.2;
  FakeClock clock;
  ArrivalRateEstimator arrivals;
  AdaptiveBatchController controller(config, &clock, &arrivals);
  DriveArrivals(&arrivals, &clock, 50, microseconds(100));
  EXPECT_EQ(controller.DecideDelay(/*pending=*/4), microseconds(500));
  EXPECT_EQ(controller.DecideDelay(/*pending=*/1), microseconds(500));
}

TEST(AdaptiveControllerTest, EqualBoundsAreAFixedWindowInEveryRegime) {
  // min == max is how a shard asks for a fixed window: whatever the rate,
  // pending count, budget (including one shorter than the window) or
  // feedback, every decision is max_delay and the controller never counts
  // an adjustment.
  for (const double budget_ms : {5.0, 1.0}) {
    AdaptiveConfig config = TestConfig();
    config.min_delay = config.max_delay;
    config.target_queue_wait_ms = budget_ms;
    FakeClock clock;
    ArrivalRateEstimator arrivals;
    AdaptiveBatchController controller(config, &clock, &arrivals);
    const microseconds fixed = config.max_delay;
    EXPECT_EQ(controller.DecideDelay(/*pending=*/1), fixed);  // no arrivals
    DriveArrivals(&arrivals, &clock, 10, microseconds(5000));  // low rate
    EXPECT_EQ(controller.DecideDelay(/*pending=*/1), fixed);
    DriveArrivals(&arrivals, &clock, 50, microseconds(10));  // saturation
    EXPECT_EQ(controller.DecideDelay(/*pending=*/16), fixed);
    EXPECT_EQ(controller.DecideDelay(/*pending=*/40), fixed);
    DriveArrivals(&arrivals, &clock, 50, microseconds(100));  // mid rate
    EXPECT_EQ(controller.DecideDelay(/*pending=*/4), fixed);
    EXPECT_EQ(controller.DecideDelay(/*pending=*/12), fixed);
    for (int i = 0; i < 10; ++i) controller.OnBatchComplete(20.0);
    EXPECT_EQ(controller.DecideDelay(/*pending=*/4), fixed);  // over budget
    clock.Advance(std::chrono::seconds(2));  // idle decay
    arrivals.OnArrival(clock.Now());
    EXPECT_EQ(controller.DecideDelay(/*pending=*/1), fixed);
    EXPECT_EQ(controller.effective_delay(), fixed);
    EXPECT_EQ(controller.adjustments(), 0u) << "budget " << budget_ms;
  }
}

// ---- LatencyReservoir -------------------------------------------------------

TEST(LatencyReservoirTest, CapsMemoryAndKeepsPercentilesSane) {
  LatencyReservoir reservoir(4096, /*seed=*/42);
  constexpr uint64_t kStream = 1'000'000;
  // Uniform ramp 0..100 ms: any fair sample has a median near 50.
  for (uint64_t i = 0; i < kStream; ++i) {
    reservoir.Add(100.0 * static_cast<double>(i) /
                  static_cast<double>(kStream));
  }
  EXPECT_EQ(reservoir.count(), kStream);
  ASSERT_EQ(reservoir.samples().size(), 4096u);
  std::vector<double> sample = reservoir.samples();
  std::sort(sample.begin(), sample.end());
  const double median = sample[sample.size() / 2];
  EXPECT_NEAR(median, 50.0, 5.0);
  EXPECT_GE(sample.front(), 0.0);
  EXPECT_LE(sample.back(), 100.0);
}

TEST(LatencyReservoirTest, BelowCapacityKeepsEverything) {
  LatencyReservoir reservoir(8, /*seed=*/1);
  for (int i = 0; i < 5; ++i) reservoir.Add(i);
  EXPECT_EQ(reservoir.count(), 5u);
  EXPECT_EQ(reservoir.samples().size(), 5u);
}

TEST(LatencyReservoirTest, SameSeedSamplesIdentically) {
  LatencyReservoir a(16, /*seed=*/7), b(16, /*seed=*/7);
  for (int i = 0; i < 1000; ++i) {
    a.Add(i);
    b.Add(i);
  }
  EXPECT_EQ(a.samples(), b.samples());
}

// ---- ServeShard integration -------------------------------------------------

ServerConfig AdaptiveServerConfig() {
  ServerConfig config;
  config.max_batch_size = 8;
  config.max_batch_delay = microseconds(2000);
  config.min_batch_delay = microseconds(100);
  config.queue_capacity = 1024;
  config.cache_capacity = 0;
  return config;
}

/// Submits 4 bursts of 24 distinct payloads 10 ms apart — the pattern that
/// moves an adaptive window — and waits for every answer.
void RunBursts(ServeShard* server) {
  std::vector<std::future<ServeResponse>> futures;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 24; ++i) {
      futures.push_back(server->Submit("b" + std::to_string(burst) + "_" +
                                       std::to_string(i)));
    }
    std::this_thread::sleep_for(milliseconds(10));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
}

TEST(AdaptiveServeTest, FixedIsTheDefaultAndUntouched) {
  // Leaving min_batch_delay unset keeps the window fixed at
  // max_batch_delay: the default 2 ms, and a 50 us window set alone (below
  // the controller's own 100 us default floor, which must not leak in).
  ServerConfig short_window;
  short_window.max_batch_delay = microseconds(50);
  for (const ServerConfig& config : {ServerConfig{}, short_window}) {
    auto session = std::make_shared<SyntheticSession>(microseconds(50),
                                                      microseconds(5));
    ServeShard server(session, config);
    RunBursts(&server);
    server.Shutdown();
    // The effective window is the configured one and the adaptive
    // machinery stays silent — including its render row.
    EXPECT_EQ(server.effective_batch_delay(), config.max_batch_delay);
    ServerStatsSnapshot stats = server.Stats();
    EXPECT_EQ(stats.adapt_adjustments, 0u);
    EXPECT_EQ(stats.Render("synthetic").find("adaptive"), std::string::npos);
  }
}

TEST(AdaptiveServeTest, AdaptiveOutputsBitIdenticalToFixed) {
  // The window only moves when a batch closes, never what the model
  // computes: every payload must produce the same bytes with a fixed
  // window (min == max) and an adaptive one (min < max).
  std::vector<std::string> inputs;
  for (int i = 0; i < 96; ++i) inputs.push_back("req_" + std::to_string(i));

  auto run = [&](microseconds min_delay) {
    auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                      microseconds(10));
    ServerConfig config = AdaptiveServerConfig();
    config.min_batch_delay = min_delay;
    ServeShard server(session, config);
    std::map<std::string, std::string> outputs;
    std::vector<std::future<ServeResponse>> futures;
    futures.reserve(inputs.size());
    for (const auto& input : inputs) futures.push_back(server.Submit(input));
    for (size_t i = 0; i < inputs.size(); ++i) {
      ServeResponse r = futures[i].get();
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      outputs[inputs[i]] = r.output;
    }
    server.Shutdown();
    return outputs;
  };

  const auto fixed = run(microseconds(2000));
  const auto adaptive = run(microseconds(100));
  EXPECT_EQ(fixed, adaptive);
}

TEST(AdaptiveServeTest, ControllerRunsAndExportsAdjustments) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServeShard server(session, AdaptiveServerConfig());
  RunBursts(&server);
  server.Shutdown();
  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.completed, 96u);
  // Bursty arrivals force at least one window change (2000 us start ->
  // something shorter), and the change is visible in the snapshot/report.
  EXPECT_GE(stats.adapt_adjustments, 1u);
  EXPECT_NE(stats.Render("synthetic").find("adaptive delay adjustments"),
            std::string::npos);
}

TEST(AdaptiveServeTest, ReservoirBoundsShardStatsMemory) {
  auto session = std::make_shared<SyntheticSession>(microseconds(0),
                                                    microseconds(0));
  ServerConfig config;
  config.max_batch_size = 64;
  config.max_batch_delay = microseconds(50);
  config.queue_capacity = 8192;
  config.cache_capacity = 0;
  ServeShard server(session, config);
  constexpr int kRequests = 6000;  // well past the 4096-sample cap
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit("r" + std::to_string(i)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());
  server.Shutdown();
  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
  // The snapshot's percentile source is the bounded sample, not an
  // ever-growing vector.
  EXPECT_GE(stats.p95_ms, stats.p50_ms);
  EXPECT_GT(stats.max_ms, 0.0);
}

TEST(AdaptiveServeTest, SubmitRacingShutdownNeverCountsQueueFull) {
  // Regression for the shutdown/queue-full race: Submit checks accepting_,
  // then pushes; a Shutdown() in between closes the queue, and the closed
  // push used to be miscounted as queue-full backpressure with the wrong
  // message. With a queue that never fills, every rejection must be a
  // shutdown rejection.
  for (int round = 0; round < 8; ++round) {
    auto session = std::make_shared<SyntheticSession>(microseconds(20),
                                                      microseconds(2));
    ServerConfig config;
    config.max_batch_size = 16;
    config.max_batch_delay = microseconds(200);
    config.queue_capacity = 1 << 20;  // cannot fill in this test
    config.cache_capacity = 0;
    ServeShard server(session, config);

    constexpr int kThreads = 4;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> ok{0}, shutdown_rejected{0}, queue_full{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          ServeResponse r = server.Submit("t" + std::to_string(t) + "_" +
                                          std::to_string(i)).get();
          if (r.status.ok()) {
            ok.fetch_add(1);
          } else if (r.status.message().find("shut down") !=
                     std::string::npos) {
            shutdown_rejected.fetch_add(1);
            break;  // server is gone; stop hammering
          } else {
            queue_full.fetch_add(1);
          }
        }
      });
    }
    std::this_thread::sleep_for(milliseconds(2));
    server.Shutdown();
    stop.store(true);
    for (auto& c : clients) c.join();

    ServerStatsSnapshot stats = server.Stats();
    EXPECT_EQ(queue_full.load(), 0u);
    EXPECT_EQ(stats.rejected, 0u) << "closed-queue push misread as full";
    EXPECT_EQ(stats.shutdown_rejected, shutdown_rejected.load());
    EXPECT_EQ(stats.completed, ok.load());
    EXPECT_EQ(stats.submitted, ok.load() + shutdown_rejected.load());
  }
}

}  // namespace
}  // namespace rpt
