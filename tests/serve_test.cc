// Tests for the serving subsystem: LRU cache, concurrent submit/drain,
// micro-batch formation, queue-full backpressure, deadline expiry, graceful
// shutdown drain, and the session adapters' payload round-trips.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rpt/cleaner.h"
#include "rpt/extractor.h"
#include "rpt/matcher.h"
#include "rpt/vocab_builder.h"
#include "serve/adaptive.h"
#include "serve/lru_cache.h"
#include "serve/reservoir.h"
#include "serve/sessions.h"
#include "serve/shard.h"
#include "table/table.h"

namespace rpt {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Echo session whose forward passes block until Open() — lets tests pin
/// requests in the queue deterministically.
class GateSession : public ModelSession {
 public:
  std::string name() const override { return "gate"; }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
      batches_.push_back(inputs);
    }
    calls_.fetch_add(1);
    items_.fetch_add(static_cast<int64_t>(inputs.size()));
    std::vector<std::string> out;
    out.reserve(inputs.size());
    for (const auto& s : inputs) out.push_back("echo:" + s);
    return out;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  int64_t calls() const { return calls_.load(); }
  int64_t items() const { return items_.load(); }

  std::vector<std::vector<std::string>> batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<std::vector<std::string>> batches_;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> items_{0};
};

// ---- LruCache ---------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::string, std::string> cache(2);
  cache.Put("a", "1");
  cache.Put("b", "2");
  EXPECT_TRUE(cache.Get("a").has_value());  // refreshes "a"
  cache.Put("c", "3");                      // evicts "b"
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(cache.Get("c").value_or(""), "3");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  LruCache<std::string, std::string> cache(0);
  cache.Put("a", "1");
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, PutOverwritesExisting) {
  LruCache<std::string, std::string> cache(2);
  cache.Put("a", "1");
  cache.Put("a", "9");
  EXPECT_EQ(cache.Get("a").value_or(""), "9");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, CapacityOneEvictsTheOldNotTheNew) {
  // The eviction-on-insert edge case: at capacity 1, inserting "b" must
  // evict "a" (the list back), never the entry just placed at the front.
  LruCache<std::string, std::string> cache(1);
  cache.Put("a", "1");
  EXPECT_EQ(cache.Get("a").value_or(""), "1");
  cache.Put("b", "2");
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.Get("b").value_or(""), "2");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, OverwriteAtCapacityNeverEvicts) {
  // Overwriting an existing key while the cache is full must not count as
  // an insert: no neighbor gets evicted and size stays at capacity.
  LruCache<std::string, std::string> cache(2);
  cache.Put("a", "1");
  cache.Put("b", "2");
  for (int i = 0; i < 5; ++i) {
    cache.Put("a", "v" + std::to_string(i));
    ASSERT_EQ(cache.size(), 2u) << "overwrite " << i << " evicted a neighbor";
    ASSERT_TRUE(cache.Get("b").has_value());
  }
  EXPECT_EQ(cache.Get("a").value_or(""), "v4");
  // The overwrite also refreshed recency: inserting "c" now evicts "b".
  cache.Get("a");
  cache.Put("c", "3");
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
}

// ---- ArrivalRateEstimator ---------------------------------------------------

/// Feeds `n` arrivals spaced `gap` apart, starting at `*now` and leaving it
/// at the last arrival.
void DriveArrivals(ArrivalRateEstimator* estimator,
                   steady_clock::time_point* now, int n, microseconds gap) {
  for (int i = 0; i < n; ++i) {
    if (i > 0) *now += gap;
    estimator->OnArrival(*now);
  }
}

/// A start time well past the clock's epoch, so "no arrival yet" (0 ns)
/// stays unambiguous.
steady_clock::time_point TestEpoch() {
  return steady_clock::time_point(std::chrono::seconds(1));
}

TEST(ArrivalRateEstimatorTest, ConvergesToSteadyRate) {
  steady_clock::time_point now = TestEpoch();
  ArrivalRateEstimator estimator;
  DriveArrivals(&estimator, &now, 20, microseconds(1000));  // 1000 rps
  EXPECT_NEAR(estimator.RateAt(now), 1000.0, 1.0);
}

TEST(ArrivalRateEstimatorTest, ReturnsIntervalMilliseconds) {
  steady_clock::time_point now = TestEpoch();
  ArrivalRateEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.OnArrival(now), 0.0);  // first arrival
  now += microseconds(2500);
  EXPECT_DOUBLE_EQ(estimator.OnArrival(now), 2.5);
}

TEST(ArrivalRateEstimatorTest, RateDecaysWhileIdle) {
  // The stale-EWMA bug: after a burst the gauge reported the burst rate
  // forever because nothing arrived to update it. The estimator's read
  // side must decay with idle time instead.
  steady_clock::time_point now = TestEpoch();
  ArrivalRateEstimator estimator;
  DriveArrivals(&estimator, &now, 20, microseconds(500));  // 2000 rps burst
  const double at_burst = estimator.RateAt(now);
  EXPECT_NEAR(at_burst, 2000.0, 1.0);

  now += milliseconds(100);
  const double after_100ms = estimator.RateAt(now);
  now += milliseconds(900);  // 1 s total idle
  const double after_1s = estimator.RateAt(now);
  now += std::chrono::seconds(9);  // 10 s total idle
  const double after_10s = estimator.RateAt(now);

  EXPECT_LT(after_100ms, at_burst);
  EXPECT_LT(after_1s, after_100ms);
  EXPECT_LT(after_10s, after_1s);
  // Zero arrivals in 1 s bounds the rate at ~1 rps.
  EXPECT_LE(after_1s, 1.0 + 1e-9);
  EXPECT_LE(after_10s, 0.1 + 1e-9);
}

TEST(ArrivalRateEstimatorTest, NoArrivalsReadsZero) {
  ArrivalRateEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.RateAt(TestEpoch()), 0.0);
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

// ---- ServeShard -------------------------------------------------------------

TEST(ServeTest, ConcurrentSubmitAllComplete) {
  auto session = std::make_shared<SyntheticSession>(microseconds(200),
                                                    microseconds(20));
  ServerConfig config;
  config.max_batch_size = 4;
  config.max_batch_delay = microseconds(500);
  config.queue_capacity = 1024;
  config.cache_capacity = 0;  // every request must reach the model
  ServeShard server(session, config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::vector<std::thread> clients;
  std::mutex results_mu;
  std::vector<ServeResponse> results;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ServeResponse r = server.Submit("t" + std::to_string(t) + "_" +
                                        std::to_string(i)).get();
        std::lock_guard<std::mutex> lock(results_mu);
        results.push_back(std::move(r));
      }
    });
  }
  for (auto& c : clients) c.join();
  server.Shutdown();

  ASSERT_EQ(results.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const auto& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.output.rfind("echo:t", 0), 0u);
    EXPECT_GE(r.batch_size, 1);
    EXPECT_LE(r.batch_size, 4);
  }
  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_GE(stats.batches, 1u);
  // Histogram sizes must sum to the completed count.
  uint64_t histogram_total = 0;
  for (const auto& [size, count] : stats.batch_size_histogram) {
    EXPECT_GE(size, 1u);
    EXPECT_LE(size, 4u);
    histogram_total += size * count;
  }
  EXPECT_EQ(histogram_total, stats.completed);
  EXPECT_GE(stats.p95_ms, stats.p50_ms);
  EXPECT_GE(stats.p99_ms, stats.p95_ms);
}

TEST(ServeTest, DefaultConfigServesALoneRequestWithoutWaiting) {
  // The default collector never waits for stragglers: a request that
  // arrives alone runs as soon as the collector picks it up, instead of
  // sitting out a straggler window first.
  auto session = std::make_shared<SyntheticSession>(microseconds(0),
                                                    microseconds(0));
  ServeShard server(session, ServerConfig{});
  std::vector<double> latencies;
  for (int i = 0; i < 20; ++i) {
    ServeResponse r = server.Submit("lone_" + std::to_string(i)).get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.batch_size, 1);
    latencies.push_back(r.latency_ms);
  }
  server.Shutdown();
  std::sort(latencies.begin(), latencies.end());
  const double median = 0.5 * (latencies[9] + latencies[10]);
  EXPECT_LT(median, 1.0);
}

TEST(ServeTest, MicroBatchingActuallyBatches) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.max_batch_size = 8;
  config.max_batch_delay = microseconds(20000);  // generous straggler window
  config.cache_capacity = 0;
  ServeShard server(session, config);

  // 16 requests fired together with a wide delay window must ride in far
  // fewer than 16 passes.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.Submit("req" + std::to_string(i)));
  }
  for (auto& f : futures) {
    ServeResponse r = f.get();
    ASSERT_TRUE(r.status.ok());
  }
  server.Shutdown();
  EXPECT_LE(session->calls(), 8);  // ≥ 2 average batch size
  EXPECT_EQ(session->items(), 16);
}

TEST(ServeTest, QueueFullRejectsWithUnavailable) {
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 2;
  config.cache_capacity = 0;
  ServeShard server(session, config);

  // With the gate closed the collector wedges on its first batch; pushing
  // capacity + 2 more must overflow the queue at least once.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(server.Submit("r" + std::to_string(i)));
  }
  int rejected = 0;
  session->Open();
  for (auto& f : futures) {
    ServeResponse r = f.get();
    if (!r.status.ok()) {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  server.Shutdown();
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(server.Stats().rejected, static_cast<uint64_t>(rejected));
}

TEST(ServeTest, DeadlineExpiresWhileQueued) {
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 16;
  config.cache_capacity = 0;
  ServeShard server(session, config);

  // First request occupies the collector (gate closed); the second waits in
  // the queue past its 1 ms deadline.
  std::future<ServeResponse> first = server.Submit("first");
  std::future<ServeResponse> doomed =
      server.Submit("doomed", milliseconds(1));
  std::this_thread::sleep_for(milliseconds(50));
  session->Open();

  EXPECT_TRUE(first.get().status.ok());
  ServeResponse r = doomed.get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  server.Shutdown();
  EXPECT_EQ(server.Stats().expired, 1u);
}

TEST(ServeTest, ShutdownDrainsQueuedRequests) {
  auto session = std::make_shared<SyntheticSession>(microseconds(500),
                                                    microseconds(50));
  ServerConfig config;
  config.max_batch_size = 4;
  config.queue_capacity = 64;
  config.cache_capacity = 0;
  ServeShard server(session, config);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(server.Submit("r" + std::to_string(i)));
  }
  server.Shutdown();  // must drain everything already accepted

  for (auto& f : futures) {
    ServeResponse r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  // Post-shutdown submissions are turned away immediately.
  ServeResponse late = server.Submit("late").get();
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
}

TEST(ServeTest, CacheShortCircuitsRepeats) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.max_batch_size = 4;
  config.cache_capacity = 16;
  ServeShard server(session, config);

  ServeResponse cold = server.Submit("hello").get();
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  ServeResponse warm = server.Submit("hello").get();
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.output, cold.output);
  server.Shutdown();
  EXPECT_EQ(session->items(), 1);
  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GT(stats.cache_hit_rate, 0.0);
}

TEST(ServeTest, RejectedRequestsDoNotCountAsCacheMisses) {
  // Backpressure must not deflate the hit rate: a queue-full rejection is
  // not a cache lookup outcome, so misses must equal the requests that were
  // actually admitted (here: all unique, so misses == completed).
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 2;
  config.cache_capacity = 16;
  ServeShard server(session, config);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit("r" + std::to_string(i)));
  }
  session->Open();
  uint64_t rejected = 0;
  for (auto& f : futures) {
    if (!f.get().status.ok()) ++rejected;
  }
  server.Shutdown();

  ServerStatsSnapshot stats = server.Stats();
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, 6u - rejected);
  EXPECT_EQ(stats.cache_hits, 0u);
  // The buggy ordering counted a miss for every submission, rejected ones
  // included, so misses exceeded completed.
  EXPECT_EQ(stats.cache_misses, stats.completed);
}

TEST(ServeTest, ShutdownRejectionsAreCountedSeparately) {
  auto session = std::make_shared<SyntheticSession>(microseconds(50),
                                                    microseconds(5));
  ServerConfig config;
  config.cache_capacity = 16;
  ServeShard server(session, config);
  ASSERT_TRUE(server.Submit("x").get().status.ok());
  server.Shutdown();

  ServeResponse late = server.Submit("late").get();
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(late.status.message().find("shut down"), std::string::npos);

  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.shutdown_rejected, 1u);
  EXPECT_EQ(stats.rejected, 0u);  // never folded into the queue-full row
  // A post-shutdown submission is not a cache lookup either.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 1u);
  const std::string report = stats.Render("synthetic");
  EXPECT_NE(report.find("rejected (shutdown)"), std::string::npos);
}

TEST(ServeTest, CacheHitResponsesStampLatency) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.cache_capacity = 16;
  ServeShard server(session, config);

  ServeResponse cold = server.Submit("hello").get();
  ASSERT_TRUE(cold.status.ok());
  ServeResponse warm = server.Submit("hello").get();
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  // Previously left at 0, making client-side latency accounting treat hits
  // as free-and-instant rather than measured.
  EXPECT_GT(warm.latency_ms, 0.0);
  server.Shutdown();
}

// ---- SubmitAsync ------------------------------------------------------------
//
// The continuation-passing path must honor the ServeCallback contract:
// submit-time completions (cache hits, rejections, post-shutdown) invoke the
// callback inline on the submitting thread with the same latency stamps and
// counter accounting as the future path; model-path completions arrive on
// the collector thread.

TEST(ServeTest, SubmitAsyncCacheHitCompletesInlineWithLatency) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.cache_capacity = 16;
  ServeShard server(session, config);
  ASSERT_TRUE(server.Submit("hello").get().status.ok());  // warm the cache

  bool invoked = false;
  std::thread::id callback_thread;
  ServeResponse hit;
  server.SubmitAsync("hello", [&](ServeResponse r) {
    invoked = true;
    callback_thread = std::this_thread::get_id();
    hit = std::move(r);
  });
  // Inline contract: the callback ran before SubmitAsync returned, on this
  // thread — no synchronization needed to observe `invoked`.
  ASSERT_TRUE(invoked);
  EXPECT_EQ(callback_thread, std::this_thread::get_id());
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_GT(hit.latency_ms, 0.0);  // hits stamp measured latency, not 0
  server.Shutdown();
  EXPECT_EQ(server.Stats().cache_hits, 1u);
  EXPECT_EQ(session->items(), 1);  // the hit never reached the model
}

TEST(ServeTest, SubmitAsyncQueueFullRejectsInlineAndCounts) {
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 2;
  config.cache_capacity = 0;
  ServeShard server(session, config);

  // With the gate closed the collector wedges on its first batch; async
  // submissions beyond capacity must be rejected inline.
  std::atomic<int> pending{0};
  int inline_rejections = 0;
  for (int i = 0; i < 5; ++i) {
    const std::thread::id submitter = std::this_thread::get_id();
    bool rejected_inline = false;
    pending.fetch_add(1);
    server.SubmitAsync("r" + std::to_string(i), [&, submitter](
                                                    ServeResponse r) {
      if (!r.status.ok()) {
        EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
        EXPECT_EQ(std::this_thread::get_id(), submitter)
            << "rejection completed off the submitting thread";
        EXPECT_GE(r.latency_ms, 0.0);
        rejected_inline = true;
      }
      pending.fetch_sub(1);
    });
    if (rejected_inline) ++inline_rejections;
  }
  session->Open();
  server.Shutdown();  // drains the accepted requests -> callbacks all ran
  EXPECT_EQ(pending.load(), 0);
  EXPECT_GE(inline_rejections, 1);
  EXPECT_EQ(server.Stats().rejected,
            static_cast<uint64_t>(inline_rejections));
}

TEST(ServeTest, SubmitAsyncAfterShutdownRejectsInline) {
  auto session = std::make_shared<SyntheticSession>(microseconds(50),
                                                    microseconds(5));
  ServeShard server(session);
  server.Shutdown();

  bool invoked = false;
  server.SubmitAsync("late", [&](ServeResponse r) {
    invoked = true;
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_NE(r.status.message().find("shut down"), std::string::npos);
  });
  EXPECT_TRUE(invoked);
  EXPECT_EQ(server.Stats().shutdown_rejected, 1u);
}

TEST(ServeTest, SubmitAsyncModelPathCompletesOnCollectorThread) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.cache_capacity = 0;
  ServeShard server(session, config);

  std::promise<ServeResponse> done;
  std::thread::id callback_thread;
  server.SubmitAsync("fresh", [&](ServeResponse r) {
    callback_thread = std::this_thread::get_id();
    done.set_value(std::move(r));
  });
  const ServeResponse r = done.get_future().get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.cache_hit);
  EXPECT_GE(r.batch_size, 1);
  EXPECT_NE(callback_thread, std::this_thread::get_id())
      << "model-path completion must come from the collector thread";
  server.Shutdown();
}

/// The future API is a wrapper over SubmitAsync; both paths must produce
/// identical outputs and identical accounting for identical traffic.
TEST(ServeTest, SubmitFutureAndSubmitAsyncAgree) {
  auto make_server = [] {
    return std::make_unique<ServeShard>(
        std::make_shared<SyntheticSession>(microseconds(100),
                                           microseconds(10)));
  };
  auto via_future = make_server();
  auto via_async = make_server();
  std::vector<std::string> outputs_future;
  std::vector<std::string> outputs_async;
  for (int i = 0; i < 8; ++i) {
    const std::string payload = "p" + std::to_string(i % 4);  // repeats hit
    outputs_future.push_back(via_future->Submit(payload).get().output);
    std::promise<ServeResponse> done;
    via_async->SubmitAsync(payload, [&](ServeResponse r) {
      done.set_value(std::move(r));
    });
    outputs_async.push_back(done.get_future().get().output);
  }
  via_future->Shutdown();
  via_async->Shutdown();
  EXPECT_EQ(outputs_future, outputs_async);
  EXPECT_EQ(via_future->Stats().cache_hits, via_async->Stats().cache_hits);
  EXPECT_EQ(via_future->Stats().completed, via_async->Stats().completed);
}

TEST(ServeTest, DuplicatePayloadsWithinBatchCoalesce) {
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 8;
  config.max_batch_delay = microseconds(500000);  // gather everything queued
  config.queue_capacity = 16;
  config.cache_capacity = 16;
  ServeShard server(session, config);

  // The generous gather window pulls all four submissions into one
  // micro-batch (the gate blocks execution, not batch formation).
  std::future<ServeResponse> warmup = server.Submit("warmup");
  std::future<ServeResponse> dup_a = server.Submit("dup");
  std::future<ServeResponse> dup_b = server.Submit("dup");
  std::future<ServeResponse> uniq = server.Submit("uniq");
  session->Open();

  ServeResponse rw = warmup.get();
  ServeResponse ra = dup_a.get();
  ServeResponse rb = dup_b.get();
  ServeResponse ru = uniq.get();
  server.Shutdown();
  ASSERT_TRUE(rw.status.ok());
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  ASSERT_TRUE(ru.status.ok());

  // Bit-identity: the one model execution fans out to both duplicates.
  EXPECT_EQ(ra.output, "echo:dup");
  EXPECT_EQ(rb.output, ra.output);
  // Exactly one of the duplicates rode its batch-mate's execution.
  EXPECT_NE(ra.cache_hit, rb.cache_hit);
  // The model saw one deduped batch: {warmup, dup, uniq}.
  EXPECT_EQ(session->items(), 3);
  const auto batches = session->batches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(ra.batch_size, 3);
  EXPECT_EQ(rb.batch_size, 3);
  EXPECT_EQ(ru.batch_size, 3);
  EXPECT_GT(ra.latency_ms, 0.0);
  EXPECT_GT(rb.latency_ms, 0.0);

  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.coalesced, 1u);
  // The duplicate's submit-time miss converts into a hit: one lookup
  // outcome per admitted request.
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.batch_size_histogram[3], 1u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(ServeTest, StatsRenderMentionsKeyMetrics) {
  auto session = std::make_shared<SyntheticSession>(microseconds(50),
                                                    microseconds(5));
  ServeShard server(session);
  server.Submit("x").get();
  server.Shutdown();
  const std::string report = server.Stats().Render("synthetic");
  EXPECT_NE(report.find("serving stats"), std::string::npos);
  EXPECT_NE(report.find("latency p95"), std::string::npos);
  EXPECT_NE(report.find("batch size"), std::string::npos);
}

TEST(ServeTest, ReservoirBoundsShardStatsMemory) {
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

TEST(ServeTest, SubmitRacingShutdownNeverCountsQueueFull) {
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

// ---- AggregateStats ---------------------------------------------------------

TEST(AggregateStatsTest, EmptyPartsYieldZeroes) {
  const ServerStatsSnapshot total = AggregateStats({}, {});
  EXPECT_EQ(total.submitted, 0u);
  EXPECT_EQ(total.batches, 0u);
  EXPECT_DOUBLE_EQ(total.mean_batch_size, 0.0);
  EXPECT_DOUBLE_EQ(total.cache_hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(total.p95_ms, 0.0);
  EXPECT_TRUE(total.batch_size_histogram.empty());
}

TEST(AggregateStatsTest, EmptyLatencyReservoirLeavesPercentilesZero) {
  // A shard that only served cache hits has counters but no model-path
  // latencies; aggregation must not fabricate percentiles.
  ServerStatsSnapshot part;
  part.submitted = 10;
  part.cache_hits = 10;
  const ServerStatsSnapshot total = AggregateStats({part}, {});
  EXPECT_EQ(total.submitted, 10u);
  EXPECT_DOUBLE_EQ(total.cache_hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(total.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(total.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(total.max_ms, 0.0);
}

TEST(AggregateStatsTest, SingleShardAggregatesToItself) {
  ServerStatsSnapshot part;
  part.submitted = 8;
  part.completed = 6;
  part.cache_hits = 2;
  part.cache_misses = 6;
  part.coalesced = 1;
  part.batches = 3;
  part.batch_size_histogram = {{1, 1}, {2, 1}, {3, 1}};
  const std::vector<double> lats = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const ServerStatsSnapshot total = AggregateStats({part}, lats);
  EXPECT_EQ(total.submitted, part.submitted);
  EXPECT_EQ(total.completed, part.completed);
  EXPECT_EQ(total.coalesced, part.coalesced);
  EXPECT_EQ(total.batch_size_histogram, part.batch_size_histogram);
  EXPECT_DOUBLE_EQ(total.mean_batch_size, 2.0);  // (1 + 2 + 3) / 3 passes
  EXPECT_DOUBLE_EQ(total.cache_hit_rate, 0.25);
  EXPECT_DOUBLE_EQ(total.max_ms, 6.0);
  EXPECT_GT(total.p95_ms, total.p50_ms);
}

TEST(AggregateStatsTest, HistogramBucketsSumAcrossShards) {
  ServerStatsSnapshot a, b;
  a.batches = 3;
  a.batch_size_histogram = {{1, 2}, {4, 1}};
  b.batches = 2;
  b.batch_size_histogram = {{4, 1}, {8, 1}};
  const ServerStatsSnapshot total = AggregateStats({a, b}, {});
  EXPECT_EQ(total.batches, 5u);
  EXPECT_EQ(total.batch_size_histogram.at(1), 2u);
  EXPECT_EQ(total.batch_size_histogram.at(4), 2u);
  EXPECT_EQ(total.batch_size_histogram.at(8), 1u);
  // rows = 1*2 + 4*2 + 8*1 = 18 over 5 passes
  EXPECT_DOUBLE_EQ(total.mean_batch_size, 18.0 / 5.0);
}

// ---- Session adapters -------------------------------------------------------

TEST(SessionTest, CleanerSessionServesMaskedCells) {
  Table table{Schema({"name", "city"})};
  for (int i = 0; i < 4; ++i) {
    table.AddRow({Value::String("ada"), Value::String("london")});
    table.AddRow({Value::String("alan"), Value::String("cambridge")});
  }
  CleanerConfig config;
  config.d_model = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  RptCleaner cleaner(config, BuildVocabFromTables({&table}));
  cleaner.PretrainOnTables({&table}, 30);

  auto session =
      std::make_shared<CleanerSession>(&cleaner, table.schema());
  ServerConfig server_config;
  server_config.max_batch_size = 4;
  ServeShard server(session, server_config);

  // Batched serving must agree with the direct batched API.
  Tuple query = {Value::String("ada"), Value::Null()};
  const std::string expected =
      cleaner.PredictBatch(table.schema(), {{query, 1}})[0];
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        server.Submit(CleanerSession::FormatCellQuery(query, 1)));
  }
  for (auto& f : futures) {
    ServeResponse r = f.get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.output, expected);
  }
  server.Shutdown();
}

TEST(SessionTest, InvalidRequestsGetInvalidArgumentNotACrash) {
  // Malformed and over-long payloads must come back as kInvalidArgument —
  // previously an over-long serialized query could trip a model-side
  // RPT_CHECK on the collector thread and abort the whole server — and the
  // server must keep serving valid requests afterwards.
  Table table{Schema({"name", "city"})};
  for (int i = 0; i < 4; ++i) {
    table.AddRow({Value::String("ada"), Value::String("london")});
    table.AddRow({Value::String("alan"), Value::String("cambridge")});
  }
  CleanerConfig config;
  config.d_model = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  config.max_seq_len = 24;  // small cap so an over-long query is easy to build
  RptCleaner cleaner(config, BuildVocabFromTables({&table}));
  cleaner.PretrainOnTables({&table}, 10);

  auto session = std::make_shared<CleanerSession>(&cleaner, table.schema());
  ServerConfig server_config;
  server_config.max_batch_size = 4;
  server_config.cache_capacity = 0;
  ServeShard server(session, server_config);

  // A cell whose serialization exceeds max_seq_len.
  std::string long_text;
  for (int i = 0; i < 64; ++i) long_text += "word" + std::to_string(i) + " ";
  Tuple over_long = {Value::String(long_text), Value::Null()};
  ServeResponse r =
      server.Submit(CleanerSession::FormatCellQuery(over_long, 1)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("max_seq_len"), std::string::npos);

  // Column out of range, non-numeric column, wrong arity, no separator.
  Tuple query = {Value::String("ada"), Value::Null()};
  EXPECT_EQ(server.Submit(CleanerSession::FormatCellQuery(query, 1) +
                          "\x1f" "extra_field").get()
                .status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      server.Submit("7\x1f" "ada\x1f" "london").get().status.code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      server.Submit("zap\x1f" "ada\x1f" "london").get().status.code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit("no separator here").get().status.code(),
            StatusCode::kInvalidArgument);

  // The server survives and still answers a well-formed request.
  ServeResponse ok = server.Submit(
      CleanerSession::FormatCellQuery(query, 1)).get();
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  server.Shutdown();
  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.invalid, 5u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_NE(stats.Render("cleaner").find("invalid"), std::string::npos);
}

TEST(SessionTest, MatcherRejectsMalformedPairsWithoutCrashing) {
  // Every malformed pair payload — no record separator, an embedded extra
  // separator, a side with the wrong arity — must come back as
  // kInvalidArgument on its own request, with the collector still alive.
  Table table{Schema({"name", "city"})};
  table.AddRow({Value::String("ada"), Value::String("london")});
  table.AddRow({Value::String("alan"), Value::String("cambridge")});
  MatcherConfig config;
  config.d_model = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  RptMatcher matcher(config, BuildVocabFromTables({&table}));

  auto session = std::make_shared<MatcherSession>(
      &matcher, table.schema(), table.schema());
  ServerConfig server_config;
  server_config.cache_capacity = 0;
  ServeShard server(session, server_config);

  Tuple a = {Value::String("ada"), Value::String("london")};
  Tuple b = {Value::String("alan"), Value::String("cambridge")};
  const std::string good = MatcherSession::FormatPairQuery(a, b);

  EXPECT_EQ(server.Submit("no record separator").get().status.code(),
            StatusCode::kInvalidArgument);
  // An embedded record separator shifts everything after it.
  EXPECT_EQ(server.Submit(good + "\x1e" "trailing").get().status.code(),
            StatusCode::kInvalidArgument);
  // Wrong arity on the right side.
  EXPECT_EQ(server.Submit(good + "\x1f" "extra").get().status.code(),
            StatusCode::kInvalidArgument);
  // Wrong arity on the left side.
  EXPECT_EQ(
      server.Submit("only_one_field\x1e" "x\x1f" "y").get().status.code(),
      StatusCode::kInvalidArgument);

  ServeResponse ok = server.Submit(good).get();
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  server.Shutdown();
  EXPECT_EQ(server.Stats().invalid, 4u);
  EXPECT_EQ(server.Stats().completed, 1u);
}

TEST(SessionTest, ExtractorRejectsMalformedQueriesWithoutCrashing) {
  Table table{Schema({"desc"})};
  table.AddRow({Value::String("ada lives in london with a cat")});
  ExtractorConfig config;
  config.d_model = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 32;
  config.dropout = 0.0f;
  RptExtractor extractor(config, BuildVocabFromTables({&table}));

  auto session = std::make_shared<ExtractorSession>(&extractor);
  ServerConfig server_config;
  server_config.cache_capacity = 0;
  ServeShard server(session, server_config);

  // No question/paragraph separator.
  EXPECT_EQ(server.Submit("where does ada live").get().status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit("").get().status.code(),
            StatusCode::kInvalidArgument);

  ServeResponse ok = server.Submit(ExtractorSession::FormatQaQuery(
      "where does ada live", "ada lives in london with a cat")).get();
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  server.Shutdown();
  EXPECT_EQ(server.Stats().invalid, 2u);
  EXPECT_EQ(server.Stats().completed, 1u);
}

TEST(SessionTest, PayloadFormatsRoundTripSeparators) {
  // Cell text with spaces/punctuation must survive the payload encoding.
  Tuple t1 = {Value::String("anna k."), Value::Number(3.5), Value::Null()};
  Tuple t2 = {Value::String("anna k"), Value::Number(3.5), Value::Null()};
  const std::string cell = CleanerSession::FormatCellQuery(t1, 2);
  EXPECT_NE(cell.find("anna k."), std::string::npos);
  const std::string pair = MatcherSession::FormatPairQuery(t1, t2);
  EXPECT_NE(pair.find("anna k."), std::string::npos);
  const std::string qa =
      ExtractorSession::FormatQaQuery("what is the city", "ada lives in london");
  EXPECT_NE(qa.find("what is the city"), std::string::npos);
  EXPECT_NE(qa.find("ada lives in london"), std::string::npos);
}

}  // namespace
}  // namespace rpt
