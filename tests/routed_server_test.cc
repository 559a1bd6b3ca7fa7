// Tests for the routed serving front-end: route-key dispatch, stable
// payload-hash sharding (per-shard caches keep absorbing repeats),
// least-loaded fallback under shard saturation, per-route/per-shard stats
// aggregation, concurrent submit vs shutdown, and the exposition: each
// server renders its own shards' series, and they agree with Stats().

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

#include "obs/metrics.h"
#include "prometheus_check.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rpt {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using testutil::SampleValue;
using testutil::ValidateExposition;

/// Echoes inputs prefixed with a fixed label, so tests can tell which
/// route's session produced an output.
class LabelSession : public ModelSession {
 public:
  explicit LabelSession(std::string label) : label_(std::move(label)) {}

  std::string name() const override { return label_; }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    std::vector<std::string> out;
    out.reserve(inputs.size());
    for (const auto& s : inputs) out.push_back(label_ + ":" + s);
    return out;
  }

 private:
  std::string label_;
};

/// Echo session whose forward passes block until Open() — lets tests wedge
/// one shard of a pool deterministically.
class GateSession : public ModelSession {
 public:
  std::string name() const override { return "gate"; }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    }
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

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// GateSession whose Validate rejects payloads starting with "bad".
class PickyGateSession : public GateSession {
 public:
  Status Validate(const std::string& input) const override {
    if (input.rfind("bad", 0) == 0) {
      return Status::InvalidArgument("payload starts with 'bad'");
    }
    return Status::Ok();
  }
};

/// First `count` payloads of the form "p<i>" that hash onto `want_shard`
/// of a `num_shards`-wide pool.
std::vector<std::string> PayloadsForShard(size_t want_shard,
                                          size_t num_shards, size_t count) {
  std::vector<std::string> out;
  for (int i = 0; out.size() < count; ++i) {
    std::string p = "p" + std::to_string(i);
    if (ShardForPayload(p, num_shards) == want_shard) {
      out.push_back(std::move(p));
    }
  }
  return out;
}

TEST(RoutedServerTest, DispatchesByRouteKey) {
  std::vector<RouteSpec> routes;
  ServerConfig config;
  config.cache_capacity = 0;
  routes.push_back({"clean", {std::make_shared<LabelSession>("clean")},
                    config});
  routes.push_back({"match", {std::make_shared<LabelSession>("match")},
                    config});
  routes.push_back({"extract", {std::make_shared<LabelSession>("extract")},
                    config});
  RoutedServer server(std::move(routes));
  EXPECT_EQ(server.num_routes(), 3u);
  EXPECT_TRUE(server.HasRoute("clean"));
  EXPECT_FALSE(server.HasRoute("repair"));

  ServeResponse c = server.Submit("clean", "x").get();
  ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  EXPECT_EQ(c.output, "clean:x");
  ServeResponse m = server.Submit("match", "x").get();
  EXPECT_EQ(m.output, "match:x");
  ServeResponse e = server.Submit("extract", "x").get();
  EXPECT_EQ(e.output, "extract:x");

  ServeResponse unknown = server.Submit("repair", "x").get();
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status.message().find("repair"), std::string::npos);

  server.Shutdown();
  RoutedStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.unknown_route, 1u);
  EXPECT_EQ(stats.total.completed, 3u);
}

TEST(RoutedServerTest, SubmitAsyncUnknownRouteCompletesInline) {
  ServerConfig config;
  RoutedServer server({{"clean", {std::make_shared<LabelSession>("clean")},
                        config}});
  bool invoked = false;
  const std::thread::id submitter = std::this_thread::get_id();
  server.SubmitAsync("repair", "x", [&](ServeResponse r) {
    invoked = true;
    EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
    EXPECT_EQ(std::this_thread::get_id(), submitter);
    EXPECT_NE(r.status.message().find("repair"), std::string::npos);
  });
  // Unknown routes complete inline, before SubmitAsync returns.
  EXPECT_TRUE(invoked);
  server.Shutdown();
  EXPECT_EQ(server.Stats().unknown_route, 1u);
  EXPECT_EQ(server.RouteNames(), std::vector<std::string>{"clean"});
}

TEST(RoutedServerTest, SubmitAsyncMatchesSubmitWaitByteForByte) {
  ServerConfig config;
  config.cache_capacity = 16;
  std::vector<RouteSpec> routes;
  routes.push_back({"clean", {std::make_shared<LabelSession>("clean")},
                    config});
  routes.push_back({"match", {std::make_shared<LabelSession>("match")},
                    config});
  RoutedServer server(std::move(routes));

  for (const std::string& route : server.RouteNames()) {
    for (int i = 0; i < 4; ++i) {
      const std::string payload = "p" + std::to_string(i % 2);
      const ServeResponse sync = server.Submit(route, payload).get();
      ASSERT_TRUE(sync.status.ok()) << sync.status.ToString();
      std::promise<ServeResponse> done;
      server.SubmitAsync(route, payload, [&](ServeResponse r) {
        done.set_value(std::move(r));
      });
      const ServeResponse async = done.get_future().get();
      ASSERT_TRUE(async.status.ok()) << async.status.ToString();
      EXPECT_EQ(async.output, sync.output)
          << route << "/" << payload << " differs between the two APIs";
    }
  }
  server.Shutdown();
}

TEST(RoutedServerTest, HashDispatchKeepsCachingShardStable) {
  constexpr size_t kShards = 3;
  std::vector<std::shared_ptr<ModelSession>> replicas;
  for (size_t i = 0; i < kShards; ++i) {
    replicas.push_back(
        std::make_shared<SyntheticSession>(microseconds(50), microseconds(5)));
  }
  ServerConfig config;
  config.cache_capacity = 64;
  RoutedServer server({{"synthetic", replicas, config}});
  ASSERT_EQ(server.NumShards("synthetic"), kShards);

  // Each payload submitted twice: the repeat must land on the same shard
  // and hit that shard's LRU.
  constexpr int kPayloads = 12;
  std::vector<uint64_t> expected_submits(kShards, 0);
  for (int i = 0; i < kPayloads; ++i) {
    const std::string payload = "cell_" + std::to_string(i);
    expected_submits[ShardForPayload(payload, kShards)] += 2;
    ServeResponse cold = server.Submit("synthetic", payload).get();
    ASSERT_TRUE(cold.status.ok());
    EXPECT_FALSE(cold.cache_hit);
    ServeResponse warm = server.Submit("synthetic", payload).get();
    ASSERT_TRUE(warm.status.ok());
    EXPECT_TRUE(warm.cache_hit) << payload;
    EXPECT_EQ(warm.output, cold.output);
  }
  server.Shutdown();

  RoutedStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.fallback_dispatches, 0u);
  EXPECT_EQ(stats.total.cache_hits, static_cast<uint64_t>(kPayloads));
  ASSERT_EQ(stats.routes.size(), 1u);
  const RouteStatsSnapshot& route = stats.routes[0];
  ASSERT_EQ(route.shards.size(), kShards);
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(route.shards[i].submitted, expected_submits[i]) << i;
  }
  // The deterministic hash must actually spread this workload.
  size_t active_shards = 0;
  for (size_t i = 0; i < kShards; ++i) {
    if (expected_submits[i] > 0) ++active_shards;
  }
  EXPECT_GE(active_shards, 2u);
}

TEST(RoutedServerTest, StragglerWindowMovesTimingNotOutputsOrAggregates) {
  // A route with no straggler window (the default) and a route with a
  // 2000 us window over identical replica pools must serve identical bytes,
  // and each route's and the server's aggregates must equal the sums of
  // their shards.
  constexpr size_t kShards = 2;
  auto make_replicas = [] {
    std::vector<std::shared_ptr<ModelSession>> replicas;
    for (size_t i = 0; i < kShards; ++i) {
      replicas.push_back(std::make_shared<SyntheticSession>(microseconds(50),
                                                            microseconds(5)));
    }
    return replicas;
  };
  ServerConfig greedy_config;
  greedy_config.cache_capacity = 0;
  ServerConfig windowed_config = greedy_config;
  windowed_config.max_batch_delay = microseconds(2000);
  RoutedServer server({{"greedy", make_replicas(), greedy_config},
                       {"windowed", make_replicas(), windowed_config}});

  constexpr int kPayloads = 48;
  std::vector<std::future<ServeResponse>> greedy_futures, windowed_futures;
  for (int i = 0; i < kPayloads; ++i) {
    const std::string payload = "cell_" + std::to_string(i);
    greedy_futures.push_back(server.Submit("greedy", payload));
    windowed_futures.push_back(server.Submit("windowed", payload));
  }
  for (int i = 0; i < kPayloads; ++i) {
    ServeResponse g = greedy_futures[i].get();
    ServeResponse w = windowed_futures[i].get();
    ASSERT_TRUE(g.status.ok()) << g.status.ToString();
    ASSERT_TRUE(w.status.ok()) << w.status.ToString();
    EXPECT_EQ(g.output, w.output) << i;  // window moves timing, not bytes
  }
  server.Shutdown();

  RoutedStatsSnapshot stats = server.Stats();
  ASSERT_EQ(stats.routes.size(), 2u);
  ServerStatsSnapshot all_shards;
  for (const RouteStatsSnapshot& route : stats.routes) {
    SCOPED_TRACE(route.route);
    ASSERT_EQ(route.shards.size(), kShards);
    ServerStatsSnapshot shard_sum;
    for (const ServerStatsSnapshot& shard : route.shards) {
      for (ServerStatsSnapshot* sum : {&shard_sum, &all_shards}) {
        sum->submitted += shard.submitted;
        sum->completed += shard.completed;
        sum->batches += shard.batches;
        for (const auto& [size, count] : shard.batch_size_histogram) {
          sum->batch_size_histogram[size] += count;
        }
      }
    }
    EXPECT_EQ(route.total.submitted, static_cast<uint64_t>(kPayloads));
    EXPECT_EQ(route.total.completed, static_cast<uint64_t>(kPayloads));
    EXPECT_EQ(route.total.submitted, shard_sum.submitted);
    EXPECT_EQ(route.total.completed, shard_sum.completed);
    EXPECT_EQ(route.total.batches, shard_sum.batches);
    EXPECT_EQ(route.total.batch_size_histogram,
              shard_sum.batch_size_histogram);
  }
  EXPECT_EQ(stats.total.submitted, all_shards.submitted);
  EXPECT_EQ(stats.total.completed, all_shards.completed);
  EXPECT_EQ(stats.total.batches, all_shards.batches);
  EXPECT_EQ(stats.total.batch_size_histogram,
            all_shards.batch_size_histogram);
}

TEST(RoutedServerTest, SaturatedShardFallsBackToLeastLoaded) {
  auto gate0 = std::make_shared<GateSession>();
  auto gate1 = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 1;
  config.cache_capacity = 0;
  RoutedServer server({{"gate", {gate0, gate1}, config}});
  gate1->Open();  // shard 1 serves freely; shard 0 stays wedged

  const std::vector<std::string> payloads = PayloadsForShard(0, 2, 3);
  // First request occupies shard 0's collector, the second fills its
  // one-slot queue; both park behind the closed gate.
  std::future<ServeResponse> wedged_a =
      server.Submit("gate", payloads[0]);
  std::this_thread::sleep_for(milliseconds(100));
  std::future<ServeResponse> wedged_b =
      server.Submit("gate", payloads[1]);
  // Hash says shard 0, but shard 0 is saturated — the dispatcher must fall
  // back to the shallowest queue (shard 1), where the gate is open.
  ServeResponse rerouted = server.Submit("gate", payloads[2]).get();
  EXPECT_TRUE(rerouted.status.ok()) << rerouted.status.ToString();
  EXPECT_EQ(rerouted.output, "echo:" + payloads[2]);

  gate0->Open();
  EXPECT_TRUE(wedged_a.get().status.ok());
  EXPECT_TRUE(wedged_b.get().status.ok());
  server.Shutdown();

  RoutedStatsSnapshot stats = server.Stats();
  EXPECT_GE(stats.fallback_dispatches, 1u);
  ASSERT_EQ(stats.routes.size(), 1u);
  EXPECT_GE(stats.routes[0].shards[1].completed, 1u);
  EXPECT_EQ(stats.total.rejected, 0u);  // fallback, not backpressure
}

TEST(RoutedServerTest, AggregatedStatsReconcileWithShardSums) {
  std::vector<RouteSpec> routes;
  ServerConfig config;
  config.cache_capacity = 32;
  routes.push_back({"a",
                    {std::make_shared<SyntheticSession>(microseconds(50),
                                                        microseconds(5)),
                     std::make_shared<SyntheticSession>(microseconds(50),
                                                        microseconds(5))},
                    config});
  routes.push_back({"b",
                    {std::make_shared<SyntheticSession>(microseconds(50),
                                                        microseconds(5))},
                    config});
  RoutedServer server(std::move(routes));

  for (int i = 0; i < 24; ++i) {
    // Every third payload repeats, to exercise the cache counters too.
    const int key = (i % 3 == 2) ? i - 1 : i;
    ASSERT_TRUE(
        server.Submit("a", "pay_" + std::to_string(key)).get().status.ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        server.Submit("b", "pay_" + std::to_string(i)).get().status.ok());
  }
  ASSERT_EQ(server.Submit("nope", "x").get().status.code(),
            StatusCode::kNotFound);
  server.Shutdown();

  RoutedStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.unknown_route, 1u);
  EXPECT_EQ(stats.total.submitted, 32u);  // unknown-route never reaches a shard

  // Every aggregate must equal the sum of its parts, per route and overall.
  ServerStatsSnapshot sum_all;
  for (const RouteStatsSnapshot& route : stats.routes) {
    ServerStatsSnapshot sum_route;
    for (const ServerStatsSnapshot& s : route.shards) {
      for (ServerStatsSnapshot* acc : {&sum_route, &sum_all}) {
        acc->submitted += s.submitted;
        acc->completed += s.completed;
        acc->rejected += s.rejected;
        acc->shutdown_rejected += s.shutdown_rejected;
        acc->expired += s.expired;
        acc->invalid += s.invalid;
        acc->cache_hits += s.cache_hits;
        acc->cache_misses += s.cache_misses;
        acc->coalesced += s.coalesced;
        acc->batches += s.batches;
      }
    }
    EXPECT_EQ(route.total.submitted, sum_route.submitted);
    EXPECT_EQ(route.total.completed, sum_route.completed);
    EXPECT_EQ(route.total.cache_hits, sum_route.cache_hits);
    EXPECT_EQ(route.total.cache_misses, sum_route.cache_misses);
    EXPECT_EQ(route.total.batches, sum_route.batches);
  }
  EXPECT_EQ(stats.total.submitted, sum_all.submitted);
  EXPECT_EQ(stats.total.completed, sum_all.completed);
  EXPECT_EQ(stats.total.rejected, sum_all.rejected);
  EXPECT_EQ(stats.total.shutdown_rejected, sum_all.shutdown_rejected);
  EXPECT_EQ(stats.total.expired, sum_all.expired);
  EXPECT_EQ(stats.total.invalid, sum_all.invalid);
  EXPECT_EQ(stats.total.cache_hits, sum_all.cache_hits);
  EXPECT_EQ(stats.total.cache_misses, sum_all.cache_misses);
  EXPECT_EQ(stats.total.coalesced, sum_all.coalesced);
  EXPECT_EQ(stats.total.batches, sum_all.batches);
  EXPECT_GT(stats.total.cache_hits, 0u);  // the repeats landed

  const std::string report = stats.Render();
  EXPECT_NE(report.find("routed serving stats"), std::string::npos);
  EXPECT_NE(report.find("all routes"), std::string::npos);
  EXPECT_NE(report.find("route a"), std::string::npos);
  EXPECT_NE(report.find("fallback dispatches"), std::string::npos);
}

TEST(RoutedServerTest, ConcurrentSubmitAndShutdownComplete) {
  std::vector<RouteSpec> routes;
  ServerConfig config;
  config.max_batch_size = 4;
  config.cache_capacity = 0;
  for (const char* name : {"clean", "match"}) {
    routes.push_back({name,
                      {std::make_shared<SyntheticSession>(microseconds(50),
                                                          microseconds(5)),
                       std::make_shared<SyntheticSession>(microseconds(50),
                                                          microseconds(5))},
                      config});
  }
  RoutedServer server(std::move(routes));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0}, unavailable{0}, other{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string route = (i % 2 == 0) ? "clean" : "match";
        ServeResponse r = server.Submit(
            route, "t" + std::to_string(t) + "_" + std::to_string(i)).get();
        if (r.status.ok()) {
          ok.fetch_add(1);
        } else if (r.status.code() == StatusCode::kUnavailable) {
          unavailable.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(2));
  server.Shutdown();  // races against in-flight submits, by design
  for (auto& c : clients) c.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + unavailable.load(), kThreads * kPerThread);
  RoutedStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.total.submitted,
            static_cast<uint64_t>(kThreads * kPerThread));
  // Conservation: every submission is completed, queue-full rejected, or
  // shutdown rejected — nothing is lost or double counted.
  EXPECT_EQ(stats.total.completed + stats.total.rejected +
                stats.total.shutdown_rejected,
            stats.total.submitted);
  EXPECT_EQ(stats.total.completed, static_cast<uint64_t>(ok.load()));
}

/// Echo session that admits only payloads starting with "ok". RunBatch
/// mirrors the real session adapters: it CHECK-fails (aborting the process)
/// on any payload Validate should have rejected — so if a malformed request
/// ever reaches batch formation, the hammer test below dies loudly instead
/// of passing.
class PickySession : public ModelSession {
 public:
  std::string name() const override { return "picky"; }

  Status Validate(const std::string& input) const override {
    if (input.rfind("ok", 0) != 0) {
      return Status::InvalidArgument("payload must start with ok");
    }
    return Status::Ok();
  }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    std::vector<std::string> out;
    out.reserve(inputs.size());
    for (const auto& s : inputs) {
      RPT_CHECK(s.rfind("ok", 0) == 0)
          << "malformed payload slipped past Validate";
      out.push_back("echo:" + s);
    }
    return out;
  }
};

TEST(RoutedServerTest, UnknownRouteNumShardsIsZeroNotFatal) {
  // NumShards on an unknown route used to CHECK-fail and abort; a lookup a
  // request could trigger must degrade to the honest answer instead.
  ServerConfig config;
  RoutedServer server({{"clean", {std::make_shared<LabelSession>("clean")},
                        config}});
  EXPECT_EQ(server.NumShards("clean"), 1u);
  EXPECT_EQ(server.NumShards("no-such-route"), 0u);
  EXPECT_EQ(server.NumShards(""), 0u);
  EXPECT_FALSE(server.HasRoute("no-such-route"));
  // And an actual request for it completes with kNotFound.
  EXPECT_EQ(server.Submit("no-such-route", "x").get().status.code(),
            StatusCode::kNotFound);
  server.Shutdown();
}

TEST(RoutedServerTest, MalformedPayloadHammerNeverKillsTheServer) {
  // Abort-proofing sweep: a hostile mix of malformed payloads across a
  // multi-replica pool, from several threads at once, must come back as
  // per-request kInvalidArgument — never reach RunBatch (whose CHECK would
  // abort the process) and never wedge valid traffic behind it.
  std::vector<RouteSpec> routes;
  ServerConfig config;
  config.max_batch_size = 8;
  config.max_batch_delay = microseconds(200);
  config.cache_capacity = 0;
  routes.push_back({"picky",
                    {std::make_shared<PickySession>(),
                     std::make_shared<PickySession>(),
                     std::make_shared<PickySession>()},
                    config});
  RoutedServer server(std::move(routes));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::atomic<int> invalid{0}, completed{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<std::string> bad = {
          "bad", "", "\x1f\x1e", "o", "not ok", "OK_wrong_case"};
      for (int i = 0; i < kPerThread; ++i) {
        // Interleave valid and malformed traffic on every thread.
        const bool good = (i % 2) == 0;
        const std::string payload =
            good ? "ok_" + std::to_string(t) + "_" + std::to_string(i)
                 : bad[static_cast<size_t>(i / 2) % bad.size()];
        ServeResponse r = server.Submit("picky", payload).get();
        if (r.status.ok()) {
          EXPECT_EQ(r.output, "echo:" + payload);
          completed.fetch_add(1);
        } else if (r.status.code() == StatusCode::kInvalidArgument) {
          EXPECT_FALSE(good) << payload;
          invalid.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.Shutdown();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kPerThread / 2);
  EXPECT_EQ(invalid.load(), kThreads * kPerThread / 2);
  RoutedStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.total.invalid, static_cast<uint64_t>(invalid.load()));
  EXPECT_EQ(stats.total.completed, static_cast<uint64_t>(completed.load()));
}

// ---- Exposition: one record per shard ---------------------------------------

/// Value of `name{server="<shard>"<extra>}` in `text`.
double ShardSample(const std::string& text, const std::string& name,
                   const std::string& shard, const std::string& extra = "") {
  return SampleValue(text, name, "{" + extra + "server=\"" + shard + "\"}");
}

/// Every counter series of `shard` in `text` must equal its Stats() field;
/// the batch-row histogram must equal the exact batch-size map, and the
/// latency histogram must hold one observation per admitted request.
void ExpectExpositionMatchesStats(const std::string& text,
                                  const std::string& shard,
                                  const ServerStatsSnapshot& s) {
  SCOPED_TRACE(shard);
  const auto series = [&](const char* name) {
    return ShardSample(text, name, shard);
  };
  EXPECT_DOUBLE_EQ(series("rpt_serve_submitted_total"), s.submitted);
  EXPECT_DOUBLE_EQ(series("rpt_serve_completed_total"), s.completed);
  EXPECT_DOUBLE_EQ(ShardSample(text, "rpt_serve_rejected_total", shard,
                               "reason=\"queue_full\","),
                   s.rejected);
  EXPECT_DOUBLE_EQ(ShardSample(text, "rpt_serve_rejected_total", shard,
                               "reason=\"shutdown\","),
                   s.shutdown_rejected);
  EXPECT_DOUBLE_EQ(series("rpt_serve_expired_total"), s.expired);
  EXPECT_DOUBLE_EQ(series("rpt_serve_invalid_total"), s.invalid);
  EXPECT_DOUBLE_EQ(series("rpt_serve_cache_hits_total"), s.cache_hits);
  EXPECT_DOUBLE_EQ(series("rpt_serve_cache_lookups_total") -
                       series("rpt_serve_cache_hits_total"),
                   s.cache_misses);
  EXPECT_DOUBLE_EQ(series("rpt_serve_coalesced_total"), s.coalesced);
  EXPECT_DOUBLE_EQ(series("rpt_serve_inflight_coalesced_total"),
                   s.inflight_coalesced);
  EXPECT_DOUBLE_EQ(series("rpt_serve_neardup_hits_total"), s.neardup_hits);
  EXPECT_DOUBLE_EQ(series("rpt_serve_batches_total"), s.batches);
  EXPECT_DOUBLE_EQ(series("rpt_serve_queue_depth"), s.queue_depth);
  // The batch-row histogram is built from the exact map, in every build.
  double rows = 0;
  for (const auto& [size, count] : s.batch_size_histogram) {
    rows += static_cast<double>(size * count);
  }
  EXPECT_DOUBLE_EQ(series("rpt_serve_batch_rows_count"), s.batches);
  EXPECT_DOUBLE_EQ(series("rpt_serve_batch_rows_sum"), rows);
  if constexpr (obs::kObsEnabled) {
    // Every request that was not turned away at submit time completed
    // (the server is shut down and drained): hit, model answer, expiry or
    // Validate failure — each one latency observation.
    EXPECT_DOUBLE_EQ(series("rpt_serve_latency_ms_count"),
                     s.submitted - s.rejected - s.shutdown_rejected);
  }
}

// Each server renders only its own shards' series and its own dispatch
// counters: two live servers that both have a `clean` route (shard
// `clean#0`) never share a series.
TEST(RoutedMetricsTest, TwoServersWithOneRouteNameKeepSeparateSeries) {
  ServerConfig config;
  config.cache_capacity = 0;
  RoutedServer a({{"clean", {std::make_shared<LabelSession>("a")}, config}});
  RoutedServer b({{"clean", {std::make_shared<LabelSession>("b")}, config}});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.Submit("clean", "a" + std::to_string(i)).get().status.ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b.Submit("clean", "b" + std::to_string(i)).get().status.ok());
  }
  ASSERT_EQ(a.Submit("translate", "x").get().status.code(),
            StatusCode::kNotFound);

  const std::string text_a = a.MetricsText();
  const std::string text_b = b.MetricsText();
  ValidateExposition(text_a);
  ValidateExposition(text_b);
  EXPECT_DOUBLE_EQ(ShardSample(text_a, "rpt_serve_submitted_total", "clean#0"),
                   3);
  EXPECT_DOUBLE_EQ(ShardSample(text_b, "rpt_serve_submitted_total", "clean#0"),
                   5);
  EXPECT_DOUBLE_EQ(SampleValue(text_a, "rpt_route_unknown_total", ""), 1);
  EXPECT_DOUBLE_EQ(SampleValue(text_b, "rpt_route_unknown_total", ""), 0);
}

/// Waits until `route`'s collectors have popped everything queued (a
/// wedged collector holds its batch, not a queue slot).
void WaitForEmptyQueue(const RoutedServer& server, const std::string& route) {
  const auto depth = [&] {
    for (const RouteStatsSnapshot& r : server.Stats().routes) {
      if (r.route == route) return r.total.queue_depth;
    }
    return size_t{0};
  };
  while (depth() > 0) std::this_thread::sleep_for(milliseconds(1));
}

/// Holds a gate shard shut with a wedge request, submits a representative
/// and one joiner carrying `payload` (the representative with `timeout`),
/// and checks both fail with `want`. Returns the shard's latency count.
double LatencyCountAfterFailedJoin(const std::string& route,
                                   const std::string& payload,
                                   milliseconds timeout, StatusCode want) {
  auto gate = std::make_shared<PickyGateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.cache_capacity = 0;
  RoutedServer server({{route, {gate}, config}});
  std::future<ServeResponse> wedge = server.Submit(route, "wedge");
  WaitForEmptyQueue(server, route);
  std::future<ServeResponse> rep = server.Submit(route, payload, timeout);
  std::future<ServeResponse> joiner = server.Submit(route, payload);
  std::this_thread::sleep_for(milliseconds(50));
  gate->Open();
  EXPECT_TRUE(wedge.get().status.ok());
  EXPECT_EQ(rep.get().status.code(), want);
  EXPECT_EQ(joiner.get().status.code(), want);
  server.Shutdown();
  EXPECT_EQ(server.Stats().total.inflight_coalesced, 1u);
  return ShardSample(server.MetricsText(), "rpt_serve_latency_ms_count",
                     route + "#0");
}

// Every admitted request reaches the latency histogram, a representative
// that fails at batch formation included: wedge + representative + joiner.
TEST(RoutedMetricsTest, ExpiredRepresentativeAndJoinerAreBothObserved) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  EXPECT_DOUBLE_EQ(LatencyCountAfterFailedJoin("expiry", "doomed",
                                               milliseconds(1),
                                               StatusCode::kDeadlineExceeded),
                   3);
}

TEST(RoutedMetricsTest, InvalidRepresentativeAndJoinerAreBothObserved) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  EXPECT_DOUBLE_EQ(
      LatencyCountAfterFailedJoin("invalid", "bad payload",
                                  milliseconds::max(),
                                  StatusCode::kInvalidArgument),
      3);
}

// Drives one server through every outcome, then checks that /metrics and
// Stats() agree series by series.
TEST(RoutedMetricsTest, ExpositionAgreesWithStatsAcrossEveryOutcome) {
  constexpr const char kDoc[] =
      "stainless steel chef knife 20 cm blade full tang riveted pakka wood "
      "handle forged from one piece hand sharpened to 15 degrees per side "
      "dishwasher safe but hand washing recommended lifetime warranty";
  constexpr const char kNearDoc[] =
      "stainless steel chef knife 21 cm blade full tang riveted pakka wood "
      "handle forged from one piece hand sharpened to 15 degrees per side "
      "dishwasher safe but hand washing recommended lifetime warranty";

  ServerConfig cache_config;
  cache_config.cache_capacity = 64;
  cache_config.exactness = Exactness::kNearDup;
  cache_config.neardup_max_hamming = 12;
  ServerConfig gate_config;
  gate_config.max_batch_size = 1;
  gate_config.queue_capacity = 2;
  ServerConfig pool_config;
  pool_config.max_batch_size = 1;
  pool_config.queue_capacity = 1;
  pool_config.cache_capacity = 0;
  auto gate = std::make_shared<PickyGateSession>();
  auto pool_gate = std::make_shared<GateSession>();
  std::vector<RouteSpec> routes;
  routes.push_back(
      {"cache", {std::make_shared<LabelSession>("cache")}, cache_config});
  routes.push_back({"gate", {gate}, gate_config});
  routes.push_back(
      {"pool", {pool_gate, std::make_shared<LabelSession>("pool")},
       pool_config});
  RoutedServer server(std::move(routes));

  // LRU hit and near-duplicate hit.
  ASSERT_TRUE(server.Submit("cache", kDoc).get().status.ok());
  EXPECT_TRUE(server.Submit("cache", kDoc).get().cache_hit);
  EXPECT_TRUE(server.Submit("cache", kNearDoc).get().cache_hit);
  // Behind a wedged collector: an Ok joiner, an expiring representative
  // with its joiner, a Validate failure, and queue-full.
  std::future<ServeResponse> wedge = server.Submit("gate", "wedge");
  WaitForEmptyQueue(server, "gate");
  std::future<ServeResponse> wedge_joiner = server.Submit("gate", "wedge");
  std::future<ServeResponse> doomed =
      server.Submit("gate", "doomed", milliseconds(1));
  std::future<ServeResponse> doomed_joiner = server.Submit("gate", "doomed");
  std::future<ServeResponse> bad = server.Submit("gate", "bad");
  EXPECT_EQ(server.Submit("gate", "overflow").get().status.code(),
            StatusCode::kUnavailable);
  // Saturation fallback: shard 0 of the pool is wedged and its one-slot
  // queue full, so its next payload runs on shard 1.
  const std::vector<std::string> pool_payloads = PayloadsForShard(0, 2, 3);
  std::future<ServeResponse> pool_a = server.Submit("pool", pool_payloads[0]);
  WaitForEmptyQueue(server, "pool");
  std::future<ServeResponse> pool_b = server.Submit("pool", pool_payloads[1]);
  EXPECT_TRUE(server.Submit("pool", pool_payloads[2]).get().status.ok());
  // Unknown route.
  EXPECT_EQ(server.Submit("nope", "x").get().status.code(),
            StatusCode::kNotFound);

  std::this_thread::sleep_for(milliseconds(30));
  gate->Open();
  pool_gate->Open();
  EXPECT_TRUE(wedge.get().status.ok());
  EXPECT_TRUE(wedge_joiner.get().cache_hit);
  EXPECT_EQ(doomed.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(doomed_joiner.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(bad.get().status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(pool_a.get().status.ok());
  EXPECT_TRUE(pool_b.get().status.ok());
  server.Shutdown();
  // Shutdown rejection.
  EXPECT_EQ(server.Submit("cache", "late").get().status.code(),
            StatusCode::kUnavailable);

  const RoutedStatsSnapshot stats = server.Stats();
  // Every outcome happened.
  EXPECT_EQ(stats.total.neardup_hits, 1u);
  EXPECT_EQ(stats.total.inflight_coalesced, 2u);
  EXPECT_EQ(stats.total.coalesced, 1u);   // the Ok joiner
  EXPECT_EQ(stats.total.cache_hits, 3u);  // LRU + near-dup + the fold
  EXPECT_EQ(stats.total.rejected, 1u);
  EXPECT_EQ(stats.total.shutdown_rejected, 1u);
  EXPECT_EQ(stats.total.expired, 2u);
  EXPECT_EQ(stats.total.invalid, 1u);
  EXPECT_EQ(stats.unknown_route, 1u);
  EXPECT_EQ(stats.fallback_dispatches, 1u);

  const std::string text = server.MetricsText();
  ValidateExposition(text);
  for (const RouteStatsSnapshot& route : stats.routes) {
    for (size_t i = 0; i < route.shards.size(); ++i) {
      ExpectExpositionMatchesStats(text, route.route + "#" + std::to_string(i),
                                   route.shards[i]);
    }
  }
  EXPECT_DOUBLE_EQ(SampleValue(text, "rpt_route_unknown_total", ""),
                   stats.unknown_route);
  EXPECT_DOUBLE_EQ(SampleValue(text, "rpt_route_fallback_total", ""),
                   stats.fallback_dispatches);
}

}  // namespace
}  // namespace rpt
