// Tests for the observability layer: metrics registry semantics, Prometheus
// text exposition validity, tracer ring-buffer behavior, thread-local span
// nesting, and the end-to-end trace a RoutedServer request produces
// (serve.submit containing queue_wait / batch / execute spans).

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "prometheus_check.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"

namespace rpt {
namespace {

using obs::GlobalMetrics;
using obs::GlobalTracer;
using obs::Labels;
using obs::SpanRecord;
using testutil::SampleValue;
using testutil::ValidateExposition;
using std::chrono::microseconds;

/// Re-enables/disables the global tracer for one test and clears its ring,
/// so tests neither see each other's spans nor leave tracing on.
class ScopedTracerEnabled {
 public:
  ScopedTracerEnabled() {
    GlobalTracer().Clear();
    GlobalTracer().set_enabled(true);
  }
  ~ScopedTracerEnabled() {
    GlobalTracer().set_enabled(false);
    GlobalTracer().Clear();
  }
};

// Exposition validation lives in prometheus_check.h, shared with net_test
// (which re-checks the same invariants against the live /metrics endpoint).

// ---- MetricsRegistry --------------------------------------------------------

TEST(MetricsTest, CounterSumsAcrossThreads) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  obs::Counter* c =
      GlobalMetrics().GetCounter("rpt_test_threads_total", {{"t", "a"}});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 1000; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), 8000u);
}

TEST(MetricsTest, SameNameAndLabelsShareOneSeries) {
  obs::Counter* a =
      GlobalMetrics().GetCounter("rpt_test_shared_total", {{"x", "1"}});
  obs::Counter* b =
      GlobalMetrics().GetCounter("rpt_test_shared_total", {{"x", "1"}});
  obs::Counter* other =
      GlobalMetrics().GetCounter("rpt_test_shared_total", {{"x", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(MetricsTest, GaugeStoresLastValueAndAdds) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  obs::Gauge* g = GlobalMetrics().GetGauge("rpt_test_gauge");
  g->Set(4.5);
  EXPECT_DOUBLE_EQ(g->Value(), 4.5);
  g->Add(-1.25);
  EXPECT_DOUBLE_EQ(g->Value(), 3.25);
}

TEST(MetricsTest, HistogramBucketsCountAndSum) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  obs::Histogram* h = GlobalMetrics().GetHistogram(
      "rpt_test_hist", {}, {1.0, 10.0, 100.0});
  for (double v : {0.5, 0.5, 5.0, 50.0, 500.0}) h->Observe(v);
  const std::vector<uint64_t> buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h->Count(), 5u);
  EXPECT_DOUBLE_EQ(h->Sum(), 556.0);
}

TEST(MetricsTest, PowerOfTwoBucketsCoverMaxRows) {
  const std::vector<double> b = obs::PowerOfTwoBuckets(8);
  ASSERT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_GE(b.back(), 8.0);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_DOUBLE_EQ(b[i], 2 * b[i - 1]);
}

TEST(MetricsTest, TextFormatIsValidExposition) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  GlobalMetrics()
      .GetCounter("rpt_test_expo_total", {{"server", "expo"}},
                  "A test counter")
      ->Increment(3);
  GlobalMetrics()
      .GetHistogram("rpt_test_expo_ms", {{"server", "expo"}},
                    obs::DefaultLatencyBucketsMs(), "A test histogram")
      ->Observe(1.5);
  const std::string text = GlobalMetrics().TextFormat();
  ValidateExposition(text);
  EXPECT_DOUBLE_EQ(
      SampleValue(text, "rpt_test_expo_total", "{server=\"expo\"}"), 3.0);
  EXPECT_DOUBLE_EQ(
      SampleValue(text, "rpt_test_expo_ms_count", "{server=\"expo\"}"), 1.0);
}

// ---- Tracer -----------------------------------------------------------------

SpanRecord MakeSpan(uint64_t trace, uint64_t span, const char* name) {
  const auto now = obs::TraceClock::now();
  return {trace, span, 0, name, now, now, 0};
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer(8);
  tracer.Record(MakeSpan(1, 1, "dropped"));
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  obs::Tracer tracer(3);
  tracer.set_enabled(true);
  for (uint64_t i = 1; i <= 5; ++i) tracer.Record(MakeSpan(1, i, "s"));
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].span_id, 3u);  // oldest retained, oldest-first order
  EXPECT_EQ(spans[2].span_id, 5u);
  EXPECT_EQ(tracer.dropped(), 2u);
}

TEST(TracerTest, SpansNestViaThreadLocalContext) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  ScopedTracerEnabled enabled;
  uint64_t outer_span = 0;
  {
    obs::Span outer("outer");
    outer_span = outer.context().span_id;
    obs::Span inner("inner");
    EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
  }
  const std::vector<SpanRecord> spans = GlobalTracer().Snapshot();
  ASSERT_EQ(spans.size(), 2u);  // inner destructs (and records) first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent_id, outer_span);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  ScopedTracerEnabled enabled;
  { obs::Span span("json_span"); }
  const std::string json = GlobalTracer().ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"json_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TracerTest, ChromeTraceJsonSurfacesFollowsFromLinks) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  obs::Tracer tracer(8);
  tracer.set_enabled(true);
  SpanRecord target = MakeSpan(1, 10, "serve.execute");
  tracer.Record(target);
  SpanRecord linked = MakeSpan(2, 20, "serve.execute");
  linked.link_trace_id = 1;
  linked.link_span_id = 10;
  tracer.Record(linked);
  const std::string json = tracer.ChromeTraceJson();
  // The linking span carries the link in its args...
  EXPECT_NE(json.find("\"link_trace_id\":1"), std::string::npos);
  EXPECT_NE(json.find("\"link_span_id\":10"), std::string::npos);
  // ...and the pair is bridged by a flow: start ("s") at the linked-to
  // execution, finish ("f", enclosing-slice binding) at the duplicate.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"followsfrom\""), std::string::npos);
  // A span nobody links to gets no flow-start: exactly one "s" event here.
  const size_t first_s = json.find("\"ph\":\"s\"");
  EXPECT_EQ(json.find("\"ph\":\"s\"", first_s + 1), std::string::npos);
}

/// Duplicates coalesced onto one in-flight execution record serve.execute
/// spans that follow-from the representative's execution span (same trace
/// id + span id as the execute span of the request that ran).
TEST(ServeTraceTest, CoalescedDuplicatesCarryFollowsFromLinks) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  ScopedTracerEnabled enabled;
  constexpr int kDuplicates = 4;
  {
    ServerConfig config;
    config.max_batch_size = 8;
    config.max_batch_delay = std::chrono::milliseconds(50);
    config.cache_capacity = 0;  // no submit-time hits: force in-flight dedup
    config.name = "obs_link_test";
    RoutedServer server(
        {{"link",
          {std::make_shared<SyntheticSession>(microseconds(200),
                                              microseconds(20))},
          config}});
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < kDuplicates; ++i) {
      futures.push_back(server.Submit("link", "same_payload"));
    }
    int coalesced_responses = 0;
    for (auto& f : futures) {
      const ServeResponse r = f.get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      if (r.cache_hit) ++coalesced_responses;
    }
    ASSERT_GT(coalesced_responses, 0) << "no duplicate was coalesced; the "
                                         "batch window did not capture them";
    server.Shutdown();
  }

  const std::vector<SpanRecord> spans = GlobalTracer().Snapshot();
  std::vector<const SpanRecord*> executions;
  std::vector<const SpanRecord*> linked;
  for (const SpanRecord& s : spans) {
    if (s.name != "serve.execute") continue;
    (s.link_span_id == 0 ? executions : linked).push_back(&s);
  }
  ASSERT_EQ(executions.size(), 1u) << "one real execution for one payload";
  ASSERT_FALSE(linked.empty()) << "coalesced requests recorded no spans";
  for (const SpanRecord* dupe : linked) {
    EXPECT_EQ(dupe->link_trace_id, executions[0]->trace_id);
    EXPECT_EQ(dupe->link_span_id, executions[0]->span_id);
    EXPECT_NE(dupe->trace_id, executions[0]->trace_id)
        << "a duplicate lives in its own trace";
  }
  // The export surfaces the link.
  const std::string json = GlobalTracer().ChromeTraceJson();
  EXPECT_NE(json.find("\"cat\":\"followsfrom\""), std::string::npos);
}

// ---- End-to-end: serving spans ----------------------------------------------

/// The acceptance shape: one routed request produces a serve.submit root
/// whose queue_wait / batch / execute children share its trace, parent on
/// it, and fit inside its time interval.
TEST(ServeTraceTest, RoutedRequestProducesNestedSpans) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  ScopedTracerEnabled enabled;
  constexpr int kRequests = 6;
  {
    ServerConfig config;
    config.max_batch_size = 4;
    config.max_batch_delay = microseconds(500);
    config.cache_capacity = 0;  // every request must cross the model
    config.name = "obs_trace_test";
    RoutedServer server(
        {{"trace",
          {std::make_shared<SyntheticSession>(microseconds(200),
                                              microseconds(20))},
          config}});
    for (int i = 0; i < kRequests; ++i) {
      ServeResponse r =
          server.Submit("trace", "payload_" + std::to_string(i)).get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
    server.Shutdown();  // joins the collector: every span is recorded
  }

  std::map<uint64_t, std::vector<SpanRecord>> traces;
  for (const SpanRecord& s : GlobalTracer().Snapshot()) {
    traces[s.trace_id].push_back(s);
  }

  int model_traces = 0;
  for (const auto& [trace_id, spans] : traces) {
    const SpanRecord* root = nullptr;
    for (const SpanRecord& s : spans) {
      if (s.name == "serve.submit") {
        EXPECT_EQ(s.parent_id, 0u) << "serve.submit must be the root";
        EXPECT_EQ(root, nullptr) << "one root per trace";
        root = &s;
      }
    }
    ASSERT_NE(root, nullptr) << "trace " << trace_id << " has no root";
    bool has_execute = false;
    for (const SpanRecord& s : spans) {
      if (&s == root) continue;
      EXPECT_EQ(s.parent_id, root->span_id)
          << s.name << " does not parent on the serve.submit root";
      EXPECT_GE(s.begin, root->begin) << s.name << " starts before its root";
      EXPECT_LE(s.end, root->end) << s.name << " ends after its root";
      if (s.name == "serve.execute") has_execute = true;
    }
    if (has_execute) {
      ++model_traces;
      for (const char* required : {"serve.queue_wait", "serve.batch"}) {
        bool found = false;
        for (const SpanRecord& s : spans) {
          if (s.name == required) found = true;
        }
        EXPECT_TRUE(found) << "model-path trace missing " << required;
      }
    }
  }
  EXPECT_EQ(model_traces, kRequests);
}

/// MetricsText stays parseable while client threads hammer Submit, and the
/// final exposition agrees with the request count.
TEST(ServeTraceTest, MetricsTextStableUnderConcurrentSubmits) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  ServerConfig config;
  config.max_batch_size = 8;
  config.max_batch_delay = microseconds(500);
  config.queue_capacity = 1024;
  config.cache_capacity = 0;
  // The route name makes the series unique to this test.
  RoutedServer server(
      {{"obs_stability_test",
        {std::make_shared<SyntheticSession>(microseconds(100),
                                            microseconds(10))},
        config}});

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      ValidateExposition(server.MetricsText());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload =
            "q" + std::to_string(t) + "_" + std::to_string(i);
        server.Submit("obs_stability_test", payload).get();
      }
    });
  }
  for (auto& c : clients) c.join();
  done.store(true);
  reader.join();
  server.Shutdown();

  const std::string text = server.MetricsText();
  ValidateExposition(text);
  const std::string label = "{server=\"obs_stability_test#0\"}";
  EXPECT_DOUBLE_EQ(SampleValue(text, "rpt_serve_submitted_total", label),
                   kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(SampleValue(text, "rpt_serve_completed_total", label),
                   kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(SampleValue(text, "rpt_serve_latency_ms_count", label),
                   kThreads * kPerThread);
}

}  // namespace
}  // namespace rpt
