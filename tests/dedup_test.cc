// Tests for the semantic dedup stack: SimHash signatures and the LSH band
// index (util/simhash.h), corpus-scale near-duplicate removal
// (corpus/dedup.h), and the serving layer's three dedup layers — in-flight
// coalescing, normalized keying, and the near-duplicate cache
// (serve/shard.h). The concurrency tests double as the tsan target for the
// inflight_mu_ / queue / collector interleavings.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/dedup.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"
#include "serve/shard.h"
#include "util/simhash.h"

namespace rpt {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr char kUnitSep = '\x1f';

/// Echo session whose forward passes block until Open() — pins requests
/// in-flight deterministically so submits can race the pinned execution.
/// Also counts forward passes that carried one payload twice, which
/// in-flight coalescing must never let happen.
class GateSession : public ModelSession {
 public:
  std::string name() const override { return "gate"; }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    }
    calls_.fetch_add(1);
    items_.fetch_add(static_cast<int64_t>(inputs.size()));
    const std::set<std::string> distinct(inputs.begin(), inputs.end());
    if (distinct.size() != inputs.size()) repeat_batches_.fetch_add(1);
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
  int64_t repeat_batches() const { return repeat_batches_.load(); }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> items_{0};
  std::atomic<int64_t> repeat_batches_{0};
};

std::string Fields(std::vector<std::string> fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(kUnitSep);
    out += fields[i];
  }
  return out;
}

// ---- NormalizeForDedup ------------------------------------------------------

TEST(NormalizeTest, TrimCollapsesWhitespace) {
  NormalizeSpec spec;
  spec.case_fold = false;
  spec.attribute_sort = false;
  EXPECT_EQ(NormalizeForDedup("  a   b \t c  ", spec), "a b c");
  EXPECT_EQ(NormalizeForDedup(Fields({" x ", "y  z"}), spec),
            Fields({"x", "y z"}));
}

TEST(NormalizeTest, CaseFoldIsAsciiLower) {
  NormalizeSpec spec;
  spec.trim = false;
  spec.attribute_sort = false;
  EXPECT_EQ(NormalizeForDedup("MacBook PRO", spec), "macbook pro");
}

TEST(NormalizeTest, AttributeSortIsPerRecord) {
  NormalizeSpec spec;  // all knobs on
  // Fields of one record sort; record order is preserved (a matcher pair
  // (a, b) is not the pair (b, a)).
  const std::string rec1 = Fields({"b", "a"});
  const std::string rec2 = Fields({"z", "c"});
  const std::string payload = rec1 + '\x1e' + rec2;
  EXPECT_EQ(NormalizeForDedup(payload, spec),
            Fields({"a", "b"}) + '\x1e' + Fields({"c", "z"}));
  EXPECT_NE(NormalizeForDedup(rec1 + '\x1e' + rec2, spec),
            NormalizeForDedup(rec2 + '\x1e' + rec1, spec));
}

TEST(NormalizeTest, AllKnobsOffIsIdentity) {
  NormalizeSpec spec;
  spec.trim = false;
  spec.case_fold = false;
  spec.attribute_sort = false;
  const std::string payload = "  MiXeD   Case \x1f b \x1f a ";
  EXPECT_EQ(NormalizeForDedup(payload, spec), payload);
}

// ---- SimHash ----------------------------------------------------------------

TEST(SimHashTest, DeterministicAndSelfDistanceZero) {
  const SimHash128 a = ComputeSimHash("alpha beta gamma delta");
  const SimHash128 b = ComputeSimHash("alpha beta gamma delta");
  EXPECT_EQ(a, b);
  EXPECT_EQ(HammingDistance(a, b), 0);
  EXPECT_EQ(SimHash64("alpha beta gamma delta"), a.lo);
}

TEST(SimHashTest, NormalizedVariantsShareASignature) {
  // Signatures are computed over normalized text; the normalization that
  // the serving layer applies must make surface variants bit-identical.
  NormalizeSpec spec;
  const std::string a =
      NormalizeForDedup(Fields({"Apple Inc", "Cupertino", "1976"}), spec);
  const std::string b = NormalizeForDedup(
      Fields({"  cupertino", "1976 ", "apple   inc"}), spec);
  EXPECT_EQ(a, b);
  EXPECT_EQ(HammingDistance(ComputeSimHash(a), ComputeSimHash(b)), 0);
}

TEST(SimHashTest, HammingGrowsWithPerturbation) {
  // Monotone-ish by construction: a one-token edit flips few bits, an
  // unrelated payload flips ~64. We assert the ordering, not exact counts.
  const std::string base =
      "intel core i7 9700k 8 cores 3.6 ghz lga1151 processor retail";
  const SimHash128 sig = ComputeSimHash(base);
  const int d_small = HammingDistance(
      sig, ComputeSimHash(
               "intel core i7 9700kf 8 cores 3.6 ghz lga1151 processor "
               "retail"));
  const int d_large = HammingDistance(
      sig, ComputeSimHash("完全 different unrelated text about gardening "
                          "tools and rubber boots on sale"));
  EXPECT_GT(d_small, 0);
  EXPECT_LT(d_small, d_large);
  EXPECT_GT(d_large, 20);
}

TEST(SimHashTest, EmptyAndDegenerateTexts) {
  const SimHash128 empty = ComputeSimHash("");
  EXPECT_EQ(empty, SimHash128{});
  // Below one shingle: still deterministic, still nonzero.
  const SimHash128 one = ComputeSimHash("solo");
  EXPECT_EQ(one, ComputeSimHash("solo"));
  EXPECT_NE(one, SimHash128{});
}

// ---- SimHashIndex -----------------------------------------------------------

TEST(SimHashIndexTest, FindsNearNeverPastThreshold) {
  SimHashIndex index(16);
  const std::string text =
      "sony wh 1000xm4 wireless noise cancelling headphones black";
  const SimHash128 sig = ComputeSimHash(text);
  index.Add(sig, "key0");

  // Exact signature: distance 0 hit.
  EXPECT_EQ(index.FindNearest(sig, 0).value_or(""), "key0");

  // A signature exactly max_hamming+1 bits away must never be returned:
  // flip d bits and probe with threshold d-1.
  SimHash128 far = sig;
  for (int b = 0; b < 7; ++b) far.lo ^= (1ull << (b * 9));
  EXPECT_EQ(HammingDistance(sig, far), 7);
  EXPECT_FALSE(index.FindNearest(far, 6).has_value());
  // Within threshold (7 <= 7) the banding guarantee (d < kBands = 8)
  // applies, so the probe must find it.
  EXPECT_EQ(index.FindNearest(far, 7).value_or(""), "key0");
}

TEST(SimHashIndexTest, RingEvictsOldest) {
  SimHashIndex index(2);
  const SimHash128 a = ComputeSimHash("first entry payload text");
  const SimHash128 b = ComputeSimHash("second entry other words");
  const SimHash128 c = ComputeSimHash("third entry more content");
  index.Add(a, "a");
  index.Add(b, "b");
  EXPECT_EQ(index.size(), 2u);
  index.Add(c, "c");  // overwrites "a"
  EXPECT_EQ(index.size(), 2u);
  EXPECT_FALSE(index.FindNearest(a, 0).has_value());
  EXPECT_EQ(index.FindNearest(b, 0).value_or(""), "b");
  EXPECT_EQ(index.FindNearest(c, 0).value_or(""), "c");
}

TEST(SimHashIndexTest, TiesPreferOldest) {
  SimHashIndex index(8);
  const SimHash128 sig = ComputeSimHash("identical signature payload");
  index.Add(sig, "older");
  index.Add(sig, "newer");
  EXPECT_EQ(index.FindNearest(sig, 4).value_or(""), "older");
}

// ---- corpus::DedupCorpus ----------------------------------------------------

// A product description long enough that a one-token edit lands within the
// LSH banding guarantee (signature distance < kBands): the serve and corpus
// near-dup tests share it so their thresholds rest on the same measured
// distance (9 bits of 128 for kNearVariant).
constexpr const char kLongDoc[] =
    "intel core i7 9700k desktop processor with 8 cores and 16 threads "
    "running at 3.6 ghz base clock on the lga1151 socket retail boxed "
    "with stock cooler three year limited warranty supports ddr4 2666 "
    "memory dual channel and uhd graphics 630 integrated gpu";
constexpr const char kNearVariant[] =
    "intel core i7 9700kf desktop processor with 8 cores and 16 threads "
    "running at 3.6 ghz base clock on the lga1151 socket retail boxed "
    "with stock cooler three year limited warranty supports ddr4 2666 "
    "memory dual channel and uhd graphics 630 integrated gpu";

TEST(CorpusDedupTest, DropsExactAndNearDuplicates) {
  const std::vector<std::string> docs = {
      kLongDoc,
      "Intel  Core i7 9700K DESKTOP processor with 8 cores and 16 threads "
      "running at 3.6 GHz base clock on the LGA1151 socket retail boxed "
      "with stock cooler three year limited warranty supports DDR4 2666 "
      "memory dual channel and UHD graphics 630 integrated gpu",  // exact
                                                                  // after
                                                                  // normalize
      "Microsoft Surface Laptop 5 13.5 inch touchscreen platinum",
      kNearVariant,  // near dup: one token differs
      "Zebra Technologies barcode label printer industrial",
  };
  corpus::DedupConfig config;
  config.max_hamming = 12;
  const corpus::DedupResult result = corpus::DedupCorpus(docs, config);
  EXPECT_EQ(result.exact_duplicates, 1u);
  EXPECT_EQ(result.near_duplicates, 1u);
  EXPECT_EQ(result.dropped(), 2u);
  ASSERT_EQ(result.kept.size(), 3u);
  EXPECT_EQ(result.kept[0], 0u);  // first occurrence wins
  EXPECT_EQ(result.kept[1], 2u);
  EXPECT_EQ(result.kept[2], 4u);
}

TEST(CorpusDedupTest, ZeroHammingKeepsNearVariants) {
  const std::vector<std::string> docs = {
      "alpha beta gamma delta epsilon",
      "alpha beta gamma delta zeta",  // near, not exact
      "alpha beta gamma delta epsilon",
  };
  corpus::DedupConfig config;
  config.max_hamming = 0;
  const corpus::DedupResult result = corpus::DedupCorpus(docs, config);
  EXPECT_EQ(result.exact_duplicates, 1u);
  EXPECT_EQ(result.near_duplicates, 0u);
  EXPECT_EQ(result.kept.size(), 2u);
}

// ---- In-flight coalescing ---------------------------------------------------

TEST(InflightCoalescingTest, JoinerRidesThePinnedExecution) {
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 16;
  config.cache_capacity = 8;
  ServeShard server(session, config);

  // First submit is popped by the collector and wedges on the gate; the
  // entry for its key stays in the in-flight map the whole time.
  std::future<ServeResponse> rep = server.Submit("payload");
  std::this_thread::sleep_for(milliseconds(20));
  // Same payload while the first is *executing*: must attach, not enqueue.
  std::future<ServeResponse> joiner = server.Submit("payload");
  session->Open();

  const ServeResponse r1 = rep.get();
  const ServeResponse r2 = joiner.get();
  server.Shutdown();

  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r1.output, "echo:payload");
  EXPECT_EQ(r2.output, r1.output);  // bit-identical
  EXPECT_EQ(session->calls(), 1);   // exactly one forward pass
  EXPECT_EQ(session->items(), 1);

  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.inflight_coalesced, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);    // the joiner's converted miss
  EXPECT_EQ(stats.cache_misses, 1u);  // the representative
}

TEST(InflightCoalescingTest, JoinerInheritsDeadlineExpiry) {
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 16;
  config.cache_capacity = 0;
  ServeShard server(session, config);

  // Wedge the collector, then enqueue a doomed representative and attach a
  // joiner with *no* deadline of its own: it must still expire with the
  // representative instead of extending its life.
  std::future<ServeResponse> wedge = server.Submit("wedge");
  std::this_thread::sleep_for(milliseconds(20));
  std::future<ServeResponse> rep = server.Submit("doomed", milliseconds(1));
  std::future<ServeResponse> joiner = server.Submit("doomed");
  std::this_thread::sleep_for(milliseconds(50));
  session->Open();

  EXPECT_TRUE(wedge.get().status.ok());
  EXPECT_EQ(rep.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(joiner.get().status.code(), StatusCode::kDeadlineExceeded);
  server.Shutdown();
  EXPECT_EQ(server.Stats().expired, 2u);
  EXPECT_EQ(session->calls(), 1);  // only the wedge ran
}

TEST(InflightCoalescingTest, RaceHammerOneForwardPassPerKey) {
  // The tsan target: many threads race the same payload against the
  // collector's batch completion. However the attach/push/complete
  // interleavings land, every caller completes with the same bytes and the
  // model runs each unique payload at most... exactly once here, because
  // the gate holds every representative until all submits are in.
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 4;
  config.queue_capacity = 256;
  config.cache_capacity = 0;  // no LRU: dedup must come from coalescing
  ServeShard server(session, config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  constexpr int kKeys = 3;
  std::vector<std::thread> clients;
  std::mutex results_mu;
  std::vector<std::pair<int, ServeResponse>> results;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int k = (t + i) % kKeys;
        ServeResponse r = server.Submit("key" + std::to_string(k)).get();
        std::lock_guard<std::mutex> lock(results_mu);
        results.emplace_back(k, std::move(r));
      }
    });
  }
  // Give the clients a moment to pile onto the in-flight entries, then
  // open the gate and let the collector drain everything.
  std::this_thread::sleep_for(milliseconds(50));
  session->Open();
  for (auto& c : clients) c.join();
  server.Shutdown();

  ASSERT_EQ(results.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const auto& [k, r] : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.output, "echo:key" + std::to_string(k));
  }
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed + stats.expired,
            static_cast<uint64_t>(kThreads * kPerThread));
  // Each wave of submits folds onto at most kKeys representatives; the
  // model must have seen far fewer items than requests.
  EXPECT_LT(session->items(), kThreads * kPerThread);
  EXPECT_GT(stats.coalesced, 0u);
  // A key's in-flight entry outlives its queue slot, so no forward pass
  // ever carries one key twice.
  EXPECT_EQ(session->repeat_batches(), 0);
}

TEST(InflightCoalescingTest, RacesShutdownWithoutLosingCallbacks) {
  // Submits race Shutdown(): every callback must fire exactly once, as a
  // completion or a rejection — never dropped. Run a few rounds to vary
  // the interleaving (tsan checks the locking either way).
  for (int round = 0; round < 3; ++round) {
    auto session = std::make_shared<SyntheticSession>(microseconds(50),
                                                      microseconds(5));
    ServerConfig config;
    config.max_batch_size = 4;
    config.queue_capacity = 64;
    config.cache_capacity = 4;
    auto server = std::make_unique<ServeShard>(session, config);

    constexpr int kThreads = 6;
    constexpr int kPerThread = 10;
    std::atomic<int> callbacks{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          server->SubmitAsync("hot-key",
                              [&](ServeResponse) { callbacks.fetch_add(1); });
        }
      });
    }
    std::this_thread::sleep_for(microseconds(200));
    server->Shutdown();
    for (auto& c : clients) c.join();
    server.reset();
    EXPECT_EQ(callbacks.load(), kThreads * kPerThread);
  }
}

// ---- Normalized keying + near-dup cache through the serve stack -------------

TEST(ServeDedupTest, NormalizedKeyingCollapsesSurfaceVariants) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.max_batch_size = 4;
  config.cache_capacity = 64;
  config.exactness = Exactness::kNormalized;
  ServeShard server(session, config);

  ServeResponse first = server.Submit(Fields({"Apple", "Cupertino"})).get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  // Whitespace/case/order variant: same normalized key, served from cache.
  ServeResponse second =
      server.Submit(Fields({" cupertino ", "APPLE"})).get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.output, first.output);
  server.Shutdown();
  EXPECT_EQ(session->calls(), 1);
  EXPECT_EQ(server.Stats().cache_hits, 1u);
}

TEST(ServeDedupTest, StrictServesNoVariantFromCache) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.max_batch_size = 4;
  config.cache_capacity = 64;
  config.exactness = Exactness::kStrict;  // default, but explicit here
  ServeShard server(session, config);

  ASSERT_TRUE(server.Submit(Fields({"Apple", "Cupertino"})).get().status.ok());
  ServeResponse variant =
      server.Submit(Fields({" cupertino ", "APPLE"})).get();
  ASSERT_TRUE(variant.status.ok());
  EXPECT_FALSE(variant.cache_hit);  // different bytes -> model ran again
  server.Shutdown();
  EXPECT_EQ(session->calls(), 2);
  EXPECT_EQ(server.Stats().neardup_hits, 0u);
}

TEST(ServeDedupTest, NearDupServesWithinThresholdOnly) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.max_batch_size = 4;
  config.cache_capacity = 64;
  config.exactness = Exactness::kNearDup;
  config.neardup_max_hamming = 12;
  ServeShard server(session, config);

  ServeResponse first = server.Submit(kLongDoc).get();
  ASSERT_TRUE(first.status.ok());

  // One-token variant: within the Hamming threshold, served from the
  // near-dup index without another forward pass — response bytes are the
  // *cached* answer for the base payload.
  ServeResponse near = server.Submit(kNearVariant).get();
  ASSERT_TRUE(near.status.ok());
  EXPECT_TRUE(near.cache_hit);
  EXPECT_EQ(near.output, first.output);
  EXPECT_EQ(session->calls(), 1);

  // Unrelated payload: far past the threshold, must run the model.
  ServeResponse far = server.Submit(
      "garden hose reel 30m wall mounted automatic rewind green").get();
  ASSERT_TRUE(far.status.ok());
  EXPECT_FALSE(far.cache_hit);
  EXPECT_EQ(session->calls(), 2);

  server.Shutdown();
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.neardup_hits, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(ServeDedupTest, RoutedServerShardsVariantsTogether) {
  // Non-strict routes hash the normalized payload, so surface variants of
  // one tuple land on the same shard and its cache absorbs them even with
  // a multi-shard pool.
  ServerConfig config;
  config.max_batch_size = 4;
  config.cache_capacity = 64;
  config.exactness = Exactness::kNormalized;
  std::vector<std::shared_ptr<ModelSession>> replicas;
  std::vector<std::shared_ptr<SyntheticSession>> sessions;
  for (int i = 0; i < 4; ++i) {
    sessions.push_back(std::make_shared<SyntheticSession>(microseconds(100),
                                                          microseconds(10)));
    replicas.push_back(sessions.back());
  }
  RoutedServer server({RouteSpec("clean", replicas, config)});

  int variant_hits = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string a = Fields({"Item " + std::to_string(i), "Price"});
    const std::string b = Fields({"  price", "ITEM " + std::to_string(i)});
    ASSERT_TRUE(server.Submit("clean", a).get().status.ok());
    ServeResponse r = server.Submit("clean", b).get();
    ASSERT_TRUE(r.status.ok());
    if (r.cache_hit) ++variant_hits;
  }
  server.Shutdown();
  EXPECT_EQ(variant_hits, 8);
  int64_t total_calls = 0;
  for (const auto& s : sessions) total_calls += s->calls();
  EXPECT_EQ(total_calls, 8);  // one pass per unique tuple, none per variant
  EXPECT_EQ(server.Stats().total.cache_hits, 8u);
}

}  // namespace
}  // namespace rpt
