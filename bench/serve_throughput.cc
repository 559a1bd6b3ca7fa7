// Serving throughput: sequential one-at-a-time inference vs dynamic
// micro-batching through one rpt::ServeShard, plus routed multi-shard
// serving through rpt::RoutedServer, on the same synthetic workloads.
//
// The synthetic session has an accelerator-shaped cost profile: a fixed
// per-forward-pass cost (kernel launch, weight traffic) plus a per-item
// cost (batch-row FLOPs). Sequential serving pays the pass cost once per
// request; micro-batching amortizes it over up to max_batch_size requests,
// which is where the ≥2x requests/sec comes from. A third condition adds
// the LRU response cache on a zipf-ish repeating workload (dirty data
// repeats).
//
// The routed sections use *device-bound* synthetic sessions (the host
// thread sleeps for the pass, as it would waiting on an accelerator), so
// shards overlap their passes even on one host core: scaling 1→4 shards
// demonstrates near-linear throughput growth with outputs bit-identical to
// single-session serving, and a mixed cleaner+matcher+extractor workload
// exercises one front-end over three routes. A final section serves a real
// (tiny) RPT-C cleaner, under the default work-conserving collector, to
// show the end-to-end path.
//
// `--smoke` (or `--quick`) runs a small correctness-only subset
// (bit-identity and stats reconciliation, no timing assertions) for CI.
// `--trace-out PATH` enables the global tracer plus the nn-stage exporter
// and writes the run's spans as Chrome trace_event JSON on exit.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "eval/report.h"
#include "nn/weight_store.h"
#include "obs/stage_exporter.h"
#include "obs/trace.h"
#include "rpt/cleaner.h"
#include "rpt/vocab_builder.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"
#include "serve/shard.h"
#include "table/table.h"
#include "tensor/cpu_features.h"
#include "util/rng.h"

namespace {

using rpt::bench::Check;
using rpt::bench::CurrentRssBytes;
using rpt::bench::g_failures;
using rpt::bench::RecordMetric;
using rpt::bench::WriteJsonMetrics;
using rpt::CleanerSession;
using rpt::ModelSession;
using rpt::ReportTable;
using rpt::RouteSpec;
using rpt::RoutedServer;
using rpt::RoutedStatsSnapshot;
using rpt::ServeResponse;
using rpt::ServeShard;
using rpt::ServerConfig;
using rpt::ServerStatsSnapshot;
using rpt::SyntheticSession;
using rpt::SyntheticWait;
using std::chrono::microseconds;
using std::chrono::steady_clock;

constexpr int kRequests = 256;
constexpr int kClientThreads = 8;
constexpr auto kPerPass = microseconds(1500);
constexpr auto kPerItem = microseconds(100);

/// The synthetic workload: every 4th request repeats an earlier payload,
/// the way dirty cells repeat across a large table.
std::vector<std::string> MakeWorkload() {
  std::vector<std::string> inputs;
  inputs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const int key = (i % 4 == 3) ? (i % 16) : i;
    inputs.push_back("cell_" + std::to_string(key));
  }
  return inputs;
}

double SecondsSince(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

/// Baseline: one request at a time straight through the session, single
/// caller, no server.
double RunSequential(const std::vector<std::string>& inputs) {
  SyntheticSession session(kPerPass, kPerItem);
  const auto start = steady_clock::now();
  for (const auto& input : inputs) {
    session.RunBatch({input});
  }
  return static_cast<double>(inputs.size()) / SecondsSince(start);
}

/// Serves the workload from kClientThreads concurrent clients through a
/// ServeShard; returns requests/sec and prints server stats. With
/// `passes > 1` the whole workload is replayed after the first pass
/// completes — repeats then land in the warmed LRU cache (cache lookups
/// happen at submit time; concurrent repeats join the in-flight execution).
double RunServed(const std::vector<std::string>& inputs, size_t max_batch,
                 size_t cache_capacity, int passes, const char* label) {
  auto session = std::make_shared<SyntheticSession>(kPerPass, kPerItem);
  ServerConfig config;
  config.max_batch_size = max_batch;
  config.max_batch_delay = microseconds(1000);
  config.queue_capacity = 1024;
  config.cache_capacity = cache_capacity;
  ServeShard server(session, config);

  const auto start = steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<std::thread> clients;
    clients.reserve(kClientThreads);
    const size_t per_thread = inputs.size() / kClientThreads;
    for (int t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, t] {
        const size_t begin = static_cast<size_t>(t) * per_thread;
        const size_t end = (t == kClientThreads - 1) ? inputs.size()
                                                     : begin + per_thread;
        std::vector<std::future<ServeResponse>> futures;
        futures.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          futures.push_back(server.Submit(inputs[i]));
        }
        for (auto& f : futures) f.get();
      });
    }
    for (auto& c : clients) c.join();
  }
  const double rps = static_cast<double>(inputs.size()) * passes /
                     SecondsSince(start);
  server.Shutdown();
  rpt::PrintBanner(label);
  std::fputs(server.Stats().Render("synthetic").c_str(), stdout);
  return rps;
}

// ---- Routed multi-shard serving ---------------------------------------------

/// Unique payloads, so the scaling numbers measure scheduling and model
/// passes, not cache luck.
std::vector<std::string> MakeRoutedWorkload(int requests) {
  std::vector<std::string> inputs;
  inputs.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    inputs.push_back("row_" + std::to_string(i));
  }
  return inputs;
}

/// Serves `inputs` through a RoutedServer with one "synthetic" route backed
/// by `num_shards` device-bound replicas. Verifies every output against
/// `expected` (payload -> single-session output) and that the aggregated
/// stats reconcile with the per-shard sums. Returns requests/sec.
double RunRouted(const std::vector<std::string>& inputs, size_t num_shards,
                 const std::map<std::string, std::string>& expected) {
  std::vector<std::shared_ptr<ModelSession>> replicas;
  for (size_t s = 0; s < num_shards; ++s) {
    replicas.push_back(std::make_shared<SyntheticSession>(
        kPerPass, kPerItem, SyntheticWait::kSleep));
  }
  ServerConfig config;
  config.max_batch_size = 16;
  config.max_batch_delay = microseconds(1000);
  config.queue_capacity = 1024;
  config.cache_capacity = 0;  // every request must cross a model
  RoutedServer server({{"synthetic", replicas, config}});

  size_t mismatches = 0;
  std::mutex mismatch_mu;
  const auto start = steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  const size_t per_thread = inputs.size() / kClientThreads;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const size_t begin = static_cast<size_t>(t) * per_thread;
      const size_t end = (t == kClientThreads - 1) ? inputs.size()
                                                   : begin + per_thread;
      std::vector<std::future<ServeResponse>> futures;
      futures.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        futures.push_back(server.Submit("synthetic", inputs[i]));
      }
      size_t bad = 0;
      for (size_t i = begin; i < end; ++i) {
        ServeResponse r = futures[i - begin].get();
        if (!r.status.ok() || r.output != expected.at(inputs[i])) ++bad;
      }
      if (bad > 0) {
        std::lock_guard<std::mutex> lock(mismatch_mu);
        mismatches += bad;
      }
    });
  }
  for (auto& c : clients) c.join();
  const double rps =
      static_cast<double>(inputs.size()) / SecondsSince(start);
  server.Shutdown();

  RoutedStatsSnapshot stats = server.Stats();
  uint64_t shard_submitted = 0, shard_completed = 0;
  for (const auto& route : stats.routes) {
    for (const auto& shard : route.shards) {
      shard_submitted += shard.submitted;
      shard_completed += shard.completed;
    }
  }
  if (mismatches > 0 || stats.total.submitted != shard_submitted ||
      stats.total.completed != shard_completed ||
      stats.total.completed != inputs.size()) {
    std::printf("FAIL: %zu-shard routed run: %zu mismatched outputs, "
                "aggregate %llu/%llu vs shard-sum %llu/%llu\n",
                num_shards, mismatches,
                static_cast<unsigned long long>(stats.total.submitted),
                static_cast<unsigned long long>(stats.total.completed),
                static_cast<unsigned long long>(shard_submitted),
                static_cast<unsigned long long>(shard_completed));
    ++g_failures;
  }
  std::printf("%zu shard%s: %.0f req/s (mean batch %.2f over %llu passes)\n",
              num_shards, num_shards == 1 ? " " : "s", rps,
              stats.total.mean_batch_size,
              static_cast<unsigned long long>(stats.total.batches));
  return rps;
}

void RoutedScaling(bool smoke) {
  rpt::PrintBanner("routed serving: shard scaling on one front-end");
  const int requests = smoke ? 64 : 512;
  std::printf(
      "workload: %d unique requests, %d client threads; device-bound "
      "synthetic session sleeps %lldus/pass + %lldus/item\n\n",
      requests, kClientThreads, static_cast<long long>(kPerPass.count()),
      static_cast<long long>(kPerItem.count()));
  const std::vector<std::string> inputs = MakeRoutedWorkload(requests);

  // Single-session reference outputs, for the bit-identity check.
  std::map<std::string, std::string> expected;
  {
    SyntheticSession reference(microseconds(0), microseconds(0));
    for (const auto& input : inputs) {
      expected[input] = reference.RunBatch({input})[0];
    }
  }

  const double rps_1 = RunRouted(inputs, 1, expected);
  const double rps_2 = RunRouted(inputs, 2, expected);
  const double rps_4 = RunRouted(inputs, 4, expected);
  RecordMetric("routed_rps_1_shard", rps_1);
  RecordMetric("routed_rps_2_shards", rps_2);
  RecordMetric("routed_rps_4_shards", rps_4);

  ReportTable scaling({"shards", "req/s", "speedup vs 1 shard"});
  scaling.AddRow({"1", rpt::Fixed(rps_1, 0), "1.00"});
  scaling.AddRow({"2", rpt::Fixed(rps_2, 0), rpt::Fixed(rps_2 / rps_1, 2)});
  scaling.AddRow({"4", rpt::Fixed(rps_4, 0), rpt::Fixed(rps_4 / rps_1, 2)});
  std::printf("\n");
  scaling.Print();
  Check(true, "routed outputs bit-identical to single-session serving");
  if (!smoke) {
    if (rps_4 >= 2.5 * rps_1) {
      std::printf("OK: 4 shards achieved >=2.5x single-shard throughput\n");
    } else {
      std::printf("WARNING: 4-shard scaling below the 2.5x target "
                  "(%.2fx)\n", rps_4 / rps_1);
    }
  }
}

void MixedRoutedWorkload(bool smoke) {
  rpt::PrintBanner("routed serving: mixed clean/match/extract workload");
  // Three routes with different cost profiles, two device-bound replicas
  // each — the "one deployment serves every data-prep task" shape.
  struct RouteCost {
    const char* name;
    microseconds per_pass, per_item;
  };
  const std::vector<RouteCost> costs = {
      {"clean", microseconds(1500), microseconds(100)},
      {"match", microseconds(800), microseconds(60)},
      {"extract", microseconds(400), microseconds(40)},
  };
  std::vector<RouteSpec> routes;
  for (const RouteCost& c : costs) {
    RouteSpec spec;
    spec.name = c.name;
    for (int s = 0; s < 2; ++s) {
      spec.replicas.push_back(std::make_shared<SyntheticSession>(
          c.per_pass, c.per_item, SyntheticWait::kSleep));
    }
    spec.config.max_batch_size = 16;
    spec.config.max_batch_delay = microseconds(1000);
    spec.config.queue_capacity = 1024;
    spec.config.cache_capacity = 256;
    routes.push_back(std::move(spec));
  }
  RoutedServer server(std::move(routes));

  const int requests = smoke ? 48 : 240;
  std::atomic<int> failures{0};
  const auto start = steady_clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&, t] {
      for (int i = t; i < requests; i += 6) {
        const RouteCost& c = costs[i % costs.size()];
        // Every 4th payload repeats, so per-shard caches see traffic.
        const int key = (i % 4 == 3) ? (i % 24) : i;
        ServeResponse r = server.Submit(
            c.name, std::string(c.name) + "_q" + std::to_string(key)).get();
        if (!r.status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  const double rps = static_cast<double>(requests) / SecondsSince(start);
  server.Shutdown();
  std::printf("%d requests across %zu routes = %.0f req/s\n\n", requests,
              costs.size(), rps);
  std::fputs(server.Stats().Render().c_str(), stdout);

  RoutedStatsSnapshot stats = server.Stats();
  ServerStatsSnapshot sum;
  for (const auto& route : stats.routes) {
    for (const auto& shard : route.shards) {
      sum.submitted += shard.submitted;
      sum.completed += shard.completed;
      sum.cache_hits += shard.cache_hits;
      sum.cache_misses += shard.cache_misses;
      sum.coalesced += shard.coalesced;
      sum.batches += shard.batches;
    }
  }
  Check(failures.load() == 0 &&
            stats.total.submitted == sum.submitted &&
            stats.total.completed == sum.completed &&
            stats.total.cache_hits == sum.cache_hits &&
            stats.total.cache_misses == sum.cache_misses &&
            stats.total.coalesced == sum.coalesced &&
            stats.total.batches == sum.batches &&
            stats.total.submitted == static_cast<uint64_t>(requests),
        "aggregated routed stats reconcile with per-shard sums");
}

// ---- Shared-weight replicas -------------------------------------------------

/// N cleaner replicas bound to one frozen WeightStore cost ~one copy of the
/// parameters (RSS report + an exact distinct-allocation check) and, with
/// dispatch forced to scalar, serve byte-identical answers.
void WeightSharing(bool smoke) {
  rpt::PrintBanner("weight sharing: replica memory + scalar exactness");
  rpt::Table table{rpt::Schema({"name", "expertise", "city"})};
  for (int i = 0; i < 8; ++i) {
    table.AddRow({rpt::Value::String("michael jordan"),
                  rpt::Value::String("machine learning"),
                  rpt::Value::String("berkeley")});
    table.AddRow({rpt::Value::String("michael jordan"),
                  rpt::Value::String("basketball"),
                  rpt::Value::String("chicago")});
    table.AddRow({rpt::Value::String("sam madden"),
                  rpt::Value::String("databases"),
                  rpt::Value::String("cambridge")});
  }
  rpt::CleanerConfig config;
  // Full runs use a bigger model so the RSS effect dwarfs allocator noise;
  // smoke keeps sanitizer runs fast.
  config.d_model = smoke ? 32 : 128;
  config.num_heads = smoke ? 2 : 4;
  config.num_layers = smoke ? 1 : 2;
  config.ffn_dim = smoke ? 64 : 256;
  config.dropout = 0.0f;
  config.seed = 7;
  const rpt::Vocab vocab = rpt::BuildVocabFromTables({&table});
  rpt::RptCleaner source(config, vocab);
  source.PretrainOnTables({&table}, smoke ? 40 : 150);

  auto store = rpt::WeightStore::Freeze(source.model());
  const double param_mb =
      static_cast<double>(store->blob_bytes()) / (1024.0 * 1024.0);

  // Reference predictions from the privately-owned source, forced scalar.
  std::vector<rpt::CellQuery> queries;
  std::vector<std::string> payloads;
  for (int i = 0; i < 8; ++i) {
    rpt::Tuple q = {rpt::Value::String(i % 2 == 0 ? "michael jordan"
                                                  : "sam madden"),
                    rpt::Value::String(i % 2 == 0 ? "basketball"
                                                  : "databases"),
                    rpt::Value::Null()};
    payloads.push_back(CleanerSession::FormatCellQuery(q, 2));
    queries.push_back({std::move(q), 2});
  }
  // The rest of this section runs with dispatch forced to scalar, the
  // routed replicas' collector threads included: the override is process-
  // wide, so the byte-for-byte check below compares like with like.
  rpt::ScopedTensorBackendOverride scalar(rpt::TensorBackend::kScalar);
  const std::vector<std::string> expected_scalar =
      source.PredictBatch(table.schema(), queries);

  // Memory: N bound replicas vs N private copies, with the page counter as
  // the headline and the exact distinct-allocation sum as the hard check.
  constexpr int kReplicas = 4;
  const size_t rss_before_bound = CurrentRssBytes();
  std::vector<std::unique_ptr<rpt::RptCleaner>> replicas;
  for (int r = 0; r < kReplicas; ++r) {
    rpt::CleanerConfig replica_config = config;
    replica_config.seed = 1000 + static_cast<uint64_t>(r);
    replicas.push_back(
        std::make_unique<rpt::RptCleaner>(replica_config, vocab));
    const rpt::Status bound = replicas.back()->model().BindWeights(store);
    if (!bound.ok()) {
      std::printf("FAIL: BindWeights: %s\n", bound.ToString().c_str());
      ++g_failures;
      return;
    }
  }
  const size_t rss_after_bound = CurrentRssBytes();

  // Pointer identity + distinct-allocation sum: the exact form of "RSS
  // stays ~flat", immune to allocator slack.
  bool pointers_shared = true;
  std::set<const float*> distinct;
  size_t distinct_floats = 0, view_floats = 0;
  for (const auto& replica : replicas) {
    for (const auto& [name, param] : replica->model().NamedParameters()) {
      const rpt::WeightEntry* entry = store->Find(name);
      if (entry == nullptr ||
          param.data() != store->DataFor(*entry)) {
        pointers_shared = false;
      }
      view_floats += static_cast<size_t>(param.numel());
      if (distinct.insert(param.data()).second) {
        distinct_floats += static_cast<size_t>(param.numel());
      }
    }
  }
  Check(pointers_shared,
        "every replica parameter aliases the store's blob (pointer identity)");
  Check(distinct_floats * kReplicas == view_floats,
        "distinct allocations sum to 1x the parameters, not Nx");

  const size_t rss_before_private = CurrentRssBytes();
  std::vector<std::unique_ptr<rpt::RptCleaner>> private_copies;
  for (int r = 0; r < kReplicas; ++r) {
    rpt::CleanerConfig private_config = config;
    private_config.seed = 2000 + static_cast<uint64_t>(r);
    private_copies.push_back(
        std::make_unique<rpt::RptCleaner>(private_config, vocab));
  }
  const size_t rss_after_private = CurrentRssBytes();
  const double bound_mb =
      static_cast<double>(rss_after_bound - rss_before_bound) /
      (1024.0 * 1024.0);
  const double private_mb =
      static_cast<double>(rss_after_private - rss_before_private) /
      (1024.0 * 1024.0);
  private_copies.clear();

  ReportTable memory({"configuration", "RSS delta (MB)"});
  memory.AddRow({"4 replicas bound to one WeightStore (weights shared)",
                 rpt::Fixed(bound_mb, 2)});
  memory.AddRow({"4 private model copies (weights duplicated)",
                 rpt::Fixed(private_mb, 2)});
  memory.AddRow({"parameter payload (one copy)", rpt::Fixed(param_mb, 2)});
  std::printf("\n");
  memory.Print();
  RecordMetric("weightshare_param_mb", param_mb);
  RecordMetric("weightshare_rss_bound_replicas_mb", bound_mb);
  RecordMetric("weightshare_rss_private_copies_mb", private_mb);
  if (!smoke && CurrentRssBytes() != 0) {
    // Page-granular and allocator-dependent, so full runs only: binding 4
    // replicas must cost well under one extra parameter copy per replica.
    if (bound_mb <= private_mb - 2.0 * param_mb) {
      std::printf("OK: bound replicas saved >=2 parameter copies of RSS\n");
    } else {
      std::printf("WARNING: RSS saving below target (bound %.2fMB vs "
                  "private %.2fMB, params %.2fMB)\n",
                  bound_mb, private_mb, param_mb);
    }
  }

  // Serving exactness: a 4-replica routed pool on the shared store must
  // answer byte-for-byte what the privately-owned source answers under the
  // same (scalar) dispatch.
  {
    RouteSpec spec;
    spec.name = "clean-shared";
    for (auto& replica : replicas) {
      spec.replicas.push_back(
          std::make_shared<CleanerSession>(replica.get(), table.schema()));
    }
    spec.config.max_batch_size = 8;
    spec.config.max_batch_delay = microseconds(1000);
    spec.config.cache_capacity = 0;
    RoutedServer server({std::move(spec)});
    bool identical = true;
    for (size_t i = 0; i < payloads.size(); ++i) {
      ServeResponse r = server.Submit("clean-shared", payloads[i]).get();
      if (!r.status.ok() || r.output != expected_scalar[i]) identical = false;
    }
    server.Shutdown();
    Check(identical,
          "forced-scalar shared-weight replicas match the private baseline "
          "byte for byte");
  }
}

// ---- Semantic dedup ---------------------------------------------------------

/// One request of the dedup workload, tagged with the base tuple it was
/// derived from so outputs can be checked against the right answer.
struct DedupRequest {
  std::string payload;
  int base = 0;
};

constexpr char kUnitSep = '\x1f';

/// The canonical tuple for base `b`: several multi-token fields, each
/// carrying a three-token identity tag. The tuples are long enough that a
/// one-token edit stays within a small SimHash Hamming distance of its own
/// base (~10 bits), and the repeated tags keep distinct bases far apart
/// (>=29 bits measured over all base/edit pairs) — the near-dup layer must
/// never serve one tuple's answer for another.
std::string DedupBaseTuple(int b) {
  const std::string tag = "sku-" + std::to_string(b) + " model-" +
                          std::to_string(100 + b) + " lot-" +
                          std::to_string(b * 37 + 11);
  std::string out = "intel core i7 desktop processor retail boxed " + tag;
  out += kUnitSep;
  out += "8 cores 16 threads 3.6 ghz base clock " + tag;
  out += kUnitSep;
  out += "lga1151 socket ddr4 2666 dual channel memory " + tag;
  out += kUnitSep;
  out += "uhd graphics integrated three year limited warranty " + tag;
  return out;
}

/// Zipf-ish skewed workload over `bases` distinct tuples (rank r drawn with
/// weight 1/(r+1) — a handful of dirty values dominate real cleaning
/// traffic). Every draw gets a random surface perturbation inside
/// normalization reach (casing, extra whitespace, attribute order); a
/// quarter additionally get a one-token edit that only the SimHash layer
/// can catch.
std::vector<DedupRequest> MakeDedupWorkload(int requests, int bases,
                                            rpt::Rng* rng) {
  std::vector<double> weights(bases);
  for (int b = 0; b < bases; ++b) weights[b] = 1.0 / (b + 1);
  // One-token edits, applied mid-field so the attribute sort keeps the
  // field order (and the sku token keeps identifying the base).
  const std::vector<std::pair<std::string, std::string>> edits = {
      {"retail boxed", "retail box"},
      {"base clock", "boost clock"},
      {"dual channel", "duo channel"},
  };
  std::vector<DedupRequest> out;
  out.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    DedupRequest req;
    req.base = static_cast<int>(rng->WeightedIndex(weights));
    std::string payload = DedupBaseTuple(req.base);
    if (rng->Bernoulli(0.25)) {
      const auto& [from, to] = edits[rng->UniformInt(edits.size())];
      const size_t pos = payload.find(from);
      payload.replace(pos, from.size(), to);
    }
    // Surface noise the normalizer erases: random upper-casing and doubled
    // spaces, plus a field shuffle.
    std::string noisy;
    noisy.reserve(payload.size() + 8);
    for (char c : payload) {
      if (c == ' ' && rng->Bernoulli(0.1)) noisy += "  ";
      noisy.push_back(rng->Bernoulli(0.2) ? static_cast<char>(
                                                std::toupper(
                                                    static_cast<unsigned char>(
                                                        c)))
                                          : c);
    }
    if (rng->Bernoulli(0.5)) {
      std::vector<std::string> fields;
      size_t start = 0;
      for (size_t pos = 0; pos <= noisy.size(); ++pos) {
        if (pos == noisy.size() || noisy[pos] == kUnitSep) {
          fields.push_back(noisy.substr(start, pos - start));
          start = pos + 1;
        }
      }
      rng->Shuffle(&fields);
      noisy.clear();
      for (size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) noisy.push_back(kUnitSep);
        noisy += fields[f];
      }
    }
    req.payload = std::move(noisy);
    out.push_back(std::move(req));
  }
  return out;
}

/// Serves the dedup workload under `config`; returns requests/sec and
/// checks that every response answers the request's own base tuple (the
/// sku token must survive whatever dedup layer served it). Clients are
/// closed-loop — each thread waits for its response before the next submit
/// — so the cache and index warm as the run progresses, the way a steady
/// request stream meets a server.
double RunDedupCondition(const std::vector<DedupRequest>& workload,
                         const std::shared_ptr<SyntheticSession>& session,
                         const ServerConfig& config, const char* label,
                         ServerStatsSnapshot* stats_out) {
  ServeShard server(session, config);
  std::atomic<size_t> mismatches{0};
  const auto start = steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  const size_t per_thread = workload.size() / kClientThreads;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const size_t begin = static_cast<size_t>(t) * per_thread;
      const size_t end = (t == kClientThreads - 1) ? workload.size()
                                                   : begin + per_thread;
      for (size_t i = begin; i < end; ++i) {
        ServeResponse r = server.Submit(workload[i].payload).get();
        // The payload's surface noise may have uppercased the sku token;
        // fold before matching.
        std::string folded = r.output;
        std::transform(folded.begin(), folded.end(), folded.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        const std::string sku = "sku-" + std::to_string(workload[i].base);
        if (!r.status.ok() || folded.rfind("echo:", 0) != 0 ||
            folded.find(sku) == std::string::npos) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  const double rps =
      static_cast<double>(workload.size()) / SecondsSince(start);
  server.Shutdown();
  *stats_out = server.Stats();
  if (mismatches.load() > 0) {
    std::printf("FAIL: %s: %zu responses answered the wrong tuple\n", label,
                mismatches.load());
    ++g_failures;
  }
  std::printf("%-28s %7.0f req/s  model items %lld  neardup hits %llu  "
              "in-flight joins %llu\n",
              label, rps, static_cast<long long>(session->items()),
              static_cast<unsigned long long>(stats_out->neardup_hits),
              static_cast<unsigned long long>(stats_out->inflight_coalesced));
  return rps;
}

void SemanticDedup(bool smoke) {
  rpt::PrintBanner("semantic dedup: strict vs normalized + SimHash near-dup");
  const int requests = smoke ? 96 : 512;
  const int bases = 24;
  rpt::Rng rng(0xD5D0);
  const std::vector<DedupRequest> workload =
      MakeDedupWorkload(requests, bases, &rng);
  std::printf(
      "workload: %d zipf-skewed requests over %d tuples, surface-perturbed "
      "(case/space/field order) + 25%% one-token near variants\n\n",
      requests, bases);

  ServerConfig strict;
  strict.max_batch_size = 16;
  strict.max_batch_delay = microseconds(1000);
  strict.queue_capacity = 1024;
  strict.cache_capacity = 512;
  strict.exactness = rpt::Exactness::kStrict;  // the A side: exact bytes

  ServerConfig semantic = strict;
  semantic.exactness = rpt::Exactness::kNearDup;
  semantic.neardup_max_hamming = 12;

  auto session_a = std::make_shared<SyntheticSession>(kPerPass, kPerItem,
                                                      SyntheticWait::kSleep);
  auto session_b = std::make_shared<SyntheticSession>(kPerPass, kPerItem,
                                                      SyntheticWait::kSleep);
  ServerStatsSnapshot stats_a, stats_b;
  const double rps_a = RunDedupCondition(workload, session_a, strict,
                                         "strict (exact LRU)", &stats_a);
  const double rps_b =
      RunDedupCondition(workload, session_b, semantic,
                        "semantic (neardup+coalesce)", &stats_b);

  // The semantic layers must strictly reduce model work on this workload:
  // surface variants collapse through normalized keys and near variants
  // through the SimHash index (both sides coalesce exact in-flight
  // repeats).
  Check(session_b->items() < session_a->items(),
        "semantic dedup ran fewer model items than strict");
  if (!smoke) {
    Check(stats_b.neardup_hits > 0, "SimHash index served near variants");
    Check(rps_b > rps_a, "semantic dedup raised throughput over strict");
  }
  RecordMetric("dedup_strict_rps", rps_a);
  RecordMetric("dedup_semantic_rps", rps_b);
  RecordMetric("dedup_speedup", rps_b / rps_a);
  RecordMetric("dedup_strict_model_items",
               static_cast<double>(session_a->items()));
  RecordMetric("dedup_semantic_model_items",
               static_cast<double>(session_b->items()));
  RecordMetric("dedup_neardup_hits",
               static_cast<double>(stats_b.neardup_hits));
  RecordMetric("dedup_inflight_coalesced",
               static_cast<double>(stats_b.inflight_coalesced));
  RecordMetric("dedup_cache_hit_rate", stats_b.cache_hit_rate);

  // Bit-identity of in-flight coalescing: a concurrent burst of one exact
  // payload, cache off, must fold onto a handful of forward passes and
  // answer every caller with the same bytes.
  ServerConfig burst_config;
  burst_config.max_batch_size = 16;
  burst_config.queue_capacity = 1024;
  burst_config.cache_capacity = 0;  // coalescing alone carries the burst
  auto burst_session = std::make_shared<SyntheticSession>(
      kPerPass, kPerItem, SyntheticWait::kSleep);
  ServeShard burst_server(burst_session, burst_config);
  const int burst = smoke ? 32 : 64;
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(burst);
  for (int i = 0; i < burst; ++i) {
    futures.push_back(burst_server.Submit(DedupBaseTuple(0)));
  }
  std::set<std::string> distinct_outputs;
  size_t burst_failures = 0;
  for (auto& f : futures) {
    ServeResponse r = f.get();
    if (!r.status.ok()) ++burst_failures;
    distinct_outputs.insert(r.output);
  }
  burst_server.Shutdown();
  Check(burst_failures == 0 && distinct_outputs.size() == 1,
        "identical burst: every caller got the same bytes");
  Check(burst_session->items() < burst / 4,
        "identical burst folded onto a few forward passes");
  RecordMetric("dedup_burst_model_items",
               static_cast<double>(burst_session->items()));
}

void ServeRealCleaner() {
  rpt::PrintBanner("real model: RPT-C cleaner behind the server");
  rpt::Table table{rpt::Schema({"name", "expertise", "city"})};
  for (int i = 0; i < 8; ++i) {
    table.AddRow({rpt::Value::String("michael jordan"),
                  rpt::Value::String("machine learning"),
                  rpt::Value::String("berkeley")});
    table.AddRow({rpt::Value::String("michael jordan"),
                  rpt::Value::String("basketball"),
                  rpt::Value::String("chicago")});
    table.AddRow({rpt::Value::String("sam madden"),
                  rpt::Value::String("databases"),
                  rpt::Value::String("cambridge")});
  }
  rpt::CleanerConfig config;
  config.d_model = 32;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 64;
  config.dropout = 0.0f;
  config.seed = 7;
  rpt::RptCleaner cleaner(config, rpt::BuildVocabFromTables({&table}));
  cleaner.PretrainOnTables({&table}, 150);

  auto session = std::make_shared<CleanerSession>(&cleaner, table.schema());
  ServerConfig server_config;
  server_config.max_batch_size = 8;
  ServeShard server(session, server_config);

  constexpr int kCleanerRequests = 32;
  const auto start = steady_clock::now();
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < kCleanerRequests; ++i) {
    rpt::Tuple query = {rpt::Value::String(i % 2 == 0 ? "michael jordan"
                                                      : "sam madden"),
                        rpt::Value::String(i % 2 == 0 ? "basketball"
                                                      : "databases"),
                        rpt::Value::Null()};
    futures.push_back(
        server.Submit(CleanerSession::FormatCellQuery(query, 2)));
  }
  for (auto& f : futures) f.get();
  const double elapsed = SecondsSince(start);
  server.Shutdown();
  std::fputs(server.Stats().Render("cleaner").c_str(), stdout);
  // The 32 requests are built from only 2 distinct payloads, so batching
  // and the serve layer's dedup fold them onto a few forward passes: req/s
  // here mostly measures scheduling, not decode cost. For the real
  // cleaner's cost on distinct payloads see rptbench/ (bulk-clean and
  // clean-http).
  std::printf("cleaner end-to-end: %d requests in %.3fs = %.0f req/s "
              "(KV-cached decode)\n",
              kCleanerRequests, elapsed,
              static_cast<double>(kCleanerRequests) / elapsed);
}

/// Writes the tracer's retained spans as Chrome trace JSON (open the file
/// in chrome://tracing or Perfetto). Counts a failed write as a failure.
void WriteTrace(const char* path) {
  const std::string json = rpt::obs::GlobalTracer().ChromeTraceJson();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("FAIL: cannot open trace output '%s'\n", path);
    ++g_failures;
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\ntrace: %zu spans written to %s\n",
              rpt::obs::GlobalTracer().Snapshot().size(), path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* trace_out = nullptr;
  const char* json_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      smoke = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = argv[i] + std::strlen("--json-out=");
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke|--quick] [--trace-out PATH] "
                   "[--json-out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (trace_out != nullptr) {
    rpt::obs::GlobalTracer().set_enabled(true);
    rpt::obs::InstallStageTimingExporter();
  }

  if (smoke) {
    // CI path: correctness only — bit-identity and stats reconciliation —
    // at sizes that stay fast under sanitizers. Timing targets are only
    // meaningful in full runs.
    RoutedScaling(/*smoke=*/true);
    MixedRoutedWorkload(/*smoke=*/true);
    WeightSharing(/*smoke=*/true);
    SemanticDedup(/*smoke=*/true);
    std::printf("\nsmoke: %d failure(s)\n", g_failures);
    if (trace_out != nullptr) WriteTrace(trace_out);
    if (json_out != nullptr) WriteJsonMetrics(json_out);
    return g_failures == 0 ? 0 : 1;
  }

  rpt::PrintBanner("serving throughput: sequential vs micro-batched");
  std::printf(
      "workload: %d requests, %d client threads; synthetic session costs "
      "%lldus/pass + %lldus/item\n\n",
      kRequests, kClientThreads,
      static_cast<long long>(kPerPass.count()),
      static_cast<long long>(kPerItem.count()));

  const std::vector<std::string> inputs = MakeWorkload();
  const double seq_rps = RunSequential(inputs);
  const double batched_rps =
      RunServed(inputs, /*max_batch=*/16, /*cache_capacity=*/0, /*passes=*/1,
                "micro-batched (batch<=16, no cache)");
  const double cached_rps =
      RunServed(inputs, /*max_batch=*/16, /*cache_capacity=*/256,
                /*passes=*/2, "micro-batched + LRU cache (replayed workload)");

  ReportTable summary({"mode", "req/s", "speedup vs sequential"});
  summary.AddRow({"sequential (batch=1)", rpt::Fixed(seq_rps, 0), "1.00"});
  summary.AddRow({"micro-batched", rpt::Fixed(batched_rps, 0),
                  rpt::Fixed(batched_rps / seq_rps, 2)});
  summary.AddRow({"micro-batched + cache", rpt::Fixed(cached_rps, 0),
                  rpt::Fixed(cached_rps / seq_rps, 2)});
  rpt::PrintBanner("summary");
  summary.Print();
  if (batched_rps >= 2.0 * seq_rps) {
    std::printf("\nOK: micro-batching achieved >=2x sequential throughput\n");
  } else {
    std::printf("\nWARNING: micro-batching below the 2x target\n");
  }

  RoutedScaling(/*smoke=*/false);
  MixedRoutedWorkload(/*smoke=*/false);
  WeightSharing(/*smoke=*/false);
  SemanticDedup(/*smoke=*/false);
  ServeRealCleaner();
  if (trace_out != nullptr) WriteTrace(trace_out);
  if (json_out != nullptr) WriteJsonMetrics(json_out);
  return g_failures == 0 ? 0 : 1;
}
