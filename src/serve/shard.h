// ServeShard: the one server type of the serving layer.
//
// One shard owns one ModelSession, one bounded request queue, one collector
// thread that drains the queue into dynamic micro-batches, one LRU response
// cache, and one accounting record. Used alone it is a single-session
// server; RoutedServer (serve/routed_server.h) fans requests out over named
// pools of shards.
//
// Scheduling semantics: the collector is work-conserving. Whenever it is
// free it takes whatever is queued, up to `max_batch_size` requests, and
// runs it at once; requests that arrive while the model is busy queue up
// and form the next batch. A nonzero `max_batch_delay` makes the collector
// wait that long for stragglers after the first request of a batch — worth
// it only for sessions whose per-pass cost dwarfs their per-row cost, which
// the synthetic benches model. The window moves *when* a batch closes,
// never what the model computes. A full queue rejects at Submit with
// kUnavailable; a request whose deadline passes while queued completes
// with kDeadlineExceeded; payloads the session's Validate rejects complete
// with that status; Shutdown() stops intake, drains everything accepted,
// and joins the collector.
//
// Accounting: the shard keeps one record per quantity — counters as shard
// atomics (they count in every build, -DRPT_OBS_OFF included), batch sizes
// in an exact map, Stats() latencies in a seeded reservoir, and the queue-
// wait / execute / latency / arrival-interval distributions as
// obs::Histograms. Stats() and AppendMetrics() (this shard's Prometheus
// series) both read that record; nothing is mirrored. Every request, from
// a submit-time rejection to a model-path answer, completes through one
// private Finish, which stamps its latency, bumps its outcome's counter,
// and records its root span. The rules the counters obey:
//  * a cache miss is counted only once the request is actually enqueued —
//    a queue-full rejection is not a lookup outcome, so backpressure cannot
//    deflate the hit rate;
//  * post-shutdown submissions are `shutdown_rejected`, distinct from the
//    queue-full `rejected`;
//  * every response carries the submit→completion latency, cache hits
//    included, so client-side latency accounting is consistent across hit
//    and miss paths; the latency histogram sees every admitted request,
//    the Stats() reservoir only Ok model-path answers.
//
// Semantic dedup (in-flight coalescing + near-duplicate cache):
//
// Under heavy dirty-tuple traffic the same payload arrives seconds apart
// and across micro-batches, and near-identical payloads (whitespace,
// casing, reordered attributes) arrive constantly. Three layers absorb
// them, gated by `ServerConfig::exactness`:
//
//  * In-flight coalescing (always on, exactness-independent — matching is
//    by dedup key, which under kStrict is the exact payload, so outputs
//    stay bit-identical): a request whose key matches one already queued
//    *or executing* attaches an extra completion callback to the pending
//    entry instead of enqueuing a second forward pass. Joiners share the
//    fate of the in-flight execution: they inherit its result (or its
//    deadline/validation failure) and never extend its deadline — a late
//    joiner's own timeout is not consulted once attached. Joiners count as
//    `inflight_coalesced` (and fold into `coalesced` when the execution
//    completes), convert their submit-time miss into a hit (when the cache
//    is enabled, preserving the invariant that each admitted request
//    contributes exactly one lookup outcome), and carry a follows-from
//    trace link to the execution they rode. Because a key's entry lives
//    until that execution's response is cached or its failure decided, no
//    two requests in one micro-batch ever share a dedup key.
//  * Normalized keying (kNormalized): the response cache, the in-flight
//    map, and the cross-shard routing hash key on
//    NormalizeForDedup(payload, `normalize`) — trim/case-fold/attribute-
//    sort variants of one tuple collapse onto one cache line. The model
//    always runs the representative's *original* payload.
//  * Near-duplicate cache (kNearDup): normalized keying plus a SimHash LSH
//    band index (util/simhash.h) in front of the LRU. A miss probes the
//    index for a cached key within `neardup_max_hamming` signature bits
//    and serves that entry's response on success (`neardup_hits`). Off —
//    along with normalization — at kStrict, where every served byte is
//    exactly the model's answer for the exact payload submitted.

#ifndef RPT_SERVE_SHARD_H_
#define RPT_SERVE_SHARD_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "serve/adaptive.h"
#include "serve/lru_cache.h"
#include "serve/model_session.h"
#include "serve/reservoir.h"
#include "util/bounded_queue.h"
#include "util/simhash.h"
#include "util/status.h"

namespace rpt {

/// How literally the dedup layers treat a payload when deciding that two
/// requests are "the same" (see the header comment).
enum class Exactness {
  /// Exact bytes only: the cache and the in-flight map key on the payload
  /// itself, and the near-duplicate index is fully off. Every served
  /// response is the model's answer for the exact payload submitted.
  kStrict,
  /// Key on NormalizeForDedup(payload, config.normalize): whitespace,
  /// casing, and (optionally) attribute-order variants of one tuple share
  /// one cache/coalescing identity. The representative's original payload
  /// is what the model runs.
  kNormalized,
  /// kNormalized plus a SimHash LSH index in front of the LRU: a cache
  /// miss may be served from a cached near-duplicate within
  /// `neardup_max_hamming` signature bits.
  kNearDup,
};

struct ServerConfig {
  /// Largest micro-batch handed to the session in one forward pass.
  size_t max_batch_size = 8;
  /// How long the collector waits for stragglers after taking the first
  /// request of a batch. 0 never waits: a free collector takes what is
  /// queued and runs it.
  std::chrono::microseconds max_batch_delay{0};
  /// Pending-request bound; Submit rejects with kUnavailable beyond it.
  size_t queue_capacity = 256;
  /// LRU response-cache entries keyed on the payload; 0 disables caching.
  size_t cache_capacity = 1024;
  /// Value of the `server` label on this shard's series (AppendMetrics).
  /// RoutedServer names its shards "<route>#<index>".
  std::string name = "serve";
  /// Dedup exactness knob (see the enum). RoutedServer also reads it: a
  /// non-strict route shards by the normalized payload hash, so variants
  /// of one tuple land on the shard whose cache can absorb them.
  Exactness exactness = Exactness::kStrict;
  /// Canonicalization used by kNormalized/kNearDup keying (ignored under
  /// kStrict).
  NormalizeSpec normalize;
  /// kNearDup only: serve a cached near-duplicate when its SimHash is
  /// within this many bits (of 128) of the request's. The LSH index keeps
  /// as many entries as the cache.
  int neardup_max_hamming = 6;
};

/// Outcome of one request.
struct ServeResponse {
  Status status;          // Ok, Unavailable (rejected), DeadlineExceeded
  std::string output;     // session output; empty unless status.ok()
  double latency_ms = 0;  // submit -> completion, as seen by the server
  bool cache_hit = false;  // served from the LRU, or joined an in-flight
                           // execution
  int64_t batch_size = 0;  // rows of the forward pass this rode in (0 if
                           // it never reached the model)
};

/// A point-in-time view of one shard's counters.
struct ServerStatsSnapshot {
  uint64_t submitted = 0;
  uint64_t completed = 0;  // completed Ok through the model path
                           // (in-flight joiners included)
  uint64_t rejected = 0;   // queue-full backpressure
  uint64_t shutdown_rejected = 0;  // submitted after Shutdown()
  uint64_t expired = 0;            // deadline passed while queued
  uint64_t invalid = 0;    // failed session Validate (kInvalidArgument)
  uint64_t cache_hits = 0;  // submit-time LRU hits + coalesced joiners
  uint64_t cache_misses = 0;
  uint64_t coalesced = 0;  // in-flight joiners folded into an execution
                           // that ran
  uint64_t inflight_coalesced = 0;  // requests attached to an execution
                                    // already queued or running
  uint64_t neardup_hits = 0;  // misses served from a SimHash near-duplicate
  uint64_t batches = 0;       // forward passes executed
  size_t queue_depth = 0;  // at snapshot time
  double mean_batch_size = 0;  // forward-pass rows / forward passes
  /// forward-pass rows -> number of passes with exactly that many rows.
  std::map<size_t, uint64_t> batch_size_histogram;
  /// Model-path latencies (cache hits and rejections excluded).
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, max_ms = 0;
  double cache_hit_rate = 0;  // hits / (hits + misses), 0 when no lookups

  /// Renders the snapshot as aligned eval/report tables ("<name> serving
  /// stats" banner, counters table, batch-size histogram).
  std::string Render(const std::string& name) const;
};

/// Sums counters and histograms across shard snapshots and recomputes the
/// derived fields. Percentiles cannot be summed, so the caller passes the
/// shards' merged latency reservoir samples (ServeShard::RawLatencies).
ServerStatsSnapshot AggregateStats(
    const std::vector<ServerStatsSnapshot>& parts,
    const std::vector<double>& latencies_ms);

/// Completion continuation of one asynchronously submitted request.
///
/// Threading contract: responses decided at submit time — cache hits,
/// queue-full backpressure, post-shutdown rejections (and, at the routed
/// level, unknown routes) — invoke the callback *inline on the submitting
/// thread, before SubmitAsync returns*, with the same latency and counter
/// accounting as the synchronous path. Responses that reach the model
/// (including deadline expiries and Validate failures discovered at batch
/// formation) invoke it on the shard's collector thread. Either way the
/// callback runs exactly once and must not block: the collector thread is
/// the micro-batching scheduler, so a blocking callback stalls every other
/// request on the shard. Event-loop callers bridge back to their own thread
/// (net/http_server.h posts through an eventfd wakeup).
using ServeCallback = std::function<void(ServeResponse)>;

class ServeShard {
 public:
  ServeShard(std::shared_ptr<ModelSession> session, ServerConfig config = {});
  ~ServeShard();  // implicit Shutdown()

  ServeShard(const ServeShard&) = delete;
  ServeShard& operator=(const ServeShard&) = delete;

  /// Enqueues one request. The future always completes: with the model
  /// output, a cached response, kUnavailable (queue full / shut down), or
  /// kDeadlineExceeded (`timeout` elapsed before execution; the default is
  /// effectively unbounded). Implemented as SubmitAsync completing a
  /// promise, so both APIs share one accounting path.
  std::future<ServeResponse> Submit(
      std::string input,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());

  /// Continuation-passing Submit: `done` receives the response instead of a
  /// future (see ServeCallback for the threading contract). This is the
  /// primitive the HTTP front-end's event loop needs — it must never block
  /// on an inference future.
  void SubmitAsync(
      std::string input, ServeCallback done,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());

  /// Stops intake, drains every queued request through the model, joins
  /// the collector. Idempotent.
  void Shutdown();

  ServerStatsSnapshot Stats() const;

  /// Appends this shard's Prometheus series (the rpt_serve_* families,
  /// labelled server=config().name) to `out`, read from the same record as
  /// Stats(). RoutedServer::MetricsText renders them.
  void AppendMetrics(std::vector<obs::MetricSnapshot>* out) const;

  /// Copy of the model-path latency reservoir sample (at most
  /// LatencyReservoir::kDefaultCapacity entries however long the shard has
  /// lived), for cross-shard percentile aggregation.
  std::vector<double> RawLatencies() const;

  /// Requests currently queued (excludes the batch in flight). The routed
  /// front-end reads this for saturation/least-loaded decisions.
  size_t queue_depth() const { return queue_.size(); }

  const ServerConfig& config() const { return config_; }

 private:
  /// What completing a request takes: its callback, its submit time, and
  /// its trace stamp. An in-flight joiner is exactly this — no queue slot,
  /// no deadline of its own; it completes when the execution it joined
  /// does.
  struct Request {
    ServeCallback done;  // invoked exactly once, by Finish
    std::chrono::steady_clock::time_point submitted;
    // Trace stamp (obs/trace.h): zero while the tracer is disabled. Finish
    // records the root "serve.submit" span, submit -> completion.
    uint64_t trace_id = 0;
    uint64_t root_span = 0;
  };

  /// A request that holds a queue slot.
  struct Pending : Request {
    std::string input;
    // Dedup identity: empty means "same as input" (the common case under
    // kStrict, where the key is the exact payload).
    std::string key;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
  };

  /// How a request completed; indexes the outcome counters.
  enum class Outcome {
    kRejected,          // queue full
    kShutdownRejected,  // submitted after Shutdown()
    kCacheHit,          // served from the LRU at submit time
    kExpired,           // deadline passed while queued
    kInvalid,           // failed session Validate
    kCompleted,         // Ok through the model path, duplicates included
  };
  static constexpr size_t kOutcomes =
      static_cast<size_t>(Outcome::kCompleted) + 1;

  /// Dedup identity of one pending request (see Pending::key).
  static std::string_view KeyOf(const Pending& p) {
    return p.key.empty() ? std::string_view(p.input) : std::string_view(p.key);
  }

  /// The one completion path: stamps latency_ms (submit -> `at`), bumps
  /// `outcome`'s counter, feeds the latency histogram (every admitted
  /// request, i.e. all but the two rejections) and, for kCompleted, the
  /// Stats() reservoir; records the root span; runs the callback.
  void Finish(const Request& request, ServeResponse response, Outcome outcome,
              std::chrono::steady_clock::time_point at);
  uint64_t Count(Outcome outcome) const {
    return outcomes_[static_cast<size_t>(outcome)].load(
        std::memory_order_acquire);
  }

  void CollectorLoop();
  void CompleteBatch(std::vector<Pending>* batch);
  /// Removes `key`'s in-flight entry and returns its joiners (empty when
  /// nobody attached).
  std::vector<Request> TakeJoiners(std::string_view key);
  /// Finishes `joiners` with copies of a decided response (status or
  /// output shared with the representative) as `outcome`. A non-zero
  /// `exec_span` adds a follows-from serve.execute span per joiner, linking
  /// to the execution they rode.
  void CompleteJoiners(std::vector<Request> joiners, const ServeResponse& base,
                       Outcome outcome,
                       std::chrono::steady_clock::time_point done_at,
                       uint64_t exec_trace, uint64_t exec_span);

  std::shared_ptr<ModelSession> session_;
  ServerConfig config_;
  BoundedQueue<Pending> queue_;
  // Keyed by dedup key (exact payload under kStrict, normalized payload
  // otherwise).
  LruCache<std::string, std::string> cache_;
  // In-flight coalescing: dedup key -> the requests that attached to the
  // pending execution. An entry exists exactly while a representative
  // Pending with that key is queued or executing. Lock order: inflight_mu_
  // may be held while touching the queue (TryPush), never the reverse.
  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::vector<Request>> inflight_;
  // kNearDup only: SimHash LSH index over cached keys, guarded by its own
  // mutex (probed on submit threads, appended on the collector).
  std::mutex neardup_mu_;
  std::unique_ptr<SimHashIndex> neardup_index_;
  // Arrival estimator behind the rpt_serve_arrival_rate_rps gauge (decayed
  // on read).
  ArrivalRateEstimator arrivals_;
  std::atomic<bool> accepting_{true};
  std::once_flag shutdown_once_;

  // The accounting record. Counters are atomics bumped on client and
  // collector threads; cache hits are the kCacheHit outcomes plus (with
  // the cache on) `coalesced_`, the folded joiners. The batch-size map and
  // the reservoir are collector-written under stats_mu_.
  std::atomic<uint64_t> submitted_{0};
  std::array<std::atomic<uint64_t>, kOutcomes> outcomes_{};
  std::atomic<uint64_t> cache_lookups_{0};  // hits + enqueued misses
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> inflight_coalesced_{0};
  std::atomic<uint64_t> neardup_hits_{0};
  mutable std::mutex stats_mu_;
  std::map<size_t, uint64_t> batch_hist_;  // forward-pass rows -> passes
  LatencyReservoir latencies_ms_;
  obs::Histogram queue_wait_ms_{obs::DefaultLatencyBucketsMs()};
  obs::Histogram execute_ms_{obs::DefaultLatencyBucketsMs()};
  obs::Histogram latency_ms_{obs::DefaultLatencyBucketsMs()};
  obs::Histogram arrival_interval_ms_{obs::DefaultLatencyBucketsMs()};
  // Declared last: the collector uses every member above.
  std::thread collector_;
};

}  // namespace rpt

#endif  // RPT_SERVE_SHARD_H_
