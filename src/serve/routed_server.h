// RoutedServer: one serving front-end over many models and many replicas.
//
// RPT's pitch is a single deployment that serves every data-preparation
// task. RoutedServer realizes that: it owns N named routes (e.g. "clean",
// "match", "extract"), each backed by a pool of one or more ModelSession
// replicas, each replica wrapped in its own ServeShard — a private request
// queue, collector thread, LRU response cache, and stats block. One
// front-end, many independent micro-batching schedulers.
//
// Dispatch policy, in order:
//  1. Route: the request's route key selects the shard pool; an unknown key
//     completes immediately with kNotFound.
//  2. Hash: within the pool, the payload's stable FNV-1a hash picks the
//     shard (util/hash.h). Stable means repeats of the same payload land on
//     the same shard, so each shard's LRU cache and in-flight map keep
//     absorbing them. Routes whose
//     config relaxes exactness below kStrict hash the *normalized* payload
//     (util/simhash.h) so surface variants — stray whitespace, case,
//     attribute order — also converge on one shard; per-shard dedup state
//     (LRU, in-flight map, SimHash index) only helps duplicates it sees.
//  3. Least-loaded fallback: when the hash-chosen shard's queue is
//     saturated (depth >= queue_capacity), the request is re-routed to the
//     pool's shallowest queue instead of being bounced with kUnavailable —
//     availability is worth a cache miss. Fallbacks are counted in
//     `fallback_dispatches`.
//
// Replica ownership: each shard's collector calls RunBatch on its own
// session from its own thread. Replicas of the same model must therefore
// not share mutable model state — give each replica its own model instance
// (the generators toggle train/eval mode internally, so even logically
// const inference mutates). Sessions over distinct models are naturally
// independent.
//
// Stats: Stats() snapshots every shard, aggregates per route and across the
// whole server (AggregateStats in serve/shard.h; percentiles are recomputed
// from the merged raw latency reservoirs, not averaged), and Render() lays
// out the totals, each route, and a per-shard table in one report.
//
// Observability: every Submit runs under a per-request trace id (obs/
// trace.h; shards record submit/queue-wait/batch/execute spans against it
// while the global tracer is enabled). MetricsText() is Prometheus text of
// the process-wide metrics registry plus this server's own series: each
// shard's rpt_serve_* record under server="<route>#<shard>" and the two
// unlabelled rpt_route_* dispatch counters. Both are read from the objects
// that own them, so two live servers never share a series. DumpTrace()
// returns the retained spans as Chrome trace JSON.

#ifndef RPT_SERVE_ROUTED_SERVER_H_
#define RPT_SERVE_ROUTED_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/model_session.h"
#include "serve/shard.h"
#include "util/hash.h"

namespace rpt {

/// One route of a RoutedServer: a name, the replica sessions (one shard
/// per entry), and the ServerConfig applied to every shard of the pool.
struct RouteSpec {
  RouteSpec() = default;
  RouteSpec(std::string name,
            std::vector<std::shared_ptr<ModelSession>> replicas,
            ServerConfig config)
      : name(std::move(name)),
        replicas(std::move(replicas)),
        config(std::move(config)) {}

  std::string name;
  std::vector<std::shared_ptr<ModelSession>> replicas;
  ServerConfig config;
};

/// Stable payload→shard assignment within a pool of `num_shards` shards.
inline size_t ShardForPayload(std::string_view payload, size_t num_shards) {
  return static_cast<size_t>(Fnv1a64(payload) % num_shards);
}

/// One route's slice of a stats snapshot.
struct RouteStatsSnapshot {
  std::string route;
  ServerStatsSnapshot total;                 // aggregated over the shards
  std::vector<ServerStatsSnapshot> shards;   // per-shard, in pool order
};

/// A point-in-time view of the whole routed front-end.
struct RoutedStatsSnapshot {
  std::vector<RouteStatsSnapshot> routes;
  ServerStatsSnapshot total;  // aggregated over every shard of every route
  uint64_t unknown_route = 0;        // submits naming no configured route
  uint64_t fallback_dispatches = 0;  // saturation re-routes off the hash shard

  std::string Render() const;
};

class RoutedServer {
 public:
  /// Builds one shard per replica of every route and starts their
  /// collectors. Route names must be unique and non-empty; every route
  /// needs at least one replica.
  explicit RoutedServer(std::vector<RouteSpec> routes);
  ~RoutedServer();  // implicit Shutdown()

  RoutedServer(const RoutedServer&) = delete;
  RoutedServer& operator=(const RoutedServer&) = delete;

  /// Dispatches one request to `route` (see the policy above). The future
  /// always completes: model output, cached response, kNotFound (unknown
  /// route), kUnavailable (saturated pool / shut down), or
  /// kDeadlineExceeded. Implemented over SubmitAsync, so both APIs share
  /// one dispatch + accounting path.
  std::future<ServeResponse> Submit(
      const std::string& route, std::string input,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());

  /// Continuation-passing dispatch: `done` receives the response instead of
  /// a future. Unknown routes, cache hits, and rejections complete inline
  /// on the calling thread; model-path responses complete on the owning
  /// shard's collector thread (see serve/shard.h ServeCallback for the full
  /// contract). The HTTP front-end (net/) drives all traffic through this —
  /// its event loop must never block on a future.
  void SubmitAsync(
      const std::string& route, std::string input, ServeCallback done,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());

  /// Stops intake on every shard, drains them, joins their collectors.
  /// Idempotent.
  void Shutdown();

  RoutedStatsSnapshot Stats() const;

  /// Prometheus text exposition of the process-wide metrics registry plus
  /// this server's shard and dispatch series (see the header comment).
  std::string MetricsText() const;

  /// Chrome trace_event JSON of the spans retained by the global tracer.
  /// Empty-but-valid while the tracer has never been enabled.
  std::string DumpTrace() const;

  bool HasRoute(const std::string& route) const {
    return index_.find(route) != index_.end();
  }
  size_t num_routes() const { return routes_.size(); }
  /// Shards backing `route`; 0 when no such route is configured (a request
  /// naming it would get kNotFound, so "no shards" is the honest answer —
  /// an unknown name must never take the server down).
  size_t NumShards(const std::string& route) const;

  /// Configured route names, in construction order. The HTTP front-end uses
  /// this to expose one /v1/<route> endpoint per route.
  std::vector<std::string> RouteNames() const;

 private:
  struct Route {
    std::string name;
    std::vector<std::unique_ptr<ServeShard>> shards;
    // Dispatch-time copy of the pool's dedup config: non-strict routes
    // hash the normalized payload so surface variants share a shard.
    Exactness exactness = Exactness::kStrict;
    NormalizeSpec normalize;
  };

  std::vector<Route> routes_;
  std::unordered_map<std::string, size_t> index_;  // name -> routes_ index
  std::atomic<uint64_t> unknown_route_{0};
  std::atomic<uint64_t> fallbacks_{0};
};

}  // namespace rpt

#endif  // RPT_SERVE_ROUTED_SERVER_H_
