#include "serve/routed_server.h"

#include <limits>
#include <sstream>
#include <utility>

#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace rpt {

std::string RoutedStatsSnapshot::Render() const {
  std::ostringstream out;
  out << "==== routed serving stats ====\n";
  ReportTable overview({"metric", "value"});
  overview.AddRow({"routes", std::to_string(routes.size())});
  size_t shard_count = 0;
  for (const auto& r : routes) shard_count += r.shards.size();
  overview.AddRow({"shards", std::to_string(shard_count)});
  overview.AddRow({"unknown route", std::to_string(unknown_route)});
  overview.AddRow(
      {"fallback dispatches", std::to_string(fallback_dispatches)});
  out << overview.Render();
  out << total.Render("all routes");
  for (const auto& r : routes) {
    out << r.total.Render("route " + r.route + " (" +
                          std::to_string(r.shards.size()) + " shard" +
                          (r.shards.size() == 1 ? "" : "s") + ")");
  }
  ReportTable per_shard({"route", "shard", "submitted", "completed",
                         "cache hits", "batches", "queue depth", "p95 ms"});
  for (const auto& r : routes) {
    for (size_t i = 0; i < r.shards.size(); ++i) {
      const ServerStatsSnapshot& s = r.shards[i];
      per_shard.AddRow({r.route, std::to_string(i),
                        std::to_string(s.submitted),
                        std::to_string(s.completed),
                        std::to_string(s.cache_hits),
                        std::to_string(s.batches),
                        std::to_string(s.queue_depth), Fixed(s.p95_ms, 3)});
    }
  }
  out << per_shard.Render();
  return out.str();
}

RoutedServer::RoutedServer(std::vector<RouteSpec> routes) {
  RPT_CHECK(!routes.empty()) << "a RoutedServer needs at least one route";
  routes_.reserve(routes.size());
  for (RouteSpec& spec : routes) {
    RPT_CHECK(!spec.name.empty()) << "route names must be non-empty";
    RPT_CHECK(!spec.replicas.empty())
        << "route '" << spec.name << "' has no replica sessions";
    RPT_CHECK(index_.find(spec.name) == index_.end())
        << "duplicate route name '" << spec.name << "'";
    Route route;
    route.name = spec.name;
    route.exactness = spec.config.exactness;
    route.normalize = spec.config.normalize;
    route.shards.reserve(spec.replicas.size());
    for (size_t i = 0; i < spec.replicas.size(); ++i) {
      ServerConfig shard_config = spec.config;
      shard_config.name = spec.name + "#" + std::to_string(i);
      route.shards.push_back(std::make_unique<ServeShard>(
          std::move(spec.replicas[i]), std::move(shard_config)));
    }
    index_[route.name] = routes_.size();
    routes_.push_back(std::move(route));
  }
}

RoutedServer::~RoutedServer() { Shutdown(); }

std::future<ServeResponse> RoutedServer::Submit(
    const std::string& route, std::string input,
    std::chrono::milliseconds timeout) {
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  SubmitAsync(
      route, std::move(input),
      [promise](ServeResponse r) { promise->set_value(std::move(r)); },
      timeout);
  return future;
}

void RoutedServer::SubmitAsync(const std::string& route, std::string input,
                               ServeCallback done,
                               std::chrono::milliseconds timeout) {
  // One trace id per request: the shard-level spans (submit, queue wait,
  // batch, execute) all attach to the trace opened here.
  obs::ScopedTrace request_trace;
  const auto it = index_.find(route);
  if (it == index_.end()) {
    unknown_route_.fetch_add(1, std::memory_order_relaxed);
    ServeResponse r;
    r.status = Status::NotFound("no route named '" + route + "'");
    done(std::move(r));
    return;
  }
  Route& rt = routes_[it->second];
  size_t shard =
      rt.exactness == Exactness::kStrict
          ? ShardForPayload(input, rt.shards.size())
          : ShardForPayload(NormalizeForDedup(input, rt.normalize),
                            rt.shards.size());
  if (rt.shards.size() > 1 &&
      rt.shards[shard]->queue_depth() >=
          rt.shards[shard]->config().queue_capacity) {
    // Saturated primary: trade the cache-locality of hash dispatch for
    // availability and send the request to the shallowest queue instead.
    size_t best = shard;
    size_t best_depth = std::numeric_limits<size_t>::max();
    for (size_t i = 0; i < rt.shards.size(); ++i) {
      const size_t depth = rt.shards[i]->queue_depth();
      if (depth < best_depth) {
        best_depth = depth;
        best = i;
      }
    }
    if (best != shard) {
      fallbacks_.fetch_add(1, std::memory_order_relaxed);
      shard = best;
    }
  }
  rt.shards[shard]->SubmitAsync(std::move(input), std::move(done), timeout);
}

void RoutedServer::Shutdown() {
  // Stop intake everywhere first so no route keeps feeding while its
  // neighbors drain, then join shard by shard (Shutdown is idempotent).
  for (Route& route : routes_) {
    for (auto& shard : route.shards) shard->Shutdown();
  }
}

RoutedStatsSnapshot RoutedServer::Stats() const {
  RoutedStatsSnapshot out;
  std::vector<ServerStatsSnapshot> all_parts;
  std::vector<double> all_lats;
  for (const Route& route : routes_) {
    RouteStatsSnapshot rs;
    rs.route = route.name;
    std::vector<double> route_lats;
    for (const auto& shard : route.shards) {
      rs.shards.push_back(shard->Stats());
      const std::vector<double> lats = shard->RawLatencies();
      route_lats.insert(route_lats.end(), lats.begin(), lats.end());
    }
    rs.total = AggregateStats(rs.shards, route_lats);
    all_parts.insert(all_parts.end(), rs.shards.begin(), rs.shards.end());
    all_lats.insert(all_lats.end(), route_lats.begin(), route_lats.end());
    out.routes.push_back(std::move(rs));
  }
  out.total = AggregateStats(all_parts, all_lats);
  out.unknown_route = unknown_route_.load(std::memory_order_relaxed);
  out.fallback_dispatches = fallbacks_.load(std::memory_order_relaxed);
  return out;
}

std::string RoutedServer::MetricsText() const {
  std::vector<obs::MetricSnapshot> series;
  for (const Route& route : routes_) {
    for (const auto& shard : route.shards) shard->AppendMetrics(&series);
  }
  constexpr obs::MetricKind kCounter = obs::MetricKind::kCounter;
  const auto counter = [&](const char* name, const char* help,
                           const std::atomic<uint64_t>& value) {
    const double total = static_cast<double>(value.load());
    series.push_back(obs::ValueSnapshot(name, kCounter, help, {}, total));
  };
  counter("rpt_route_unknown_total", "Submits naming no configured route",
          unknown_route_);
  counter("rpt_route_fallback_total",
          "Saturation re-routes off the hash-chosen shard", fallbacks_);
  return obs::GlobalExposition(std::move(series));
}

std::string RoutedServer::DumpTrace() const {
  return obs::GlobalTracer().ChromeTraceJson();
}

size_t RoutedServer::NumShards(const std::string& route) const {
  const auto it = index_.find(route);
  if (it == index_.end()) return 0;
  return routes_[it->second].shards.size();
}

std::vector<std::string> RoutedServer::RouteNames() const {
  std::vector<std::string> names;
  names.reserve(routes_.size());
  for (const Route& route : routes_) names.push_back(route.name);
  return names;
}

}  // namespace rpt
