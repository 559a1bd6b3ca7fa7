// RptHttpService: the HTTP face of a RoutedServer.
//
// Registers on an HttpServer:
//   POST /v1/<route>   one endpoint per configured route ("clean", "match",
//                      "extract", ...). The body is line-oriented JSON: each
//                      line one flat object {"input": "..."}; each response
//                      line mirrors it — {"output": ..., "cache_hit": ...,
//                      "latency_ms": ..., "batch_size": ...} on success,
//                      {"error": "<CodeName>", "message": ...} on a serve
//                      failure. Lines come back in request order.
//   GET  /metrics      RoutedServer::MetricsText(): Prometheus text of the
//                      process registry plus the server's shard and route
//                      series.
//   GET  /healthz      "ok\n" while the process is up.
//
// Framing: a single-line body answers with a normal Content-Length response
// whose code maps the serve status (200 / 400 / 404 / 503 / 504). A
// multi-line body — or any body with ?stream=1 — streams as chunked
// transfer-encoding: headers go out immediately and each line is flushed as
// a chunk the moment it (and every line before it) completes, so a client
// reading a long generation sees partial results while later lines are
// still in the model. Per-line failures inside a stream are reported as
// in-band {"error": ...} lines (the 200 has already left).
//
// A body that is not valid line-JSON anywhere answers 400 before anything
// is submitted — requests never partially enter the serving layer on a
// malformed body.
//
// Concurrency: handlers run on the HTTP loop thread; completions arrive
// either inline (cache hits, rejections — see serve/shard.h ServeCallback)
// or on collector threads. Per-request state lives in a mutex-guarded block
// shared by the line callbacks; the ResponseWriter they drive is itself
// thread-safe, so no completion ever blocks on the loop.

#ifndef RPT_NET_SERVICE_H_
#define RPT_NET_SERVICE_H_

#include <chrono>
#include <string>

#include "net/http_server.h"
#include "serve/routed_server.h"

namespace rpt {
namespace net {

/// HTTP status for a serve-layer status code (Ok → 200, kNotFound → 404,
/// kInvalidArgument → 400, kUnavailable → 503, kDeadlineExceeded → 504,
/// anything else → 500).
int HttpCodeForStatus(StatusCode code);

/// Renders one response line (no trailing newline) for `response`.
std::string RenderResponseLine(const ServeResponse& response);

/// True when `query` contains `key=1` or a bare `key` ("stream=1").
bool QueryFlag(std::string_view query, std::string_view key);

/// Largest accepted `timeout_ms` value (10 minutes). Well-formed values
/// beyond it are capped here rather than rejected, so a huge-but-honest
/// timeout degrades to "very patient" instead of overflowing.
inline constexpr std::chrono::milliseconds kMaxRequestTimeout{600000};

/// Strict parse of the first `timeout_ms` query parameter. Absent →
/// `*out = fallback`. A well-formed positive integer is capped at
/// kMaxRequestTimeout (values past the integer range count as huge and cap
/// too). Anything else — empty, non-digit bytes, trailing garbage ("5x"),
/// zero, negative — is InvalidArgument naming the offending value; the
/// HTTP layer answers it with a 400.
Status ParseTimeoutParam(std::string_view query,
                         std::chrono::milliseconds fallback,
                         std::chrono::milliseconds* out);

class RptHttpService {
 public:
  /// `server` must outlive the HttpServer this registers on (requests in
  /// flight hold completion callbacks into it). `default_timeout` bounds
  /// each submitted line; a request may lower it with ?timeout_ms=<n>.
  explicit RptHttpService(RoutedServer* server,
                          std::chrono::milliseconds default_timeout =
                              std::chrono::milliseconds::max());

  /// Registers /healthz, /metrics, and POST /v1/<route> for every route.
  /// Call before HttpServer::Start().
  void Register(HttpServer* http);

 private:
  void HandleSubmit(const std::string& route, const HttpRequest& request,
                    std::shared_ptr<ResponseWriter> writer);

  RoutedServer* server_;
  std::chrono::milliseconds default_timeout_;
};

}  // namespace net
}  // namespace rpt

#endif  // RPT_NET_SERVICE_H_
