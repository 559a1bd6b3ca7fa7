// HTTP serving demo: the full RPT deployment shape on one port.
//
// Boots a RoutedServer with clean/match/extract routes behind the epoll
// HTTP front-end (net/http_server.h + net/service.h) and serves until
// SIGINT/SIGTERM. By default the routes are backed by fast synthetic
// sessions so the demo starts instantly; `--model` instead trains a tiny
// RPT-C cleaner and RPT-I extractor (a couple of seconds) so /v1/clean and
// /v1/extract run real autoregressive inference.
//
// Talk to it with curl:
//
//   ./build/examples/http_demo --port 8080 &
//   curl http://127.0.0.1:8080/healthz
//   curl -d '{"input":"hello"}' http://127.0.0.1:8080/v1/clean
//   printf '{"input":"a"}\n{"input":"b"}\n' |
//       curl --data-binary @- http://127.0.0.1:8080/v1/match   # NDJSON stream
//   curl http://127.0.0.1:8080/metrics                         # Prometheus
//
// `--port 0` (the default) binds an ephemeral port; `--port-file PATH`
// writes the bound port number to PATH once listening, which is how the CI
// release job discovers where to curl.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <semaphore.h>
#include <string>
#include <vector>

#include "net/http_server.h"
#include "net/service.h"
#include "rpt/cleaner.h"
#include "rpt/extractor.h"
#include "rpt/vocab_builder.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"
#include "table/table.h"

namespace {

using rpt::CleanerSession;
using rpt::ExtractorSession;
using rpt::ModelSession;
using rpt::RouteSpec;
using rpt::RoutedServer;
using rpt::Schema;
using rpt::ServerConfig;
using rpt::SyntheticSession;
using rpt::Table;
using rpt::Value;
using rpt::net::HttpServer;
using rpt::net::HttpServerOptions;
using rpt::net::RptHttpService;

// Signal handlers can only touch async-signal-safe state; sem_post is on
// the safe list, so the handler posts and main blocks on sem_wait.
sem_t g_stop_sem;

void HandleStopSignal(int) { sem_post(&g_stop_sem); }

Table PeopleTable() {
  Table t{Schema({"name", "expertise", "city"})};
  for (int i = 0; i < 8; ++i) {
    t.AddRow({Value::String("michael jordan"),
              Value::String("machine learning"), Value::String("berkeley")});
    t.AddRow({Value::String("michael jordan"), Value::String("basketball"),
              Value::String("chicago")});
    t.AddRow({Value::String("sam madden"), Value::String("databases"),
              Value::String("cambridge")});
    t.AddRow({Value::String("geoff hinton"),
              Value::String("machine learning"), Value::String("toronto")});
  }
  return t;
}

std::vector<RouteSpec> SyntheticRoutes() {
  ServerConfig config;
  config.max_batch_size = 16;
  config.max_batch_delay = std::chrono::microseconds(1000);
  config.cache_capacity = 256;
  std::vector<RouteSpec> routes;
  for (const char* name : {"clean", "match", "extract"}) {
    routes.push_back(
        {name,
         {std::make_shared<SyntheticSession>(std::chrono::microseconds(200),
                                             std::chrono::microseconds(20))},
         config});
  }
  return routes;
}

/// Real-model routes: a tiny cleaner on /v1/clean and /v1/match (matching
/// reuses the cleaner's tuple encoder in this demo), a tiny extractor on
/// /v1/extract. Models are leaked intentionally — they must outlive the
/// sessions, which live until Shutdown at process exit.
std::vector<RouteSpec> ModelRoutes() {
  std::printf("pre-training a tiny RPT-C cleaner ...\n");
  Table table = PeopleTable();
  rpt::CleanerConfig cleaner_config;
  cleaner_config.d_model = 48;
  cleaner_config.num_layers = 2;
  cleaner_config.num_heads = 2;
  cleaner_config.dropout = 0.0f;
  cleaner_config.seed = 7;
  auto* cleaner = new rpt::RptCleaner(
      cleaner_config, rpt::BuildVocabFromTables({&table}));
  cleaner->PretrainOnTables({&table}, 400);

  std::printf("training a tiny RPT-I span extractor ...\n");
  std::vector<rpt::QaExample> qa;
  for (const auto& [name, city] :
       std::vector<std::pair<std::string, std::string>>{
           {"michael jordan", "chicago"},
           {"sam madden", "cambridge"},
           {"geoff hinton", "toronto"}}) {
    qa.push_back({"what is the city", name + " lives in " + city, city});
  }
  std::vector<std::string> texts;
  for (const auto& ex : qa) {
    texts.push_back(ex.question);
    texts.push_back(ex.paragraph);
  }
  rpt::ExtractorConfig extractor_config;
  extractor_config.d_model = 48;
  extractor_config.num_layers = 2;
  extractor_config.num_heads = 2;
  extractor_config.dropout = 0.0f;
  extractor_config.seed = 5;
  auto* extractor =
      new rpt::RptExtractor(extractor_config, rpt::BuildVocabFromTexts(texts));
  extractor->Train(qa, 200);

  ServerConfig config;
  config.max_batch_size = 8;
  config.cache_capacity = 64;
  std::vector<RouteSpec> routes;
  routes.push_back(
      {"clean",
       {std::make_shared<CleanerSession>(cleaner, table.schema())},
       config});
  routes.push_back(
      {"match",
       {std::make_shared<CleanerSession>(cleaner, table.schema())},
       config});
  routes.push_back(
      {"extract", {std::make_shared<ExtractorSession>(extractor)}, config});
  return routes;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  const char* port_file = nullptr;
  bool use_model = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      port_file = argv[++i];
    } else if (std::strcmp(argv[i], "--model") == 0) {
      use_model = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--port-file PATH] [--model]\n",
                   argv[0]);
      return 2;
    }
  }

  RoutedServer routed(use_model ? ModelRoutes() : SyntheticRoutes());
  RptHttpService service(&routed);
  HttpServerOptions options;
  options.port = static_cast<uint16_t>(port);
  HttpServer http(options);
  service.Register(&http);
  const rpt::Status started = http.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "http server failed to start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("serving %s routes on http://127.0.0.1:%u\n",
              use_model ? "real-model" : "synthetic", http.port());
  std::printf("  curl http://127.0.0.1:%u/healthz\n", http.port());
  std::printf("  curl -d '{\"input\":\"hello\"}' "
              "http://127.0.0.1:%u/v1/clean\n", http.port());
  std::printf("  curl http://127.0.0.1:%u/metrics\n", http.port());

  if (port_file != nullptr) {
    std::FILE* f = std::fopen(port_file, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write port file '%s'\n", port_file);
      return 1;
    }
    std::fprintf(f, "%u\n", http.port());
    std::fclose(f);
  }

  sem_init(&g_stop_sem, 0, 0);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (sem_wait(&g_stop_sem) != 0 && errno == EINTR) {
  }

  std::printf("\nshutting down ...\n");
  http.Stop();
  routed.Shutdown();
  std::fputs(routed.Stats().Render().c_str(), stdout);
  return 0;
}
