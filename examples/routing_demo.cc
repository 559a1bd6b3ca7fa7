// Routing demo: one serving front-end for every data-preparation task.
//
// The paper's vision is a single deployment that cleans, matches, and
// extracts. This demo trains a tiny RPT-C cleaner and a tiny RPT-I span
// extractor, wires both behind one RoutedServer — the cleaner route with a
// pool of two replica shards (each replica owns its own model instance),
// the extractor route with one — and serves a mixed workload from
// concurrent clients. Requests carry a route key ("clean" / "extract");
// within a route, the payload hash picks the shard, so repeated queries hit
// that shard's LRU cache. The run ends with the aggregated routed stats:
// per-route, per-shard, and totals in one report.
//
// Observability: `--metrics` prints the Prometheus text exposition of the
// serving metrics after the run; `--trace-out PATH` enables request
// tracing (plus the nn-stage exporter) and writes the spans as Chrome
// trace_event JSON — open it in chrome://tracing or Perfetto.
//
// Build & run:  cmake -B build && cmake --build build &&
//               ./build/examples/routing_demo

#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/stage_exporter.h"
#include "obs/trace.h"
#include "rpt/cleaner.h"
#include "rpt/extractor.h"
#include "rpt/vocab_builder.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"
#include "table/table.h"

namespace {

using rpt::CleanerSession;
using rpt::ExtractorSession;
using rpt::RoutedServer;
using rpt::RouteSpec;
using rpt::RptCleaner;
using rpt::RptExtractor;
using rpt::Schema;
using rpt::ServeResponse;
using rpt::ServerConfig;
using rpt::Table;
using rpt::Tuple;
using rpt::Value;

Table PeopleTable() {
  Table t{Schema({"name", "expertise", "city"})};
  for (int i = 0; i < 8; ++i) {
    t.AddRow({Value::String("michael jordan"),
              Value::String("machine learning"),
              Value::String("berkeley")});
    t.AddRow({Value::String("michael jordan"), Value::String("basketball"),
              Value::String("chicago")});
    t.AddRow({Value::String("michael cafarella"),
              Value::String("databases"), Value::String("ann arbor")});
    t.AddRow({Value::String("sam madden"), Value::String("databases"),
              Value::String("cambridge")});
    t.AddRow({Value::String("geoff hinton"),
              Value::String("machine learning"),
              Value::String("toronto")});
  }
  return t;
}

std::unique_ptr<RptCleaner> TrainCleaner(const Table& table, uint64_t seed) {
  rpt::CleanerConfig config;
  config.d_model = 48;
  config.num_layers = 2;
  config.num_heads = 2;
  config.dropout = 0.0f;
  config.batch_size = 8;
  config.learning_rate = 3e-3f;
  config.seed = seed;
  auto cleaner = std::make_unique<RptCleaner>(
      config, rpt::BuildVocabFromTables({&table}));
  cleaner->PretrainOnTables({&table}, 400);
  return cleaner;
}

std::unique_ptr<RptExtractor> TrainExtractor(
    const std::vector<rpt::QaExample>& qa) {
  std::vector<std::string> texts;
  for (const auto& ex : qa) {
    texts.push_back(ex.question);
    texts.push_back(ex.paragraph);
  }
  rpt::ExtractorConfig config;
  config.d_model = 48;
  config.num_layers = 2;
  config.num_heads = 2;
  config.dropout = 0.0f;
  config.seed = 5;
  auto extractor =
      std::make_unique<RptExtractor>(config, rpt::BuildVocabFromTexts(texts));
  extractor->Train(qa, 200);
  return extractor;
}

}  // namespace

int main(int argc, char** argv) {
  bool print_metrics = false;
  const char* trace_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--metrics] [--trace-out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (trace_out != nullptr) {
    rpt::obs::GlobalTracer().set_enabled(true);
    rpt::obs::InstallStageTimingExporter();
  }

  std::printf("RPT routing demo: one front-end, every data-prep task\n\n");
  Table table = PeopleTable();

  // Two cleaner replicas: each shard's collector runs inference on its own
  // model instance (inference toggles train/eval state, so replicas must
  // not share a model). Same data + same seed keeps them interchangeable.
  std::printf("pre-training two RPT-C cleaner replicas ...\n");
  auto cleaner_a = TrainCleaner(table, /*seed=*/7);
  auto cleaner_b = TrainCleaner(table, /*seed=*/7);

  std::printf("training the RPT-I span extractor ...\n\n");
  std::vector<rpt::QaExample> qa;
  const std::vector<std::pair<std::string, std::string>> cities = {
      {"michael jordan", "chicago"},
      {"sam madden", "cambridge"},
      {"geoff hinton", "toronto"},
      {"michael cafarella", "ann arbor"},
  };
  for (const auto& [name, city] : cities) {
    qa.push_back({"what is the city", name + " lives in " + city, city});
  }
  auto extractor = TrainExtractor(qa);

  ServerConfig clean_config;
  clean_config.max_batch_size = 8;
  clean_config.cache_capacity = 64;
  ServerConfig extract_config = clean_config;

  std::vector<RouteSpec> routes;
  routes.push_back(
      {"clean",
       {std::make_shared<CleanerSession>(cleaner_a.get(), table.schema()),
        std::make_shared<CleanerSession>(cleaner_b.get(), table.schema())},
       clean_config});
  routes.push_back(
      {"extract",
       {std::make_shared<ExtractorSession>(extractor.get())},
       extract_config});
  RoutedServer server(std::move(routes));

  // Concurrent users mix cleaning and extraction through the one
  // front-end; overlapping queries ride the per-shard caches.
  const std::vector<std::pair<std::string, std::string>> people = {
      {"michael jordan", "machine learning"},
      {"michael jordan", "basketball"},
      {"sam madden", "databases"},
      {"geoff hinton", "machine learning"},
  };
  std::mutex print_mu;
  std::vector<std::thread> clients;
  for (int user = 0; user < 4; ++user) {
    clients.emplace_back([&, user] {
      for (size_t q = 0; q < people.size(); ++q) {
        const auto& [name, expertise] = people[(user + q) % people.size()];
        Tuple query = {Value::String(name), Value::String(expertise),
                       Value::Null()};
        ServeResponse cell = server.Submit(
            "clean", CleanerSession::FormatCellQuery(query, 2)).get();
        const std::string qa = ExtractorSession::FormatQaQuery(
            "what is the city",
            name + " lives in " + (cell.status.ok() ? cell.output : "?"));
        ServeResponse span = server.Submit("extract", qa).get();
        std::lock_guard<std::mutex> lock(print_mu);
        if (cell.status.ok()) {
          std::printf("user %d: clean(%s, %s, [M]) -> %-12s %s\n", user,
                      name.c_str(), expertise.c_str(), cell.output.c_str(),
                      cell.cache_hit ? "[cache]" : "");
        } else {
          std::printf("user %d: clean failed: %s\n", user,
                      cell.status.ToString().c_str());
        }
        if (span.status.ok()) {
          std::printf("user %d: extract(city of %s) -> %s\n", user,
                      name.c_str(), span.output.c_str());
        } else {
          std::printf("user %d: extract failed: %s\n", user,
                      span.status.ToString().c_str());
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  // A route key the deployment does not serve fails fast with kNotFound.
  ServeResponse unknown = server.Submit("translate", "bonjour").get();
  std::printf("\nunknown route: %s\n\n", unknown.status.ToString().c_str());

  server.Shutdown();
  std::fputs(server.Stats().Render().c_str(), stdout);

  if (print_metrics) {
    std::printf("\n==== metrics (Prometheus text exposition) ====\n%s",
                server.MetricsText().c_str());
  }
  if (trace_out != nullptr) {
    const std::string json = server.DumpTrace();
    std::FILE* f = std::fopen(trace_out, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open trace output '%s'\n", trace_out);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\ntrace written to %s (open in chrome://tracing)\n",
                trace_out);
  }
  return 0;
}
