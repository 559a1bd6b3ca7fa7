// Serving demo: RPT-C behind the concurrent inference server.
//
// Pre-trains a tiny cleaner on the Fig. 1(a) table (see quickstart.cc),
// wraps it in a CleanerSession, and serves masked-cell queries from four
// concurrent client threads through the micro-batching ServeShard —
// the interactive human-in-the-loop shape the paper describes, at
// many-users scale. Repeated queries hit the LRU cache; the run ends with
// the server's stats block.
//
// Build & run:  cmake -B build && cmake --build build &&
//               ./build/examples/serving_demo

#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rpt/cleaner.h"
#include "rpt/vocab_builder.h"
#include "serve/sessions.h"
#include "serve/shard.h"
#include "table/table.h"

namespace {

using rpt::CleanerSession;
using rpt::RptCleaner;
using rpt::Schema;
using rpt::ServeResponse;
using rpt::ServeShard;
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

}  // namespace

int main() {
  std::printf("RPT serving demo: concurrent cell prediction\n\n");
  Table table = PeopleTable();

  rpt::CleanerConfig config;
  config.d_model = 48;
  config.num_layers = 2;
  config.num_heads = 2;
  config.dropout = 0.0f;
  config.batch_size = 8;
  config.learning_rate = 3e-3f;
  config.seed = 7;
  RptCleaner cleaner(config, rpt::BuildVocabFromTables({&table}));
  std::printf("pre-training RPT-C on the table ...\n");
  cleaner.PretrainOnTables({&table}, 400);

  auto session = std::make_shared<CleanerSession>(&cleaner, table.schema());
  ServerConfig server_config;
  server_config.max_batch_size = 8;
  server_config.cache_capacity = 64;
  ServeShard server(session, server_config);

  // Four concurrent "users" each ask for the city of several people; the
  // queries overlap, so later ones ride the cache.
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
        ServeResponse r = server.Submit(
            CleanerSession::FormatCellQuery(query, 2)).get();
        std::lock_guard<std::mutex> lock(print_mu);
        if (r.status.ok()) {
          std::printf("user %d: (%s, %s, [M]) -> %-12s %s\n", user,
                      name.c_str(), expertise.c_str(), r.output.c_str(),
                      r.cache_hit ? "[cache]" : "");
        } else {
          std::printf("user %d: request failed: %s\n", user,
                      r.status.ToString().c_str());
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  server.Shutdown();
  std::printf("\n");
  std::fputs(server.Stats().Render(session->name()).c_str(), stdout);
  return 0;
}
