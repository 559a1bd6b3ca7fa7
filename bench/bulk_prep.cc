// Bulk table-prep throughput and durability: streams a large synthetic CSV
// through BulkPrepDriver over a routed server and reports rows/sec,
// cells/sec, and peak-RSS growth (the driver's memory must stay flat in
// the table size — that is the whole point of the streaming reader plus
// bounded in-flight window). A second section crash-tests the checkpoint:
// abort the run at 50% via the driver's simulated-SIGKILL hook, resume,
// and require the recovered output to be byte-identical to an
// uninterrupted run.
//
// `--smoke` (or `--quick`) shrinks the table and skips the timing/RSS
// assertions for CI; `--rows=N` overrides the table size;
// `--json-out=PATH` writes the flat metrics object the CI gate
// (tools/check_bench.py) compares against BENCH_bulk.json.

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bulk/bulk_driver.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"
#include "util/logging.h"

#if defined(__linux__)
#include <stdlib.h>
#endif

namespace {

using rpt::bench::Check;
using rpt::bench::CurrentRssBytes;
using rpt::bench::g_failures;
using rpt::bench::RecordMetric;
using rpt::bench::WriteJsonMetrics;
using rpt::ModelSession;
using rpt::RouteSpec;
using rpt::RoutedServer;
using rpt::ServerConfig;
using std::chrono::steady_clock;

/// Deterministic cleaner stand-in (same payload dialect as
/// CleanerSession::FormatCellQuery): uppercases the masked cell. Output is
/// a pure function of the payload, so interrupted and uninterrupted runs
/// must agree byte for byte.
class UppercaseCellSession : public ModelSession {
 public:
  std::string name() const override { return "upper-cell"; }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    std::vector<std::string> out;
    out.reserve(inputs.size());
    for (const std::string& in : inputs) {
      const size_t pos = in.find('\x1f');
      RPT_CHECK(pos != std::string::npos);
      const int64_t column = std::stoll(in.substr(0, pos));
      int64_t field = 0;
      size_t start = pos + 1;
      std::string cell;
      for (;;) {
        const size_t next = in.find('\x1f', start);
        const size_t end = next == std::string::npos ? in.size() : next;
        if (field == column) {
          cell = in.substr(start, end - start);
          break;
        }
        if (next == std::string::npos) break;
        start = next + 1;
        ++field;
      }
      for (char& c : cell) c = static_cast<char>(std::toupper(c));
      out.push_back(cell);
    }
    return out;
  }
};

std::unique_ptr<RoutedServer> MakeServer(int replicas) {
  std::vector<std::shared_ptr<ModelSession>> sessions;
  for (int i = 0; i < replicas; ++i) {
    sessions.push_back(std::make_shared<UppercaseCellSession>());
  }
  ServerConfig config;
  config.max_batch_size = 32;
  config.max_batch_delay = std::chrono::microseconds(200);
  config.cache_capacity = 4096;
  std::vector<RouteSpec> routes;
  routes.emplace_back("clean", std::move(sessions), config);
  return std::make_unique<RoutedServer>(std::move(routes));
}

void WriteSyntheticCsv(const std::string& path, int64_t rows) {
  static const char* kCities[] = {"austin", "boston", "chicago", "dallas",
                                  "el paso"};
  std::ofstream out(path, std::ios::binary);
  out << "id,brand,city,note\n";
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t brand = i % 5;
    out << i << ",brand" << brand << "," << kCities[brand]
        << ",\"note, row " << (i % 997) << "\"\n";
  }
  RPT_CHECK(out.good());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<uint64_t>(in.tellg()) : 0;
}

// ---- Section 1: streaming throughput + flat memory --------------------------

void Throughput(const std::string& dir, int64_t rows, bool smoke) {
  std::printf("== bulk prep throughput (%lld rows) ==\n",
              static_cast<long long>(rows));
  const std::string input = dir + "/bulk_in.csv";
  WriteSyntheticCsv(input, rows);
  const double input_mb = FileBytes(input) / (1024.0 * 1024.0);
  std::printf("input: %.1f MB on disk\n", input_mb);

  auto server = MakeServer(/*replicas=*/4);
  rpt::bulk::BulkPrepOptions options;
  options.mask_columns = {2};
  options.max_in_flight_rows = 128;
  options.checkpoint_every_rows = 8192;
  rpt::bulk::BulkPrepDriver driver(server.get(), options);

  const size_t rss_before = CurrentRssBytes();
  const auto t0 = steady_clock::now();
  auto report =
      driver.Run(input, dir + "/bulk_out.csv", dir + "/bulk_ckpt");
  const double seconds =
      std::chrono::duration<double>(steady_clock::now() - t0).count();
  const size_t rss_after = CurrentRssBytes();
  Check(report.ok(), "bulk run completes");
  if (!report.ok()) {
    std::printf("  error: %s\n", report.status().message().c_str());
    return;
  }
  Check(report->rows_written == static_cast<uint64_t>(rows),
        "every row written");
  Check(report->cells_failed == 0, "no failed cells");

  const double rows_rps = rows / seconds;
  const double cells_rps = report->cells_submitted / seconds;
  const double rss_growth_kb =
      rss_after > rss_before ? (rss_after - rss_before) / 1024.0 : 0.0;
  std::printf(
      "rows/sec %.0f   cells/sec %.0f   cache_hits %llu   "
      "rss growth %.0f KB\n",
      rows_rps, cells_rps,
      static_cast<unsigned long long>(report->cache_hits), rss_growth_kb);
  RecordMetric("bulk_rows_rps", rows_rps);
  RecordMetric("bulk_cells_rps", cells_rps);
  RecordMetric("bulk_rss_growth_kb", rss_growth_kb);
  RecordMetric("bulk_rows_total", static_cast<double>(rows));
  if (!smoke && rss_before != 0) {
    // Flat-memory claim: working set growth must not scale with the table.
    // 64 MB covers allocator noise and the output cache with a wide margin
    // while being far below the input size.
    Check(rss_growth_kb < 64 * 1024.0,
          "RSS growth stays flat (< 64 MB) over a table-sized stream");
  }
}

// ---- Section 2: kill at 50%, resume, byte-identity --------------------------

void KillAndResume(const std::string& dir, int64_t rows) {
  std::printf("\n== kill at 50%% + resume ==\n");
  const std::string input = dir + "/resume_in.csv";
  WriteSyntheticCsv(input, rows);
  auto server = MakeServer(/*replicas=*/2);

  rpt::bulk::BulkPrepOptions options;
  options.mask_columns = {2};
  options.max_in_flight_rows = 64;
  options.checkpoint_every_rows = 256;

  {
    rpt::bulk::BulkPrepDriver driver(server.get(), options);
    auto ref = driver.Run(input, dir + "/resume_ref.csv", dir + "/ref_ckpt");
    Check(ref.ok(), "reference run completes");
    if (!ref.ok()) return;
  }
  const std::string reference = Slurp(dir + "/resume_ref.csv");

  options.abort_after_rows = rows / 2;
  {
    rpt::bulk::BulkPrepDriver driver(server.get(), options);
    auto crashed =
        driver.Run(input, dir + "/resume_out.csv", dir + "/resume_ckpt");
    Check(!crashed.ok(), "simulated SIGKILL interrupts the run");
  }
  options.abort_after_rows = 0;
  uint64_t redone_rows = 0;
  {
    rpt::bulk::BulkPrepDriver driver(server.get(), options);
    auto resumed =
        driver.Run(input, dir + "/resume_out.csv", dir + "/resume_ckpt");
    Check(resumed.ok() && resumed->resumed, "resume picks up the checkpoint");
    if (resumed.ok()) redone_rows = resumed->rows_read;
  }
  const bool identical = Slurp(dir + "/resume_out.csv") == reference;
  Check(identical, "resumed output is byte-identical to uninterrupted run");
  Check(redone_rows < static_cast<uint64_t>(rows),
        "resume does not redo finished rows");
  std::printf("rows redone after crash: %llu of %lld\n",
              static_cast<unsigned long long>(redone_rows),
              static_cast<long long>(rows));
  RecordMetric("bulk_resume_agreement", identical ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int64_t rows = 0;
  const char* json_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      smoke = true;
    } else if (arg.rfind("--rows=", 0) == 0) {
      rows = std::atoll(arg.c_str() + std::strlen("--rows="));
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = argv[i] + std::strlen("--json-out=");
    } else {
      std::fprintf(stderr, "usage: %s [--smoke|--quick] [--rows=N] "
                           "[--json-out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (rows == 0) rows = smoke ? 20'000 : 1'000'000;

  char tmpl[] = "/tmp/rpt_bulk_bench_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "cannot create scratch dir\n");
    return 1;
  }
  const std::string dir = tmpl;

  Throughput(dir, rows, smoke);
  KillAndResume(dir, smoke ? 4'000 : 20'000);

  const std::string cleanup = "rm -rf " + dir;
  (void)!std::system(cleanup.c_str());

  std::printf("\n%s: %d failure(s)\n", smoke ? "smoke" : "full", g_failures);
  if (json_out != nullptr) WriteJsonMetrics(json_out);
  return g_failures == 0 ? 0 : 1;
}
