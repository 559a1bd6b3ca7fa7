// Shared harness of the gated benches (serve_throughput, bulk_prep):
// pass/fail checks, a flat metrics record written as the JSON object that
// tools/check_bench.py compares against the committed BENCH_*.json, and the
// process's resident set size.
//
// Header-only: every bench is one translation unit, so the inline state
// below is one copy per binary.

#ifndef RPT_BENCH_BENCH_COMMON_H_
#define RPT_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace rpt::bench {

/// Failed checks so far: the JSON's `failures` entry and the exit status.
inline int g_failures = 0;

/// Flat name -> value metrics, in recording order.
inline std::vector<std::pair<std::string, double>> g_metrics;

inline void RecordMetric(const std::string& name, double value) {
  g_metrics.emplace_back(name, value);
}

/// Writes g_metrics plus `failures` to `path` as one flat JSON object.
inline void WriteJsonMetrics(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("FAIL: cannot open json output '%s'\n", path);
    ++g_failures;
    return;
  }
  std::fprintf(f, "{\n");
  for (const auto& [name, value] : g_metrics) {
    std::fprintf(f, "  \"%s\": %.6g,\n", name.c_str(), value);
  }
  std::fprintf(f, "  \"failures\": %d\n}\n", g_failures);
  std::fclose(f);
  std::printf("\nmetrics: %zu entries written to %s\n", g_metrics.size() + 1,
              path);
}

/// Prints OK/FAIL for one assertion and counts failures.
inline void Check(bool ok, const char* what) {
  std::printf("\n%s: %s\n", ok ? "OK" : "FAIL", what);
  if (!ok) ++g_failures;
}

/// Resident set size of this process, or 0 where /proc is unavailable.
inline size_t CurrentRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total_pages = 0, resident_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<size_t>(resident_pages) *
         static_cast<size_t>(::sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

}  // namespace rpt::bench

#endif  // RPT_BENCH_BENCH_COMMON_H_
